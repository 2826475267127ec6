"""Benchmark workloads: each one is a shipped config with a few keys overridden.

The program sees only the generated INI.  The seed given to the benchmark
goes to ``[solver] seed``, the sampling seed of the post-solve checks; the
solution itself does not depend on it, so one stored reference serves every
seed of a workload.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                         # file under configs/
    overrides: tuple                    # ((section, key, value), ...)
    why: str                            # why it is in the matrix; which layer dominates


WORKLOADS = {w.name: w for w in (
    Workload(
        "rod-long-marching", "rod_compliance.ini",
        (("time", "steps", "512"),),
        "time marching, 512 steps: node-at-a-time memory evaluation "
        "(HistoryOperator.at_node, O(k) per node) is about half the run"),
    Workload(
        "rod-long-picard", "rod_compliance.ini",
        (("time", "steps", "1024"), ("solver", "mode", "global_picard")),
        "global Picard, 1024 steps: 12 sweeps of whole-trajectory memories "
        "(HistoryOperator.__call__) and EVI solves; the EVI layer (solve_evi) dominates"),
    Workload(
        "shear-fine", "shear_friction.ini",
        (("mesh", "elements", "48"),),
        "48-element shear layer, 32 steps: post-solve verification (vi_residual, "
        "membership_residual, norms_many) dominates; memory and EVI near 1%"),
    Workload(
        "rod-contrast", "rod_compliance.ini",
        (("material", "a", "1 3 6 10"), ("time", "steps", "2")),
        "material contrast 10 gives an EVI contraction factor near 0.995, "
        "so the inner EVI iteration (solve_evi) is nearly all of the run"),
)}


def write_config(root: Path, workload: Workload, seed: int, path: Path) -> Path:
    """Write the workload's INI for ``seed`` to ``path`` and return it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(root / "configs" / workload.config, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    for section, key, value in workload.overrides + (("solver", "seed", str(int(seed))),):
        if not parser.has_option(section, key):
            raise KeyError(f"{workload.config} has no [{section}] {key} to override")
        parser[section][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path
