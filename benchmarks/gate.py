"""Correctness gate applied to every benchmark run of ``sweepvi run``.

A run passes when all of these hold:

* the exit code is 0;
* ``diagnostics.txt`` says ``converged: true``;
* every contact-law worst value in ``diagnostics.txt`` is at most 1e-8, the
  acceptance bound ``sweepvi verify`` applies;
* the largest coordinate difference between the solution fields (the ``u``
  and ``v`` columns of ``solution.csv``) and the stored reference is at most
  ``TOL_MULTIPLE`` times the run's ``tol``.

The references live in ``reference/`` and are written by
``make_reference.py``.  ``sweepvi verify`` is deliberately not rerun: its
membership check at every node costs more than the run itself on the fine
shear mesh.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONTACT_BOUND = 1e-8
TOL_MULTIPLE = 10.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Outcome:
    """Result of the gate for one run; ``reasons`` is empty when it passed."""

    reasons: tuple[str, ...]
    diag_total_iterations: int = 0
    output_bytes: int = 0

    @property
    def passed(self) -> bool:
        return not self.reasons


def parse_diagnostics(text: str) -> tuple[dict[str, str], dict[str, float]]:
    """Top-level ``key: value`` pairs and the entries of the ``contact:`` block."""
    top: dict[str, str] = {}
    contact: dict[str, float] = {}
    block = None
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.strip().partition(":")
        if not line.startswith(" "):
            block = key
            top[key] = value.strip()
        elif block == "contact":
            contact[key] = float(value)
    return top, contact


def solution_fields(path: Path) -> tuple[list[str], np.ndarray]:
    """Names and values of the ``u<i>`` and ``v<i>`` columns of a solution CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        keep = [i for i, h in enumerate(header) if h[:1] in "uv" and h[1:].isdigit()]
        rows = [[float(fields[i]) for i in keep]
                for fields in (line.split(",") for line in fh if line.strip())]
    return [header[i] for i in keep], np.array(rows)


def load_reference(name: str, directory: Path = REFERENCE_DIR) -> tuple[list[str], np.ndarray]:
    return solution_fields(directory / f"{name}.csv")


def check(exit_code: int, out_dir: Path, reference: tuple[list[str], np.ndarray]) -> Outcome:
    """Apply the gate to the files one run wrote into ``out_dir``."""
    if exit_code != 0:
        return Outcome((f"exit code {exit_code}",))
    diag_path, sol_path = out_dir / "diagnostics.txt", out_dir / "solution.csv"
    try:
        text = diag_path.read_text(encoding="utf-8")
        top, contact = parse_diagnostics(text)
        names, values = solution_fields(sol_path)
        tol = float(top["tol"])
        total_iterations = int(top["total_iterations"])
    except (OSError, KeyError, ValueError) as exc:
        return Outcome((f"unreadable output: {exc!r}",))

    reasons = []
    if top.get("converged") != "true":
        reasons.append(f"converged: {top.get('converged')}")
    if not contact:
        reasons.append("no contact-law checks in diagnostics.txt")
    for key, worst in sorted(contact.items()):
        if not worst <= CONTACT_BOUND:
            reasons.append(f"contact {key} = {worst:.3e} > {CONTACT_BOUND:g}")
    ref_names, ref_values = reference
    if names != ref_names or values.shape != ref_values.shape:
        reasons.append(f"solution shape {values.shape} {names[:3]}... does not match "
                       f"the reference {ref_values.shape} {ref_names[:3]}...")
    else:
        gap = float(np.abs(values - ref_values).max())
        if not gap <= TOL_MULTIPLE * tol:
            reasons.append(f"sup-distance to reference {gap:.3e} > {TOL_MULTIPLE:g} * tol")
    return Outcome(tuple(reasons), diag_total_iterations=total_iterations,
                   output_bytes=diag_path.stat().st_size + sol_path.stat().st_size)


def manifest(directory: Path = REFERENCE_DIR) -> dict:
    with open(directory / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)
