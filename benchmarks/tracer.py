"""Outside-in span tracer for the sweepvi benchmark.

The tracer wraps public functions and methods of ``sweepvi`` where their
callers look them up, so the program itself is not edited:

* a method is replaced on its class (``HistoryOperator.at_node``);
* a module-level function is replaced in every loaded ``sweepvi`` module
  that binds the same function object under that name (``solve_evi`` is
  looked up as ``sweepvi.inclusion.solve_evi``, ``vi_residual`` as
  ``sweepvi.cli.vi_residual`` and ``sweepvi.inclusion.vi_residual``, ...).

Each call records a span (layer, start, end, parent) in flat in-memory
arrays; nothing is written until :meth:`Tracer.write_spans`.  A layer's self
time is its spans' durations minus the durations of their direct child
spans.  Counters are read from return values at the boundary.  Leaving the
``with`` block restores every wrapped name.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _evi_iterations(counters, out):
    counters["evi.iterations"] += int(out.iterations)


def _inclusion_passes(counters, out):
    diag = out.diagnostics
    counters["inclusion.inner_passes"] += int(np.sum(diag.get("inner_iterations", 0)))
    counters["inclusion.sweeps"] += int(diag.get("sweeps", 0))


@dataclass(frozen=True)
class Target:
    """One traced boundary: where the callable lives and the layer it counts as."""

    layer: str                      # metric prefix, e.g. "evi.solve_evi"
    module: str                     # module that defines the callable
    path: str                       # attribute path inside it, e.g. "HistoryOperator.at_node"
    count: Callable | None = None   # reads counters from the return value
    once: bool = False              # called once per run, so its call count is not reported


TARGETS = (
    # self time of cmd_run: argument glue, CSV and text formatting, file writes
    Target("cli.run_self", "sweepvi.cli", "cmd_run", once=True),
    Target("cli.load_config", "sweepvi.cli", "load_config", once=True),
    Target("contact.build_problem", "sweepvi.contact", "build_problem", once=True),
    Target("contact.recover_stress", "sweepvi.contact", "recover_stress"),
    Target("contact.contact_diagnostics", "sweepvi.contact", "contact_diagnostics", once=True),
    Target("sweeping.solve_sweeping", "sweepvi.sweeping", "solve_sweeping", once=True),
    Target("inclusion.solve_inclusion", "sweepvi.inclusion", "solve_inclusion",
           _inclusion_passes, once=True),
    Target("histop.volterra_operator", "sweepvi.histop", "volterra_operator", once=True),
    Target("histop.at_node", "sweepvi.histop", "HistoryOperator.at_node"),
    Target("histop.call", "sweepvi.histop", "HistoryOperator.__call__"),
    Target("evi.solve_evi", "sweepvi.evi", "solve_evi", _evi_iterations),
    Target("evi.vi_residual", "sweepvi.evi", "vi_residual"),
    Target("core.membership_residual", "sweepvi.core", "MovingSet.membership_residual"),
    Target("core.sample_unit_directions", "sweepvi.core", "sample_unit_directions"),
    Target("core.norms_many", "sweepvi.core", "HilbertSpace.norms_many"),
    Target("core.solve_metric", "sweepvi.core", "HilbertSpace.solve_metric"),
    Target("core.prox", "sweepvi.core", "HomogeneousFunctional.prox"),
)

COUNTERS = ("evi.iterations", "inclusion.inner_passes", "inclusion.sweeps")


def lookup_sites(module: str, path: str) -> list[tuple[object, str, object]]:
    """Every ``(owner, name, original)`` through which callers reach a callable.

    A method is looked up on its class.  A module-level function is looked
    up in each loaded ``sweepvi`` module that binds the same object under
    that name, which covers ``from .evi import solve_evi`` style imports.
    """
    owner = sys.modules[module]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = owner.__dict__[name]
    if parents:
        return [(owner, name, original)]
    loaded = [m for key, m in list(sys.modules.items())
              if key == "sweepvi" or key.startswith("sweepvi.")]
    return [(m, name, original) for m in loaded if m.__dict__.get(name) is original]


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.layers = [t.layer for t in self.targets]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._layer_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing and restoring ------------------------------------------

    def _wrap(self, layer_id: int, target: Target, fn):
        ids, parents, starts, ends = self._layer_id, self._parent, self._start, self._end
        stack, counters, count = self._stack, self.counters, target.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(counters, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for layer_id, target in enumerate(self.targets):
                sites = lookup_sites(target.module, target.path)
                traced = self._wrap(layer_id, target, sites[0][2])
                for owner, name, original in sites:
                    self._restore.append((owner, name, original))
                    setattr(owner, name, traced)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- reading the spans ---------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._layer_id)

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """``layer -> (calls, self seconds, inclusive seconds)`` over all spans.

        Inclusive time counts only the outermost span of a layer, so a layer
        that calls itself (nested memories) is not counted twice.
        """
        ids = np.frombuffer(self._layer_id, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        # bit j of above[i] is set when a span of layer j encloses span i
        above = [0] * len(ids)
        outermost = np.ones(len(ids), dtype=bool)
        for i, p in enumerate(self._parent):
            if p >= 0:
                above[i] = above[p] | (1 << self._layer_id[p])
                outermost[i] = not (above[i] >> self._layer_id[i]) & 1
        n = len(self.layers)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        total_s = np.bincount(ids[outermost], weights=dur[outermost], minlength=n)
        return {layer: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, layer in enumerate(self.layers)}

    def write_spans(self, path: Path) -> None:
        """One line per span: layer, start and end (s after the first span began), parent."""
        origin = self._start[0] if self.span_count else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,layer,start_s,end_s,parent\n")
            for i in range(self.span_count):
                fh.write(f"{i},{self.layers[self._layer_id[i]]},"
                         f"{self._start[i] - origin:.9f},{self._end[i] - origin:.9f},"
                         f"{self._parent[i]}\n")
