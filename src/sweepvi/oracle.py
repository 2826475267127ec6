"""Brute-force reference solvers, independent of the contraction machinery.

Everything here works by scoring candidate points against a finite test set:
a point solves the variational inequality iff its worst violation over the
constraint set is nonpositive, so the candidate minimizing the sampled worst
violation approximates the solution to within the grid spacing.  Slow, dumb
and assumption-free on purpose; these exist to cross-check the fast solvers,
not to compete with them.  Deterministic: no randomness anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Trajectory
from .evi import EviProblem
from .inclusion import InclusionSpec, _node_problem

__all__ = [
    "OracleInconclusiveError",
    "GridSearchConfig",
    "brute_vi",
    "brute_inclusion",
    "fd_derivative_check",
]

_MAX_POINTS = 10**7
_MAX_DIM = 3
_INCLUSION_PASSES = 60      # grid-search passes per node of brute_inclusion
_INCLUSION_MAX_DIM = 2      # brute_inclusion's caps on dimension and time steps
_INCLUSION_MAX_STEPS = 16
_RECENTRINGS = 8            # times brute_vi moves a refinement box onto an edge pick
_LAST_RESOLUTION = 21       # points per axis of brute_vi's last refinement box
_CONTAINS_TOL = 1e-12       # cone violation a grid point may have, as ConstraintCone.contains


class OracleInconclusiveError(RuntimeError):
    """The search box was too small: the best point sits on its boundary."""


@dataclass(frozen=True)
class GridSearchConfig:
    """Axis-aligned search box: per-dim radius and odd per-dim resolution."""

    radius: object = 3.0
    resolution: object = 121
    center: object = None

    def axes(self, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if dim > _MAX_DIM:
            raise ValueError(f"grid search supports dimension <= {_MAX_DIM}")
        radius = np.broadcast_to(np.asarray(self.radius, dtype=float), (dim,)).copy()
        res = np.broadcast_to(np.asarray(self.resolution, dtype=int), (dim,)).copy()
        center = (np.zeros(dim) if self.center is None
                  else np.broadcast_to(np.asarray(self.center, dtype=float), (dim,)).copy())
        if np.any(radius <= 0) or np.any(res < 3):
            raise ValueError("need positive radii and at least 3 points per axis")
        if int(np.prod(res)) > _MAX_POINTS:
            raise ValueError(f"grid would exceed {_MAX_POINTS} points")
        return radius, res, center


def _grid_points(center: np.ndarray, radius: np.ndarray, res: np.ndarray) -> np.ndarray:
    axes = [c + np.linspace(-r, r, n) for c, r, n in zip(center, radius, res)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _scores(problem: EviProblem, candidates: np.ndarray, tests: np.ndarray,
            j_tests: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Worst VI violation of each candidate over the test set.

    violation(y, v) = (f - Ay, v - y) + j(y) - j(v); a solution has
    max over v in K of violation <= 0.  The candidates go in chunks of
    ``chunk`` rows, so the block of pairings stays in cache.
    """
    w = problem.space.apply_metric(problem.f - problem.operator(candidates))
    j_cand = problem.functional.eval_many(problem.eta, candidates)
    out = np.empty(len(candidates))
    for lo in range(0, len(candidates), chunk):
        hi = min(lo + chunk, len(candidates))
        cross = w[lo:hi] @ tests.T
        cross -= j_tests
        own = np.einsum("ij,ij->i", w[lo:hi], candidates[lo:hi]) - j_cand[lo:hi]
        out[lo:hi] = cross.max(axis=1) - own
    return out


def _feasible(problem: EviProblem, points: np.ndarray) -> np.ndarray:
    return points[problem.cone.violations(points) <= _CONTAINS_TOL]


def _on_edge(point: np.ndarray, center: np.ndarray, radius: np.ndarray, res: np.ndarray) -> bool:
    """Whether a grid point lies on the boundary of its box."""
    spacing = 2.0 * radius / (res - 1)
    return bool(np.any(np.abs(np.abs(point - center) - radius) < 0.5 * spacing))


def brute_vi(problem: EviProblem, cfg: GridSearchConfig = GridSearchConfig()) -> np.ndarray:
    """Grid-search the EVI: minimize the worst sampled violation, then refine twice.

    The coarse pick must lie inside the box.  The refinement box has the
    same resolution and a radius of 1.25 coarse spacings, centred on that
    pick; its points are scored against the coarse points and its own.
    The last box has 21 points per axis and a radius of 1.25 refinement
    spacings around the refined pick, and is scored against all three.
    While the pick of either refinement box lies on its edge, that box is
    centred on it again, at most 8 times.  A pick on the edge of any box
    raises :class:`OracleInconclusiveError`.
    """
    dim = problem.space.dim
    radius, res, center = cfg.axes(dim)
    coarse = _feasible(problem, _grid_points(center, radius, res))
    if coarse.size == 0:
        raise ValueError("no feasible grid point: box and cone do not intersect")
    j_coarse = problem.functional.eval_many(problem.eta, coarse)
    best = coarse[np.argmin(_scores(problem, coarse, coarse, j_coarse))]
    if _on_edge(best, center, radius, res):
        raise OracleInconclusiveError(
            f"best point {best} touches the search box; enlarge the radius")
    tests = coarse
    for box_res in (res, np.full(dim, _LAST_RESOLUTION)):
        # a radius of 1.25 grid spacings of the box before
        radius, res = 1.25 * (2.0 * radius / (res - 1)), box_res
        for _ in range(_RECENTRINGS + 1):
            center = best
            box = _feasible(problem, _grid_points(center, radius, res))
            pool = np.vstack([tests, box])
            j_pool = problem.functional.eval_many(problem.eta, pool)
            best = box[np.argmin(_scores(problem, box, pool, j_pool))]
            if not _on_edge(best, center, radius, res):
                break
        else:
            raise OracleInconclusiveError(
                f"refined point {best} still touches its box after {_RECENTRINGS} re-centrings")
        tests = pool
    return best


def brute_inclusion(spec: InclusionSpec, cfg: GridSearchConfig = GridSearchConfig()) -> Trajectory:
    """Node-by-node nested grid search for small coupled problems.

    At each node the memory values are recomputed from the partially built
    trajectory around the current candidate, then the frozen-parameter VI is
    grid-searched; the two are alternated to a joint fixed point.  Caps:
    dimension <= 2 and at most 16 time steps.
    """
    if spec.x_space.dim > _INCLUSION_MAX_DIM:
        raise ValueError(f"brute_inclusion handles dimension <= {_INCLUSION_MAX_DIM}")
    if spec.grid.steps > _INCLUSION_MAX_STEPS:
        raise ValueError(f"brute_inclusion handles at most {_INCLUSION_MAX_STEPS} steps")
    n = spec.grid.steps
    samples = np.zeros((n + 1, spec.x_space.dim))
    for k in range(n + 1):
        if k > 0:
            samples[k] = samples[k - 1]
        prev = None
        for _ in range(_INCLUSION_PASSES):
            traj = Trajectory(spec.x_space, spec.grid, samples)
            eta_k = spec.parameter_memory.at_node(traj, k)
            xi_k = spec.load_memory.at_node(traj, k)
            problem = _node_problem(spec, eta_k, xi_k, spec.f.node(k))
            samples[k] = brute_vi(problem, cfg)
            if prev is not None and np.array_equal(prev, samples[k]):
                break
            prev = samples[k].copy()
    return Trajectory(spec.x_space, spec.grid, samples)


def fd_derivative_check(u: Trajectory, v: Trajectory) -> float:
    """Worst interior-node mismatch between the central difference of u and v."""
    if u.grid.steps != v.grid.steps or u.space.dim != v.space.dim:
        raise ValueError("trajectories must share the grid and the space")
    dt = u.grid.dt
    cd = (u.samples[2:] - u.samples[:-2]) / (2.0 * dt)
    return float(u.space.norms_many(cd - v.samples[1:-1]).max())
