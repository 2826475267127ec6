"""Time-dependent normal-cone inclusions driven by history operators.

The problem class: find a trajectory ``u`` with ``u(t) in K`` and

    -u(t) in N_{C(eta(t), t)}(A u(t) + xi(t)),

where ``eta = R u`` is produced by a parameter memory (values in Y, feeding
the functional ``j``), ``xi = S u`` by a load memory (values in X, shifting
the load), and ``C(eta, t)`` is the moving set induced by ``j(eta, .)``, the
cone ``K`` and the load ``f(t)``.  Node by node the inclusion is equivalent
to an elliptic variational inequality, so the solver reduces everything to a
fixed point of the coupling map

    theta = (eta, xi)  ->  (R u_theta, S u_theta),

where ``u_theta`` solves the per-node EVI with the frozen parameters.  The
map contracts when ``(alpha + 1)(l_param + l_load) < m``; that admissibility
gate is checked up front and can only be bypassed explicitly, in which case
divergence is recorded rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    ConstraintCone,
    DimensionMismatchError,
    HilbertSpace,
    HomogeneousFunctional,
    TimeGrid,
    Trajectory,
    membership_residuals,
    sample_unit_directions,
)
from .evi import (
    AuditError,
    EviProblem,
    IterationMetric,
    MonotoneOperator,
    NonConvergenceError,
    iteration_metric,
    solve_evi,
    solve_evi_many,
    vi_residuals,
)
from .histop import (_MAX_RATIO, HistoryOperator, IneligibleOperatorError, _stop_threshold,
                     identity_operator, zero_operator)

__all__ = [
    "SmallnessError",
    "SmallnessReport",
    "InclusionSpec",
    "InclusionSolution",
    "check_smallness",
    "solve_intermediate",
    "stability_gap_violation",
    "apply_coupling_map",
    "solve_inclusion",
    "build_inclusion_variant",
]


_RESIDUAL_BUDGET = 1024     # VI-residual directions drawn by a solve
_MEMBERSHIP_BUDGET = 2048
_MEMBERSHIP_NODES = 8       # nodes, spread over the grid, whose membership a solve tests
# time marching multiplies the width by 2 ** max(1, (_WIDEN_PASSES + 2 - p) // 2)
# after a window that settles within p <= _WIDEN_PASSES passes and halves it
# after one that needs more than _NARROW_PASSES or does not settle
_WIDEN_PASSES = 8
_NARROW_PASSES = 12
_MIX_DEPTH = 8              # residual differences an Anderson-mixed pass fits
_MIX_RCOND = 1e-10          # their fit is singular at a scaled Cholesky pivot this small


class SmallnessError(RuntimeError):
    """The admissibility gate failed and the caller did not force the run."""


@dataclass(frozen=True)
class SmallnessReport:
    """Constants entering the contraction gate, evaluated strictly."""

    alpha: float
    l_parameter: float
    l_load: float
    m: float

    @property
    def lhs(self) -> float:
        return (self.alpha + 1.0) * (self.l_parameter + self.l_load)

    @property
    def passed(self) -> bool:
        return self.lhs < self.m

    @property
    def ratio(self) -> float:
        """Contraction modulus implied by the constants (may exceed 1)."""
        return self.lhs / self.m

    def describe(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"(alpha+1)(l_param+l_load) = ({self.alpha:.6g}+1)"
                f"({self.l_parameter:.6g}+{self.l_load:.6g}) = {self.lhs:.6g} "
                f"{'<' if self.passed else '>='} m = {self.m:.6g}  [{verdict}]")


@dataclass(frozen=True)
class InclusionSpec:
    """Immutable description of one inclusion problem on a fixed grid.

    ``parameter_memory`` maps X-valued trajectories to Y-valued ones and its
    output feeds the functional's parameter slot; ``load_memory`` maps X to X
    and its output is subtracted from the load.  Both must be causal.
    """

    x_space: HilbertSpace
    y_space: HilbertSpace
    cone: ConstraintCone
    operator: MonotoneOperator
    functional: HomogeneousFunctional
    parameter_memory: HistoryOperator
    load_memory: HistoryOperator
    f: Trajectory
    grid: TimeGrid

    def __post_init__(self):
        if self.cone.space.dim != self.x_space.dim:
            raise DimensionMismatchError("cone lives in the wrong space")
        if self.functional.x_space.dim != self.x_space.dim:
            raise DimensionMismatchError("functional acts on the wrong space")
        if not self.functional.eta_free and self.functional.y_space.dim != self.y_space.dim:
            raise DimensionMismatchError("functional parameter space does not match Y")
        if self.f.space.dim != self.x_space.dim:
            raise DimensionMismatchError("load must be X-valued")
        if self.f.grid.steps != self.grid.steps or self.f.grid.horizon != self.grid.horizon:
            raise DimensionMismatchError("load trajectory lives on a different grid")
        # step both memories once at node 0 so dimension bugs surface at build time
        zero = np.zeros(self.x_space.dim)
        for op, dim, label in ((self.parameter_memory, self.y_space.dim, "parameter"),
                               (self.load_memory, self.x_space.dim, "load")):
            _, out = op.step(op.init_state(self.grid), 0, zero)
            if np.size(out) != dim:
                raise DimensionMismatchError(f"{label} memory output has dimension "
                                             f"{np.size(out)}, expected {dim}")

    @property
    def inclusion(self) -> InclusionSpec:
        """The inclusion this spec is solved as: the spec itself.

        A :class:`~sweepvi.sweeping.SweepingSpec` answers with its velocity
        lift, so callers read the same attribute for both families.
        """
        return self

    @cached_property
    def iteration_metric(self) -> IterationMetric:
        """The metric every node's EVI iterates in, audited and decided once per spec."""
        return iteration_metric(self.x_space, self.cone, self.operator, self.functional)


@dataclass(frozen=True)
class InclusionSolution:
    """Solution trajectory with per-node convergence evidence.

    ``eta`` (in Y) and ``xi`` (in X) are the pair theta that ``u`` solves
    the node EVIs for.  For a sweeping process ``u`` is the displacement and
    ``v`` the velocity, the unknown of the inclusion that was solved (theta,
    the iteration counts and the residuals belong to it); otherwise ``v`` is
    ``None``.
    """

    u: Trajectory
    eta: Trajectory
    xi: Trajectory
    per_step_iterations: np.ndarray
    per_step_residuals: np.ndarray
    smallness: SmallnessReport
    converged: bool
    diagnostics: dict = field(repr=False)
    v: Trajectory | None = None


def check_smallness(spec: InclusionSpec) -> SmallnessReport:
    """Evaluate the contraction gate from the declared constants.

    The gate reads only the constants the spec declares: the functional's
    ``alpha``, the instantaneous constants ``l`` of the two memories and the
    operator's ``m``.  Nothing here is estimated from samples.
    """
    return SmallnessReport(alpha=spec.functional.alpha,
                           l_parameter=spec.parameter_memory.l,
                           l_load=spec.load_memory.l,
                           m=spec.operator.m)


def _node_problem(spec: InclusionSpec, eta_k: np.ndarray, xi_k: np.ndarray,
                  f_k: np.ndarray) -> EviProblem:
    return EviProblem(space=spec.x_space, cone=spec.cone, operator=spec.operator,
                      functional=spec.functional, eta=eta_k, f=f_k - xi_k,
                      metric=spec.iteration_metric)


def _solve_nodes(spec: InclusionSpec, first: int, eta: np.ndarray, xi: np.ndarray,
                 tol: float, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve the frozen-parameter EVI at nodes ``first, first + 1, ...`` as one block.

    Row ``j`` of ``eta``, ``xi`` and ``start`` belongs to node ``first + j``.
    The nodes are independent once theta is frozen, so they are the rows of
    one :func:`~sweepvi.evi.solve_evi_many` call.  Without ``start`` node
    ``first`` is solved on its own from zero and the other nodes start from
    its solution, the one guess that exists before any pass.  Returns the
    solutions and the iteration counts, one row per node; a stall names its
    node.
    """
    fs = spec.f.samples[first:first + len(xi)] - xi
    head = 0
    try:
        if start is None:
            problem = _node_problem(spec, eta[0], xi[0], spec.f.node(first))
            sol = solve_evi(problem, tol=tol)
            if len(fs) == 1:
                return sol.u[None], np.array([sol.iterations])
            head, start = 1, np.broadcast_to(sol.u, fs.shape)
        sols = solve_evi_many(spec.x_space, spec.cone, spec.operator, spec.functional,
                              eta[head:], fs[head:], tol=tol, starts=start[head:],
                              metric=spec.iteration_metric)
    except NonConvergenceError as exc:
        raise type(exc)(f"EVI stalled at node {first + head + (exc.row or 0)}: {exc.reason}",
                        last_iterate=exc.last_iterate, displacement=exc.displacement) from exc
    if head:
        return (np.vstack([sol.u, sols.u]),
                np.concatenate([[sol.iterations], sols.iterations]))
    return sols.u, sols.iterations


def _theta_changes(spec: InclusionSpec, d_eta: np.ndarray, d_xi: np.ndarray) -> np.ndarray:
    """Product norm ``sqrt(||d_eta||_Y^2 + ||d_xi||_X^2)`` of each row of a theta change."""
    return np.hypot(spec.y_space.norms_many(d_eta), spec.x_space.norms_many(d_xi))


def _pair_samples(spec: InclusionSpec, theta: tuple) -> tuple[np.ndarray, np.ndarray]:
    eta, xi = theta
    if eta.space.dim != spec.y_space.dim or xi.space.dim != spec.x_space.dim:
        raise DimensionMismatchError("theta must be a pair (eta, xi) with values in Y and X")
    return eta.samples, xi.samples


def solve_intermediate(theta: tuple[Trajectory, Trajectory], spec: InclusionSpec,
                       tol: float = 1e-10) -> Trajectory:
    """Solve the decoupled problem: at each node the EVI with frozen theta.

    theta is the pair ``(eta, xi)`` of Y- and X-valued trajectories.  The
    result at node k depends only on theta at node k and the load there.
    """
    eta, xi = _pair_samples(spec, theta)
    us, _ = _solve_nodes(spec, 0, eta, xi, tol)
    return Trajectory(spec.x_space, spec.grid, us)


def stability_gap_violation(spec: InclusionSpec, theta1: tuple[Trajectory, Trajectory],
                            theta2: tuple[Trajectory, Trajectory], tol: float = 1e-10) -> float:
    """Worst violation of the frozen-parameter stability bound.

    For pairs ``theta = (eta, xi)`` and solutions u1, u2 of the decoupled
    problems the gap obeys
    ``||u1 - u2|| <= (alpha ||eta1 - eta2|| + ||xi1 - xi2||) / m`` node by
    node; the return value is the max over nodes of lhs - rhs, which should
    not exceed a couple of solver tolerances.
    """
    u1 = solve_intermediate(theta1, spec, tol=tol)
    u2 = solve_intermediate(theta2, spec, tol=tol)
    (eta1, xi1), (eta2, xi2) = theta1, theta2
    lhs = spec.x_space.norms_many(u1.samples - u2.samples)
    rhs = (spec.functional.alpha * spec.y_space.norms_many(eta1.samples - eta2.samples)
           + spec.x_space.norms_many(xi1.samples - xi2.samples)) / spec.operator.m
    return float(np.max(lhs - rhs))


def apply_coupling_map(spec: InclusionSpec, theta: tuple[Trajectory, Trajectory],
                       tol: float = 1e-10, start: np.ndarray | None = None,
                       ) -> tuple[Trajectory, Trajectory, Trajectory, np.ndarray]:
    """One sweep of (eta, xi) -> (R u_theta, S u_theta); returns (eta+, xi+, u, iters)."""
    eta, xi = _pair_samples(spec, theta)
    us, iters = _solve_nodes(spec, 0, eta, xi, tol, start)
    u = Trajectory(spec.x_space, spec.grid, us)
    return spec.parameter_memory(u), spec.load_memory(u), u, iters


def _node_gradients(spec: InclusionSpec, u_samples: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Each node's gradient ``A u_k - (f_k - xi_k)``."""
    return spec.operator.apply(u_samples) - (spec.f.samples - xi)


def _node_checks(spec: InclusionSpec, u_samples: np.ndarray, eta: np.ndarray, xi: np.ndarray,
                 nodes: np.ndarray, seed: int,
                 residual_budget: int) -> tuple[np.ndarray, dict[int, float], dict]:
    """Both solution tests, each on one direction sample shared by the nodes.

    Returns the VI residual at every node (``residual_budget`` directions
    drawn from ``seed``), the inclusion membership residual at ``nodes``
    (``_MEMBERSHIP_BUDGET`` directions from ``seed + 1``), and the sample
    sizes: the directions actually tested after the cone projection drops
    the null ones.
    """
    grads = _node_gradients(spec, u_samples, xi)
    dirs = sample_unit_directions(spec.cone, residual_budget, seed)
    residuals = vi_residuals(spec.x_space, spec.cone, spec.functional, u_samples, grads,
                             eta, dirs)
    sizes = {"residual_directions": len(dirs), "membership_nodes": len(nodes)}
    del dirs                    # never hold both samples: they set the peak memory
    dirs = sample_unit_directions(spec.cone, _MEMBERSHIP_BUDGET, seed + 1)
    sizes["membership_directions"] = len(dirs)
    # at node k the moving set is f_k - C(eta_k) and z_k = A u_k + xi_k, so
    # f_k - z_k is minus the VI gradient
    member = membership_residuals(spec.functional, spec.cone, eta[nodes], -grads[nodes],
                                  u_samples[nodes], dirs)
    return residuals, dict(zip(nodes.tolist(), member.tolist())), sizes


def _predict(u: np.ndarray, first: int, last: int) -> np.ndarray:
    """Starting guess for nodes ``first..last`` from the committed nodes before ``first``.

    Zero at node 0 and ``u_0`` at every node of a window at node 1.  At
    node 2 the line through ``u_0, u_1``: ``(j + 2) u_1 - (j + 1) u_0`` for
    node ``2 + j``.  From node 3 on the quadratic through ``u_{f-3}, u_{f-2},
    u_{f-1}``: ``u_{f-1} + s d1 + s (s + 1) / 2 d2`` for node ``f + j``, with
    ``s = j + 1``, ``d1 = u_{f-1} - u_{f-2}`` and ``d2 = d1 - (u_{f-2} -
    u_{f-3})``.
    """
    if first == 0:
        return np.zeros((last + 1, u.shape[1]))
    if first == 1:
        return np.broadcast_to(u[0], (last, u.shape[1]))
    s = np.arange(1.0, last - first + 2)[:, None]
    if first == 2:
        return (s + 1.0) * u[1] - s * u[0]
    d1 = u[first - 1] - u[first - 2]
    d2 = d1 - (u[first - 2] - u[first - 3])
    return u[first - 1] + s * d1 + (0.5 * s * (s + 1.0)) * d2


def _fit(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """``x`` with ``gram x = rhs`` for a small Gram matrix, or ``None`` when it is singular.

    Singular when it is not positive definite or a Cholesky pivot, relative
    to its diagonal entry (the pivot of the matrix scaled to a unit
    diagonal), is at most ``_MIX_RCOND``.  The factor and the solve are the
    LAPACK gufuncs of ``np.linalg.cholesky`` and ``np.linalg.solve``, bit for
    bit, called without those wrappers' argument handling, which costs more
    than a factorisation of at most ``_MIX_DEPTH`` rows.  Floating-point
    errors are ignored, as the wrappers ignore all but a failed
    factorisation; that one comes back as NaN, whose pivots fail the test.
    """
    with np.errstate(all="ignore"):
        low = _umath_linalg.cholesky_lo(gram, signature="d->d")
        pivots, diagonal = low.diagonal().tolist(), gram.diagonal().tolist()
        if not all(p * p > _MIX_RCOND * d for p, d in zip(pivots, diagonal)):
            return None
        return _umath_linalg.solve1(gram, rhs, signature="dd->d")


class _Mixer:
    """Type-II Anderson mixing of one window's theta (Walker & Ni, 2011).

    Each :meth:`mix` records a pass's plain theta ``g = T(theta)`` and its
    residual ``r = g - theta``.  From the second record on the mixer keeps
    the differences with the record before, the last ``depth`` of them
    (never more than the window has entries), in preallocated rows, with
    their Gram matrix updated one row per record: O(depth) vector passes
    per pass.  ``admits`` tells whether a mixture may be solved with.
    """

    def __init__(self, depth: int, size: int, admits: Callable[[np.ndarray], bool]):
        depth = min(depth, size)
        self.dg, self.dr = np.empty((depth, size)), np.empty((depth, size))
        self.gram = np.empty((depth, depth))
        self.depth, self.count, self.last = depth, 0, None
        self.admits = admits

    def mix(self, g: np.ndarray, r: np.ndarray) -> np.ndarray | None:
        """Record ``(g, r)`` and return ``g - dG gamma``, or ``None`` for the plain ``g``.

        ``g`` and ``r`` are C-ordered blocks of ``size`` entries, which the
        mixer keeps (the caller must not change them).  ``gamma`` fits ``r``
        by the residual differences ``dR`` in least squares (:func:`_fit`).
        ``None`` when there is no difference yet, when the fit is singular,
        or when the mixture has a non-finite entry or is not admitted; those
        three also drop the differences.
        """
        flat_g, flat_r = g.ravel(), r.ravel()
        if self.last is not None:
            i, k = self.count % self.depth, min(self.count + 1, self.depth)
            np.subtract(flat_g, self.last[0], out=self.dg[i])
            np.subtract(flat_r, self.last[1], out=self.dr[i])
            # ndarray.dot: the BLAS products of @, bit for bit, at less fixed cost
            self.gram[i, :k] = self.gram[:k, i] = self.dr[:k].dot(self.dr[i])
            self.count += 1
        self.last = flat_g, flat_r
        k = min(self.count, self.depth)
        if not k:
            return None
        gamma = _fit(self.gram[:k, :k], self.dr[:k].dot(flat_r))
        if gamma is not None:
            mixed = g - gamma.dot(self.dg[:k]).reshape(g.shape)
            finite = np.isfinite(mixed)
            if np.count_nonzero(finite) == finite.size and self.admits(mixed):
                return mixed
        self.count = 0
        return None


def solve_inclusion(spec: InclusionSpec, tol: float = 1e-10,
                    mode: str = "time_marching", force: bool = False,
                    max_passes: int = 500, seed: int = 0) -> InclusionSolution:
    """Drive the coupling map to its fixed point and return the trajectory.

    Both modes run Picard passes of the coupling map over windows of nodes,
    each started from the memory states committed through the node before
    it.  global_picard has one window, the whole grid.  time_marching solves
    node 0 as a window of its own and then picks each window's width from
    the passes ``p`` of the one before: it starts at one node; after a window
    that settles within 8 passes it multiplies the width by
    ``2 ** max(1, (10 - p) // 2)`` (8 after 3 or 4 passes, 16 after 2, 4
    after 5 or 6, 2 after 7 or 8), and it halves the width after a window
    that needs more than 12 passes or does not settle (a forced run).  On a
    short window the Picard error falls like ``(L T_w)^p / p!``, so a fine
    grid gets wide windows.  Causal memories make the fixed points of all
    window layouts coincide.

    A pass steps both memories over the window with the current guess,
    which gives the plain theta ``T(theta)`` of the theta the guess solves,
    then solves the window's node EVIs as one block started from the guess;
    the solution is the next guess.  Passes 1 and 2 solve with the plain
    theta.  From pass 3 on a pass that does not settle solves with a
    type-II Anderson mixture instead (Walker & Ni, 2011): the plain theta
    minus the combination of the last ``_MIX_DEPTH`` (8) differences of
    plain thetas whose residual differences best fit, in least squares, the
    pass's residual ``T(theta) - theta``.  The mixture falls back to the
    plain theta, and the differences are dropped, when the least-squares
    system is singular (a Cholesky pivot of its Gram matrix, scaled to a
    unit diagonal, at most 1e-10) or the mixture has a non-finite entry or
    a parameter the functional's prox is undefined at
    (:meth:`~sweepvi.core.HomogeneousFunctional.admits`).  The
    diagnostics count the mixed passes (``mixed_passes``).  The guess
    starts at zero in the window at node 0, at ``u_0`` for every node of
    the window at node 1, on the line through ``u_0, u_1`` in the window at
    node 2, and on the quadratic through ``u_{f-3}, u_{f-2}, u_{f-1}`` in a
    window at node ``f >= 3`` (see :func:`_predict`), which is O(dt^3) from
    the solution where u is smooth.  From its second pass on a window stops
    when ``change``, the largest residual ``hypot(||d eta||_Y, ||d xi||_X)``
    over its nodes, certifies a fixed-point distance ``q / (1 - q) change``
    of at most ``tol`` (a tenth of that for a marching window), with ``q``
    the largest ratio of successive changes seen in the window (clipped to
    [1e-3, 0.95]: ``clipped_windows`` counts the settled windows whose
    ratio exceeded 0.95), so a mixed pass never loosens the estimate.  The
    settling pass solves with the plain theta, so the returned u solves the
    node EVIs for the returned theta.  Each window gets at most
    ``max_passes`` passes (at least 2).  The diagnostics list the windows
    as ``(first, last)`` node pairs.

    With ``force`` the admissibility gate and non-convergence become data:
    the run continues and the returned diagnostics record what happened.
    The operator's declared constants are audited once per spec, when its
    iteration plan is made (:attr:`InclusionSpec.iteration_metric`); a failed
    audit raises :class:`~sweepvi.evi.AuditError`, with or without ``force``.

    The result is then checked at the nodes: the VI residual at every node
    on 1024 cone directions drawn from ``seed``, and the inclusion
    membership at 8 nodes spread over the grid on 2048 directions drawn from
    ``seed + 1``; each check draws its sample once and tests all its nodes
    together.  A converged solution must pass membership within
    ``max(1e-6, 100 tol)``.  The diagnostics record the sample sizes.
    """
    if mode not in ("global_picard", "time_marching"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_passes < 2:
        raise ValueError("max_passes must be at least 2: a window trusts its theta change "
                         "from the second pass on")
    report = check_smallness(spec)
    if not report.passed and not force:
        raise SmallnessError(f"admissibility gate failed: {report.describe()}; "
                             "pass force=True to record the attempt anyway")

    evi_tol = 0.05 * tol
    gate_ratio = report.ratio if report.passed else 0.5
    diagnostics: dict = {"mode": mode, "forced": bool(force and not report.passed),
                         "smallness": report.describe()}
    n = spec.grid.steps
    # global Picard is one window, the whole grid; time marching starts with
    # node 0 alone and then sizes each window from the passes of the last
    width, factor = (n + 1, 1.0) if mode == "global_picard" else (1, 0.1)
    nx, ny = spec.x_space.dim, spec.y_space.dim
    # theta = (eta, xi) at every node, one row [eta_k | xi_k] each: the block
    # a pass's change is measured on and the mixer mixes
    u, theta_all = np.zeros((n + 1, nx)), np.zeros((n + 1, ny + nx))
    iters = np.zeros(n + 1, dtype=int)
    passes = np.zeros(n + 1, dtype=int)
    param, load = spec.parameter_memory, spec.load_memory
    # states committed through the node before the window; each pass steps
    # them over the window, O(1) work per node for the built-in memories
    param_state = param.init_state(spec.grid)
    load_state = load.init_state(spec.grid)
    converged, coupling_passes, mixed_passes, clipped, windows, first = True, 0, 0, 0, [], 0

    def admitted(mixed: np.ndarray) -> bool:    # the prox must be defined at a mixed parameter
        return spec.functional.admits(mixed[:, :ny])

    while first <= n:
        last = min(first + width, n + 1) - 1
        window = slice(first, last + 1)
        rows = last + 1 - first
        u[window] = _predict(u, first, last)
        guess, changes, ratio = u[window], [], 0.0
        window_theta, window_iters = theta_all[window], iters[window]
        mixer = _Mixer(_MIX_DEPTH, rows * (ny + nx), admitted)
        for p in range(1, max_passes + 1):
            theta = np.concatenate((param.run(param_state, first, guess)[1],
                                    load.run(load_state, first, guess)[1]), axis=1)
            d = theta - window_theta
            changes.append(float(np.maximum.reduce(_theta_changes(spec, d[:, :ny], d[:, ny:]))))
            # the largest ratio seen in the window: a mixed pass may contract
            # faster than the map does, so the last ratio could loosen the test
            if p > 1:
                ratio = max(ratio, changes[-1] / changes[-2] if changes[-2] > 0 else gate_ratio)
            # the first pass compares against the zero initial theta, which
            # can match by accident; only trust the change from pass two on
            settled = p >= 2 and changes[-1] <= factor * _stop_threshold(ratio, tol)
            if p >= 2 and not settled:
                mixed = mixer.mix(theta, d)
                if mixed is not None:
                    theta = mixed
                    mixed_passes += 1
            start = None if first == 0 and p == 1 else guess
            guess, pass_iters = _solve_nodes(spec, first, theta[:, :ny], theta[:, ny:], evi_tol,
                                             start)
            window_iters += pass_iters
            window_theta[...] = theta
            if settled:
                break
        else:
            converged = False
            if not force:
                raise NonConvergenceError(
                    f"coupling map did not settle on nodes {first}..{last} within "
                    f"{max_passes} passes; last change {changes[-1]:.3e}",
                    last_iterate=guess, displacement=changes[-1],
                    coupling_passes=coupling_passes + p, changes=changes)
        u[window] = guess
        passes[window] = p
        coupling_passes += p
        clipped += settled and ratio > _MAX_RATIO
        windows.append((first, last))
        if last < n:
            param_state = param.run(param_state, first, u[window])[0]
            load_state = load.run(load_state, first, u[window])[0]
        # node 0 starts from zero, so its passes say nothing of the coupling;
        # after it, widen a window that settles fast, the more the fewer
        # passes it took, and narrow a slow one
        if first and settled and p <= _WIDEN_PASSES:
            width *= 2 ** max(1, (_WIDEN_PASSES + 2 - p) // 2)
        elif first and (not settled or p > _NARROW_PASSES):
            width = max(width // 2, 1)
        first = last + 1
    if mode == "global_picard":             # the one window's record
        diagnostics["sweeps"] = p
        diagnostics["sweep_changes"] = changes
    else:
        diagnostics["inner_iterations"] = passes
    diagnostics["coupling_passes"] = coupling_passes
    diagnostics["mixed_passes"] = mixed_passes
    diagnostics["windows"] = windows
    diagnostics["clipped_windows"] = clipped

    count = min(_MEMBERSHIP_NODES, spec.grid.steps + 1)
    nodes = np.unique(np.linspace(0, spec.grid.steps, count).round().astype(int))
    eta_all, xi_all = theta_all[:, :ny], theta_all[:, ny:]
    residuals, membership, sizes = _node_checks(spec, u, eta_all, xi_all, nodes, seed,
                                                _RESIDUAL_BUDGET)
    diagnostics["membership"] = membership
    diagnostics.update(sizes)
    if converged:
        limit = max(1e-6, 100.0 * tol)
        worst = max(membership.values())
        if worst > limit:
            raise AuditError(f"solution failed the inclusion membership check: "
                             f"worst residual {worst:.3e} > {limit:.3e}")

    return InclusionSolution(u=Trajectory(spec.x_space, spec.grid, u),
                             eta=Trajectory(spec.y_space, spec.grid, eta_all),
                             xi=Trajectory(spec.x_space, spec.grid, xi_all),
                             per_step_iterations=iters, per_step_residuals=residuals,
                             smallness=report, converged=converged, diagnostics=diagnostics)


def build_inclusion_variant(variant: str, *, cone: ConstraintCone,
                            operator: MonotoneOperator,
                            functional: HomogeneousFunctional,
                            f: Trajectory, grid: TimeGrid,
                            parameter_memory: HistoryOperator | None = None,
                            load_memory: HistoryOperator | None = None) -> InclusionSpec:
    """Assemble one of the three canonical couplings.

    memory_pair
        Both memories integrate strictly over the past (instantaneous
        constant 0); the admissibility gate then passes for free.
    state_parameter
        The functional's parameter is the current state itself (parameter
        memory = identity), which costs l = 1 and tightens the gate to
        ``alpha + 1 < m``.
    parameter_free
        The functional ignores its parameter, so it takes no parameter
        memory (a ``ValueError`` if one is passed: its ``l`` would still
        enter the gate); a zero memory stands in.

    Only the structure is checked here (a ``ValueError`` or subclass); the
    gate is decided at solve time, by :func:`check_smallness`.
    """
    x_space = functional.x_space
    if variant == "memory_pair":
        if parameter_memory is None or load_memory is None:
            raise ValueError("memory_pair needs both memories")
        if parameter_memory.l != 0.0 or load_memory.l != 0.0:
            raise IneligibleOperatorError(
                "memory_pair requires strictly history-dependent memories (l = 0); "
                f"got l_param={parameter_memory.l}, l_load={load_memory.l}")
        y_space = functional.y_space
    elif variant == "state_parameter":
        if parameter_memory is not None:
            raise ValueError("state_parameter supplies its own parameter memory")
        if functional.eta_free:
            raise ValueError("state_parameter needs a parameter-dependent functional")
        if functional.y_space.dim != x_space.dim:
            raise DimensionMismatchError("state feedback needs Y = X")
        parameter_memory = identity_operator(tag="state_feedback")
        load_memory = load_memory or zero_operator(x_space)
        if load_memory.l != 0.0:
            raise IneligibleOperatorError("state_parameter requires an l = 0 load memory")
        y_space = functional.y_space
    elif variant == "parameter_free":
        if not functional.eta_free:
            raise ValueError("parameter_free needs a functional that ignores its parameter")
        if parameter_memory is not None:
            raise ValueError("parameter_free takes no parameter memory: its functional "
                             "ignores the parameter")
        y_space = functional.y_space
        parameter_memory = zero_operator(y_space, tag="unused_parameter")
        load_memory = load_memory or zero_operator(x_space)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return InclusionSpec(x_space=x_space, y_space=y_space, cone=cone, operator=operator,
                         functional=functional, parameter_memory=parameter_memory,
                         load_memory=load_memory, f=f, grid=grid)
