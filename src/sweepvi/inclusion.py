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

import numpy as np

from .core import (
    ConstraintCone,
    DimensionMismatchError,
    HilbertSpace,
    HomogeneousFunctional,
    TimeGrid,
    Trajectory,
    membership_residuals,
    product_space,
    sample_unit_directions,
)
from .evi import (
    AuditError,
    EviProblem,
    IterationMetric,
    MonotoneOperator,
    NonConvergenceError,
    audit_operator,
    iteration_metric,
    solve_evi,
    solve_evi_many,
    vi_residuals,
)
from .histop import HistoryOperator, IneligibleOperatorError, identity_operator, zero_operator

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
_AUDIT_SEED = 0             # seed of the operator audit of solve_intermediate


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

    @cached_property
    def theta_space(self) -> HilbertSpace:
        return product_space(self.y_space, self.x_space)

    @property
    def inclusion(self) -> InclusionSpec:
        """The inclusion this spec is solved as: the spec itself.

        A :class:`~sweepvi.sweeping.SweepingSpec` answers with its velocity
        lift, so callers read the same attribute for both families.
        """
        return self

    @cached_property
    def iteration_metric(self) -> IterationMetric:
        """The metric every node's EVI iterates in, decided once per spec."""
        return iteration_metric(self.x_space, self.cone, self.operator, self.functional)

    def split_theta(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ny = self.y_space.dim
        return samples[:, :ny], samples[:, ny:]


@dataclass(frozen=True)
class InclusionSolution:
    """Solution trajectory with per-node convergence evidence.

    For a sweeping process ``u`` is the displacement and ``v`` the velocity,
    the unknown of the inclusion that was solved (``theta``, the iteration
    counts and the residuals belong to it); otherwise ``v`` is ``None``.
    """

    u: Trajectory
    theta: Trajectory
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
            sol = solve_evi(problem, tol=tol, audit_trials=0)
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


def solve_intermediate(theta: Trajectory, spec: InclusionSpec, tol: float = 1e-10,
                       audit_trials: int = 256) -> Trajectory:
    """Solve the decoupled problem: at each node the EVI with frozen theta.

    theta carries (eta, xi) stacked in the product space Y x X.  The result
    at node k depends only on theta at node k and the load there.
    """
    if theta.samples.shape[1] != spec.theta_space.dim:
        raise DimensionMismatchError("theta must take values in Y x X")
    if audit_trials:
        audit = audit_operator(spec.operator, spec.x_space, trials=audit_trials,
                               seed=_AUDIT_SEED)
        if not audit.ok:
            raise AuditError(f"operator constants failed the sampled audit: {audit}")
    eta, xi = spec.split_theta(theta.samples)
    us, _ = _solve_nodes(spec, 0, eta, xi, tol)
    return Trajectory(spec.x_space, spec.grid, us)


def stability_gap_violation(spec: InclusionSpec, theta1: Trajectory, theta2: Trajectory,
                            tol: float = 1e-10) -> float:
    """Worst violation of the frozen-parameter stability bound.

    For solutions u1, u2 of the decoupled problems the gap obeys
    ``||u1 - u2|| <= (alpha ||eta1 - eta2|| + ||xi1 - xi2||) / m`` node by
    node; the return value is the max over nodes of lhs - rhs, which should
    not exceed a couple of solver tolerances.
    """
    u1 = solve_intermediate(theta1, spec, tol=tol, audit_trials=0)
    u2 = solve_intermediate(theta2, spec, tol=tol, audit_trials=0)
    eta1, xi1 = spec.split_theta(theta1.samples)
    eta2, xi2 = spec.split_theta(theta2.samples)
    lhs = spec.x_space.norms_many(u1.samples - u2.samples)
    rhs = (spec.functional.alpha * spec.y_space.norms_many(eta1 - eta2)
           + spec.x_space.norms_many(xi1 - xi2)) / spec.operator.m
    return float(np.max(lhs - rhs))


def apply_coupling_map(spec: InclusionSpec, theta: Trajectory, tol: float = 1e-10,
                       start: np.ndarray | None = None) -> tuple[Trajectory, Trajectory, np.ndarray]:
    """One sweep of theta -> (R u_theta, S u_theta); returns (theta+, u, iters)."""
    eta, xi = spec.split_theta(theta.samples)
    us, iters = _solve_nodes(spec, 0, eta, xi, tol, start)
    u = Trajectory(spec.x_space, spec.grid, us)
    eta_new = spec.parameter_memory(u)
    xi_new = spec.load_memory(u)
    stacked = np.hstack([eta_new.samples, xi_new.samples])
    return Trajectory(spec.theta_space, spec.grid, stacked), u, iters


def _node_gradients(spec: InclusionSpec, u_samples: np.ndarray,
                    theta_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's parameter ``eta_k`` and gradient ``A u_k - (f_k - xi_k)``."""
    eta, xi = spec.split_theta(theta_samples)
    au = spec.operator.apply_many(u_samples)
    return eta, au - (spec.f.samples - xi)


def _node_checks(spec: InclusionSpec, u_samples: np.ndarray, theta_samples: np.ndarray,
                 nodes: np.ndarray, seed: int,
                 residual_budget: int) -> tuple[np.ndarray, dict[int, float], dict]:
    """Both solution tests, each on one direction sample shared by the nodes.

    Returns the VI residual at every node (``residual_budget`` directions
    drawn from ``seed``), the inclusion membership residual at ``nodes``
    (``_MEMBERSHIP_BUDGET`` directions from ``seed + 1``), and the sample
    sizes: the directions actually tested after the cone projection drops
    the null ones.
    """
    eta, grads = _node_gradients(spec, u_samples, theta_samples)
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


def solve_inclusion(spec: InclusionSpec, tol: float = 1e-10,
                    mode: str = "time_marching", force: bool = False,
                    max_passes: int = 500, audit_trials: int = 256,
                    seed: int = 0) -> InclusionSolution:
    """Drive the coupling map to its fixed point and return the trajectory.

    Both modes run Picard passes of the coupling map over windows of nodes.
    global_picard has one window, the whole grid; time_marching has one
    window per node, started from the memory states committed through the
    node before it.  Causal memories make the two fixed points coincide.

    A pass steps both memories over the window with the current guess,
    which gives theta, then solves the window's node EVIs with that theta
    as one block started from the guess; the solution is the next guess.
    The guess starts at zero in the window at node 0, at ``u_0`` in the
    window at node 1, and at the linear predictor ``2 u_{k-1} - u_{k-2}`` in
    a window at node ``k >= 2``, which is O(dt^2) from ``u_k`` where
    ``u_{k-1}`` is O(dt).  From its second pass on a window stops when
    the largest theta change over its nodes certifies a fixed-point distance
    of at most ``tol`` (a tenth of that for a one-node window), so the
    returned u solves the node EVIs for the returned theta.  Each window
    gets at most ``max_passes`` passes (at least 2).

    With ``force`` the admissibility gate and non-convergence become data:
    the run continues and the returned diagnostics record what happened.

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
    if audit_trials:
        audit = audit_operator(spec.operator, spec.x_space, trials=audit_trials, seed=seed)
        if not audit.ok:
            raise AuditError(f"operator constants failed the sampled audit: {audit}")

    # stop when the pass displacement certifies a fixed-point distance <= tol,
    # but never on a displacement larger than tol itself
    def threshold(ratio: float) -> float:
        r = min(max(ratio, 1e-3), 0.95)
        return min(tol, tol * (1.0 - r) / r)

    evi_tol = 0.05 * tol
    gate_ratio = report.ratio if report.passed else 0.5
    diagnostics: dict = {"mode": mode, "forced": bool(force and not report.passed),
                         "smallness": report.describe()}
    n = spec.grid.steps
    if mode == "global_picard":
        windows, factor = [(0, n)], 1.0
    else:
        windows, factor = [(k, k) for k in range(n + 1)], 0.1
    u = np.zeros((n + 1, spec.x_space.dim))
    theta = np.zeros((n + 1, spec.theta_space.dim))
    iters = np.zeros(n + 1, dtype=int)
    passes = np.zeros(n + 1, dtype=int)
    param, load = spec.parameter_memory, spec.load_memory
    # states committed through the node before the window; each pass steps
    # them over the window, O(1) work per node for the built-in memories
    param_state = param.init_state(spec.grid)
    load_state = load.init_state(spec.grid)
    converged, coupling_passes = True, 0
    for first, last in windows:
        window = slice(first, last + 1)
        if first:
            u[window] = u[0] if first == 1 else 2.0 * u[first - 1] - u[first - 2]
        guess, changes = u[window], []
        for p in range(1, max_passes + 1):
            eta = param.run(param_state, first, guess)[1]
            xi = load.run(load_state, first, guess)[1]
            theta_w = np.concatenate((eta, xi), axis=1)
            start = None if first == 0 and p == 1 else guess
            guess, pass_iters = _solve_nodes(spec, first, eta, xi, evi_tol, start)
            iters[window] += pass_iters
            changes.append(float(spec.theta_space.norms_many(theta_w - theta[window]).max()))
            theta[window] = theta_w
            ratio = changes[-1] / changes[-2] if p > 1 and changes[-2] > 0 else gate_ratio
            # the first pass compares against the zero initial theta, which
            # can match by accident; only trust the change from pass two on
            if p >= 2 and changes[-1] <= factor * threshold(ratio):
                break
        else:
            converged = False
            if not force:
                raise NonConvergenceError(
                    f"coupling map did not settle on nodes {first}..{last} within "
                    f"{max_passes} passes; last change {changes[-1]:.3e}",
                    last_iterate=guess, displacement=changes[-1])
        u[window] = guess
        passes[window] = p
        coupling_passes += p
        if last < n:
            param_state = param.run(param_state, first, u[window])[0]
            load_state = load.run(load_state, first, u[window])[0]
    if mode == "global_picard":             # the one window's record
        diagnostics["sweeps"] = p
        diagnostics["sweep_changes"] = changes
    else:
        diagnostics["inner_iterations"] = passes
    diagnostics["coupling_passes"] = coupling_passes
    u = Trajectory(spec.x_space, spec.grid, u)
    theta = Trajectory(spec.theta_space, spec.grid, theta)

    count = min(_MEMBERSHIP_NODES, spec.grid.steps + 1)
    nodes = np.unique(np.linspace(0, spec.grid.steps, count).round().astype(int))
    residuals, membership, sizes = _node_checks(spec, u.samples, theta.samples, nodes, seed,
                                                _RESIDUAL_BUDGET)
    diagnostics["membership"] = membership
    diagnostics.update(sizes)
    if converged:
        limit = max(1e-6, 100.0 * tol)
        worst = max(membership.values())
        if worst > limit:
            raise AuditError(f"solution failed the inclusion membership check: "
                             f"worst residual {worst:.3e} > {limit:.3e}")

    return InclusionSolution(u=u, theta=theta, per_step_iterations=iters,
                             per_step_residuals=residuals, smallness=report,
                             converged=converged, diagnostics=diagnostics)


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
        The functional ignores its parameter; the parameter memory is
        dropped entirely.
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
        if not functional.alpha + 1.0 < operator.m:
            raise SmallnessError(
                f"state_parameter gate failed: alpha + 1 = {functional.alpha + 1.0:.6g} "
                f">= m = {operator.m:.6g}")
        y_space = functional.y_space
    elif variant == "parameter_free":
        if not functional.eta_free:
            raise ValueError("parameter_free needs a functional that ignores its parameter")
        y_space = functional.y_space
        parameter_memory = parameter_memory or zero_operator(y_space, tag="unused_parameter")
        load_memory = load_memory or zero_operator(x_space)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return InclusionSpec(x_space=x_space, y_space=y_space, cone=cone, operator=operator,
                         functional=functional, parameter_memory=parameter_memory,
                         load_memory=load_memory, f=f, grid=grid)
