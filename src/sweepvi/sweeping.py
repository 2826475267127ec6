"""Velocity-constrained sweeping processes reduced to normal-cone inclusions.

The problem: find ``u`` with ``u(0) = u0`` whose velocity ``v = du/dt`` obeys

    -v(t) in N_{C(R v(t), t)}(A v(t) + B u(t) + S v(t)),   v(t) in K.

Substituting ``u(t) = int_0^t v + u0`` turns this into a plain inclusion for
the velocity with the composite load memory ``v -> B(int v + u0) + S v``,
whose constants are ``(l_S, L_B + L_S)``.  Everything downstream (smallness
gate, Picard modes, residuals) is inherited from the inclusion solver; the
displacement is recovered by the lift's own memory: :func:`integrate_velocity`
is the whole-trajectory call of :func:`antiderivative_memory`, so the two
cannot drift apart.  The result is the inclusion's own
:class:`~sweepvi.inclusion.InclusionSolution`, with the displacement in
``u`` and the velocity in ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .core import DimensionMismatchError, HilbertSpace, TimeGrid, Trajectory, _vec, sample_unit_directions
from .evi import (LipschitzOperator, NonConvergenceError, OperatorAudit, _audited, solve_evi,
                  vi_residuals)
from .histop import HistoryOperator, IneligibleOperatorError, continue_trapezoid
from .inclusion import (
    InclusionSolution,
    InclusionSpec,
    SmallnessError,
    _RESIDUAL_BUDGET,
    _node_gradients,
    _node_problem,
    _theta_changes,
    check_smallness,
    solve_inclusion,
)

__all__ = [
    "SweepingSpec",
    "integrate_velocity",
    "antiderivative_memory",
    "compose_with_antiderivative",
    "lift_to_velocity",
    "solve_sweeping",
    "solve_sweeping_direct",
    "solve_spec",
    "build_sweeping_variant",
]

_DIRECT_PASSES = 500        # inner passes per node of the direct marching
_DIRECT_SEED = 0            # seed of its VI-residual directions


def integrate_velocity(v: Trajectory, u0) -> Trajectory:
    """Trapezoid antiderivative of ``v`` started at ``u0``; exact at node 0.

    The whole-trajectory call of :func:`antiderivative_memory` on ``v``'s grid.
    """
    return antiderivative_memory(v.grid, v.space, u0)(v)


@dataclass(frozen=True)
class SweepingSpec:
    """A velocity inclusion plus the displacement coupling ``B`` and ``u0``.

    ``core`` is stated in the velocity variable: its memories consume
    velocity trajectories.  ``b_op`` acts on the reconstructed displacement,
    or is ``None`` when nothing couples the velocity to it.  A ``B`` has its
    declared Lipschitz constant audited when the spec is built, by the audit
    every iteration plan runs (a failure raises
    :class:`~sweepvi.evi.AuditError`); ``b_audit`` is that passed audit,
    ``None`` exactly when ``b_op`` is.  ``u0`` must be finite, one value per
    dof.  ``inclusion`` is the velocity inclusion :func:`lift_to_velocity`
    builds, once per spec.
    """

    core: InclusionSpec
    b_op: LipschitzOperator | None
    u0: np.ndarray
    b_audit: OperatorAudit | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u0 = _vec(self.u0, self.core.x_space.dim)
        if not np.isfinite(u0).all():
            raise ValueError("u0 must be finite")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "b_audit", None if self.b_op is None
                           else _audited(self.b_op, self.core.x_space))

    @cached_property
    def inclusion(self) -> InclusionSpec:
        return lift_to_velocity(self)


def antiderivative_memory(grid: TimeGrid, space: HilbertSpace, u0,
                          tag: str = "displacement") -> HistoryOperator:
    """Memory producing the reconstructed displacement from a velocity.

    Purely integral, so the instantaneous constant is 0 and the integral
    constant is 1 (the trapezoid sum is dominated by the integral of the
    pointwise norm).  A running trapezoid sum, O(1) per node;
    :func:`integrate_velocity` is its whole-trajectory call.
    """
    u0 = _vec(u0, space.dim)
    dt = grid.dt

    def advance(state, first, inputs):
        acc, prev = state
        accs = continue_trapezoid(acc, prev, first, inputs, dt)
        out = accs + u0
        if first == 0:
            out[0] = u0
        return (accs[-1], inputs[-1]), out

    return HistoryOperator((0.0, None), advance, l=0.0, L=1.0, tag=tag, out_space=space,
                           grid=grid)


def compose_with_antiderivative(s_op: HistoryOperator, grid: TimeGrid,
                                space: HilbertSpace, u0,
                                tag: str | None = None) -> HistoryOperator:
    """Turn a displacement memory into a velocity memory via the lift.

    ``v -> S(int v + u0)``.  The instantaneous part of ``S`` only sees the
    integrated argument, so the composite has l = 0 and integral constant
    ``l_S + T L_S``.
    """
    disp = antiderivative_memory(grid, space, u0)

    def advance(state, first, inputs):
        disp_state, s_state = state
        disp_state, disps = disp.run(disp_state, first, inputs)
        s_state, out = s_op.run(s_state, first, disps)
        return (disp_state, s_state), out

    start = (disp.init_state(grid), s_op.init_state(grid))
    return HistoryOperator(start, advance, l=0.0, L=s_op.l + grid.horizon * s_op.L,
                           tag=tag or f"{s_op.tag}_of_displacement",
                           out_space=s_op.out_space, grid=grid)


def lift_to_velocity(spec: SweepingSpec) -> InclusionSpec:
    """Fold ``B u`` into the load memory of the velocity inclusion.

    The composite ``v -> B(int v + u0) + S v`` keeps the instantaneous
    constant of ``S`` and gains ``L_B`` on the integral constant.  A spec
    with no ``B`` lifts to ``S`` itself: no displacement is integrated.
    """
    core = spec.core
    s_op, b_op = core.load_memory, spec.b_op
    space, grid = core.x_space, core.grid
    if b_op is None:
        def advance(state, first, inputs):
            # + 0.0 is the sum below with B u = +0: a new array, -0.0 made +0.0
            state, s_out = s_op.run(state, first, inputs)
            return state, s_out + 0.0

        start = s_op.init_state(grid)
    else:
        disp = antiderivative_memory(grid, space, spec.u0)

        def advance(state, first, inputs):
            disp_state, s_state = state
            disp_state, disps = disp.run(disp_state, first, inputs)
            s_state, s_out = s_op.run(s_state, first, inputs)
            # b_op row by row: a block product is a different BLAS call
            return (disp_state, s_state), np.array([b_op(d) for d in disps]) + s_out

        start = (disp.init_state(grid), s_op.init_state(grid))
    lifted = HistoryOperator(start, advance, l=s_op.l,
                             L=s_op.L if b_op is None else b_op.L + s_op.L,
                             tag=f"{s_op.tag}+coupled", out_space=space, grid=grid)
    return replace(core, load_memory=lifted)


def solve_sweeping(spec: SweepingSpec, tol: float = 1e-10,
                   mode: str = "time_marching", **kwargs) -> InclusionSolution:
    """Solve the lifted velocity inclusion, then integrate the velocity."""
    sol = solve_inclusion(spec.inclusion, tol=tol, mode=mode, **kwargs)
    return replace(sol, u=integrate_velocity(sol.u, spec.u0), v=sol.u)


def solve_spec(spec: InclusionSpec | SweepingSpec, tol: float = 1e-10,
               mode: str = "time_marching", **kwargs) -> InclusionSolution:
    """Solve either problem family; the one place that tells them apart.

    A sweeping process goes through :func:`solve_sweeping`, which integrates
    the velocity; an inclusion is solved as it is.
    """
    if isinstance(spec, SweepingSpec):
        return solve_sweeping(spec, tol=tol, mode=mode, **kwargs)
    return solve_inclusion(spec, tol=tol, mode=mode, **kwargs)


def solve_sweeping_direct(spec: SweepingSpec, tol: float = 1e-10) -> InclusionSolution:
    """March the original sweeping statement without building the lift.

    Independent code path used as a cross-check on :func:`solve_sweeping`:
    at node k the displacement is accumulated from the already-settled
    velocities plus the current guess, and the per-node EVI is iterated with
    ``B`` of that displacement in the load (a spec without ``B`` skips both).
    """
    core = spec.core
    report = check_smallness(spec.inclusion)
    if not report.passed:
        raise SmallnessError(f"admissibility gate failed: {report.describe()}")
    grid, X = core.grid, core.x_space
    n, dt = grid.steps, grid.dt
    v, xi = np.zeros((n + 1, X.dim)), np.zeros((n + 1, X.dim))
    eta = np.zeros((n + 1, core.y_space.dim))
    iters = np.zeros(n + 1, dtype=int)
    for k in range(n + 1):
        if k > 0:
            v[k] = v[k - 1]
        for inner in range(1, _DIRECT_PASSES + 1):
            v_traj = Trajectory(X, grid, v)
            eta_k = core.parameter_memory.at_node(v_traj, k)
            xi_k = core.load_memory.at_node(v_traj, k)
            if spec.b_op is not None:
                disp_k = spec.u0 if k == 0 else spec.u0 + np.trapezoid(v[:k + 1], dx=dt, axis=0)
                xi_k = spec.b_op(disp_k) + xi_k
            problem = _node_problem(core, eta_k, xi_k, core.f.node(k))
            sol = solve_evi(problem, tol=0.05 * tol, start=v[k])
            iters[k] += sol.iterations
            change = _theta_changes(core, (eta_k - eta[k])[None], (xi_k - xi[k])[None])[0]
            eta[k], xi[k] = eta_k, xi_k
            v[k] = sol.u
            if inner >= 2 and change <= 0.05 * tol:
                break
        else:
            raise NonConvergenceError(f"direct marching stalled at node {k}",
                                      last_iterate=v[k])
    v_traj = Trajectory(X, grid, v)
    residuals = vi_residuals(X, core.cone, core.functional, v, _node_gradients(core, v, xi), eta,
                             sample_unit_directions(core.cone, _RESIDUAL_BUDGET, _DIRECT_SEED))
    return InclusionSolution(u=integrate_velocity(v_traj, spec.u0), v=v_traj,
                             eta=Trajectory(core.y_space, grid, eta),
                             xi=Trajectory(X, grid, xi), per_step_iterations=iters,
                             per_step_residuals=residuals, smallness=report,
                             converged=True,
                             diagnostics={"mode": "direct_marching",
                                          "smallness": report.describe()})


def build_sweeping_variant(variant: str, *, core: InclusionSpec,
                           b_op: LipschitzOperator | None, u0,
                           displacement_memory: HistoryOperator | None = None) -> SweepingSpec:
    """Assemble the canonical sweeping couplings; ``b_op`` is ``None`` for none.

    memory_pair
        Both velocity memories strictly history-dependent, else
        :class:`~sweepvi.histop.IneligibleOperatorError`; the gate passes
        for free after the lift.
    displacement_parameter
        The moving set's parameter is the reconstructed displacement itself
        (parameter memory = antiderivative), requiring Y = X.
    displacement_load
        The load memory acts on the displacement; it is composed with the
        antiderivative so the core becomes a pure velocity problem.
    """
    u0 = _vec(u0, core.x_space.dim)
    if variant == "memory_pair":
        if core.parameter_memory.l != 0.0 or core.load_memory.l != 0.0:
            raise IneligibleOperatorError("memory_pair requires l = 0 velocity memories")
        out = core
    elif variant == "displacement_parameter":
        if core.y_space.dim != core.x_space.dim:
            raise DimensionMismatchError("displacement parameter needs Y = X")
        out = replace(core, parameter_memory=antiderivative_memory(
            core.grid, core.x_space, u0))
    elif variant == "displacement_load":
        if displacement_memory is None:
            raise ValueError("displacement_load needs the displacement memory")
        out = replace(core, load_memory=compose_with_antiderivative(
            displacement_memory, core.grid, core.x_space, u0))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return SweepingSpec(core=out, b_op=b_op, u0=u0)
