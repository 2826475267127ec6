"""Velocity-constrained sweeping processes reduced to normal-cone inclusions.

The problem: find ``u`` with ``u(0) = u0`` whose velocity ``v = du/dt`` obeys

    -v(t) in N_{C(R v(t), t)}(A v(t) + B u(t) + S v(t)),   v(t) in K.

Substituting ``u(t) = int_0^t v + u0`` turns this into a plain inclusion for
the velocity with the composite load memory ``v -> B(int v + u0) + S v``,
whose constants are ``(l_S, L_B + L_S)``.  Everything downstream (smallness
gate, Picard modes, residuals) is inherited from the inclusion solver; the
displacement is recovered with the same trapezoid rule the lift uses, so the
two stay numerically consistent.  The result is the inclusion's own
:class:`~sweepvi.inclusion.InclusionSolution`, with the displacement in
``u`` and the velocity in ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import DimensionMismatchError, HilbertSpace, TimeGrid, Trajectory, _vec, sample_unit_directions
from .evi import AuditError, LipschitzOperator, NonConvergenceError, audit_lipschitz, solve_evi, vi_residuals
from .histop import HistoryOperator, running_trapezoid
from .inclusion import (
    InclusionSolution,
    InclusionSpec,
    SmallnessError,
    _RESIDUAL_BUDGET,
    _node_gradients,
    _node_problem,
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
    """Trapezoid antiderivative of ``v`` started at ``u0``; exact at node 0."""
    u0 = _vec(u0, v.space.dim)
    out = running_trapezoid(v.samples, v.grid.dt) + u0
    out[0] = u0
    return Trajectory(v.space, v.grid, out)


@dataclass(frozen=True)
class SweepingSpec:
    """A velocity inclusion plus the displacement coupling ``B`` and ``u0``.

    ``core`` is stated in the velocity variable: its memories consume
    velocity trajectories.  ``b_op`` acts on the reconstructed displacement.
    ``inclusion`` is the velocity inclusion :func:`lift_to_velocity` builds,
    once per spec.
    """

    core: InclusionSpec
    b_op: LipschitzOperator
    u0: np.ndarray
    audit_trials: int = 200

    def __post_init__(self):
        object.__setattr__(self, "u0", _vec(self.u0, self.core.x_space.dim))
        if self.audit_trials:
            worst = audit_lipschitz(self.b_op, self.core.x_space, trials=self.audit_trials)
            if worst > self.b_op.L + 1e-7 * max(1.0, self.b_op.L):
                raise AuditError(
                    f"displacement coupling exceeded its declared Lipschitz constant: "
                    f"observed {worst:.6g} > declared {self.b_op.L:.6g}")

    @cached_property
    def inclusion(self) -> InclusionSpec:
        return lift_to_velocity(self)


def antiderivative_memory(grid: TimeGrid, space: HilbertSpace, u0,
                          tag: str = "displacement") -> HistoryOperator:
    """Memory producing the reconstructed displacement from a velocity.

    Purely integral, so the instantaneous constant is 0 and the integral
    constant is 1 (the trapezoid sum is dominated by the integral of the
    pointwise norm).  A running trapezoid sum: O(1) per node, and the same
    sum :func:`integrate_velocity` computes.
    """
    u0 = _vec(u0, space.dim)
    dt = grid.dt

    def advance(state, k, v_k):
        if k == 0:
            return (0.0, v_k), u0.copy()
        acc, prev = state
        acc = acc + dt * (prev + v_k) / 2.0
        return (acc, v_k), acc + u0

    return HistoryOperator(None, advance, l=0.0, L=1.0, tag=tag, out_space=space,
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

    def advance(state, k, v_k):
        disp_state, s_state = state
        disp_state, disp_k = disp.step(disp_state, k, v_k)
        s_state, out = s_op.step(s_state, k, disp_k)
        return (disp_state, s_state), out

    start = (disp.init_state(grid), s_op.init_state(grid))
    return HistoryOperator(start, advance, l=0.0, L=s_op.l + grid.horizon * s_op.L,
                           tag=tag or f"{s_op.tag}_of_displacement",
                           out_space=s_op.out_space, grid=grid)


def lift_to_velocity(spec: SweepingSpec) -> InclusionSpec:
    """Fold ``B u`` into the load memory of the velocity inclusion.

    The composite ``v -> B(int v + u0) + S v`` keeps the instantaneous
    constant of ``S`` and gains ``L_B`` on the integral constant.
    """
    core = spec.core
    s_op, b_op = core.load_memory, spec.b_op
    space, grid = core.x_space, core.grid
    disp = antiderivative_memory(grid, space, spec.u0)

    def advance(state, k, v_k):
        disp_state, s_state = state
        disp_state, disp_k = disp.step(disp_state, k, v_k)
        s_state, s_k = s_op.step(s_state, k, v_k)
        return (disp_state, s_state), b_op(disp_k) + s_k

    start = (disp.init_state(grid), s_op.init_state(grid))
    lifted = HistoryOperator(start, advance, l=s_op.l, L=b_op.L + s_op.L,
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
    that displacement in the load.
    """
    core = spec.core
    report = check_smallness(spec.inclusion)
    if not report.passed:
        raise SmallnessError(f"admissibility gate failed: {report.describe()}")
    grid, X = core.grid, core.x_space
    n, dt = grid.steps, grid.dt
    v = np.zeros((n + 1, X.dim))
    theta = np.zeros((n + 1, core.theta_space.dim))
    iters = np.zeros(n + 1, dtype=int)
    for k in range(n + 1):
        if k > 0:
            v[k] = v[k - 1]
        prev = None
        for inner in range(1, _DIRECT_PASSES + 1):
            v_traj = Trajectory(X, grid, v)
            disp_k = spec.u0 if k == 0 else spec.u0 + np.trapezoid(v[:k + 1], dx=dt, axis=0)
            eta_k = core.parameter_memory.at_node(v_traj, k)
            xi_k = spec.b_op(disp_k) + core.load_memory.at_node(v_traj, k)
            problem = _node_problem(core, eta_k, xi_k, core.f.node(k))
            sol = solve_evi(problem, tol=0.05 * tol, start=v[k], audit_trials=0)
            iters[k] += sol.iterations
            change = core.theta_space.distance(theta[k], np.concatenate([eta_k, xi_k]))
            theta[k] = np.concatenate([eta_k, xi_k])
            v[k] = sol.u
            if inner >= 2 and change <= 0.05 * tol:
                break
        else:
            raise NonConvergenceError(f"direct marching stalled at node {k}",
                                      last_iterate=v[k])
    v_traj = Trajectory(X, grid, v)
    theta_traj = Trajectory(core.theta_space, grid, theta)
    eta, grads = _node_gradients(core, v, theta)
    residuals = vi_residuals(X, core.cone, core.functional, v, grads, eta,
                             sample_unit_directions(core.cone, _RESIDUAL_BUDGET, _DIRECT_SEED))
    return InclusionSolution(u=integrate_velocity(v_traj, spec.u0), v=v_traj,
                             theta=theta_traj, per_step_iterations=iters,
                             per_step_residuals=residuals, smallness=report,
                             converged=True,
                             diagnostics={"mode": "direct_marching",
                                          "smallness": report.describe()})


def build_sweeping_variant(variant: str, *, core: InclusionSpec,
                           b_op: LipschitzOperator, u0,
                           displacement_memory: HistoryOperator | None = None) -> SweepingSpec:
    """Assemble the canonical sweeping couplings.

    memory_pair
        Both velocity memories strictly history-dependent; the gate passes
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
            raise SmallnessError("memory_pair requires l = 0 velocity memories")
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
