"""Elliptic variational inequalities solved by metric-projected contraction.

Problem: find ``u`` in a cone ``K`` with

    (A u, v - u)_X + j(eta, v) - j(eta, u) >= (f, v - u)_X   for all v in K,

for a strongly monotone Lipschitz operator ``A``.  The solver iterates the
constrained proximal map of ``rho * j`` applied to ``u - rho (A u - f)``,
which contracts with factor ``sqrt(1 - m^2 / L^2)`` at the step size
``rho = m / L^2``.

The solution does not depend on the inner product the inequality is written
in.  An operator that declares an :class:`EnergyMetric` ``P`` (the energy form
of its linear part) with constants ``(m_P, L_P)`` in the ``P``-norm can be
iterated there instead, with step ``P^{-1} M (A u - f)`` and the prox and
projection taken in ``P``; :func:`iteration_metric` picks whichever metric
contracts faster (see Glowinski, Lions & Tremolieres, *Numerical Analysis of
Variational Inequalities*, 1981, on preconditioned projection methods).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ConstraintCone,
    DimensionMismatchError,
    HilbertSpace,
    HomogeneousFunctional,
    UnsupportedConfigurationError,
    _direction_support,
    _lowest_pairings,
    _norms_from,
    sample_unit_directions,
)

__all__ = [
    "AuditError",
    "NonConvergenceError",
    "NonFiniteError",
    "EnergyMetric",
    "MonotoneOperator",
    "LipschitzOperator",
    "OperatorAudit",
    "EviProblem",
    "EviSolution",
    "EviSolutions",
    "IterationMetric",
    "iteration_metric",
    "audit_operator",
    "solve_evi",
    "solve_evi_many",
    "vi_residual",
    "vi_residuals",
]


_AUDIT_RADIUS = 10.0        # standard deviation of the sampled audit points
_FEASIBILITY_TOL = 1e-9     # cone violation past which a VI residual is +inf
_FLOAT_MAX = float(np.finfo(float).max)
_AUDIT_TRIALS = 256         # pairs of the audit every iteration plan runs
_AUDIT_SEED = 0             # and their seed


class AuditError(RuntimeError):
    """Declared operator constants failed the sampled audit."""


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted before the stopping rule fired.

    ``row`` is the row of a :func:`solve_evi_many` block that failed (named in
    the message when the block has more than one row), ``reason`` the
    message without that name.  When the coupling map did not settle,
    ``coupling_passes`` counts the passes made in all, ``changes`` lists the
    theta change of each pass of the window that did not settle and
    ``displacement`` is the last of them.
    """

    def __init__(self, reason, last_iterate=None, displacement=None, row=None,
                 coupling_passes=None, changes=None):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason = reason
        self.last_iterate = last_iterate
        self.displacement = displacement
        self.row = row
        self.coupling_passes = coupling_passes
        self.changes = changes


class NonFiniteError(NonConvergenceError):
    """An iterate, the step fed to the prox, or the norm of a displacement is no longer finite."""


@dataclass(frozen=True, eq=False)
class EnergyMetric:
    """An SPD metric ``P`` on X in which an operator has exact constants.

    ``space_of()`` builds the space of ``P``, so ``P`` is stated once, by
    its builder (a structured ``P`` with a closed-form inverse, such as
    :meth:`~sweepvi.core.HilbertSpace.clamped`); :attr:`space` calls it on
    first use, and raises its ``ValueError`` for a ``P`` it cannot invert.
    ``force(u)`` is the operator as a covector, ``M A u`` for the space
    metric ``M``, of a vector or of each row of a matrix, so one solve
    with ``P`` gives ``P^{-1} M A u`` without the space's Riesz map.  ``m``
    and ``L`` are the strong monotonicity and Lipschitz constants of
    ``u -> P^{-1} force(u)`` in the ``P``-norm; the plan audits them, which
    also catches a ``force`` that does not belong to the space built.
    """

    space_of: Callable[[], HilbertSpace] = field(repr=False)
    force: Callable[[np.ndarray], np.ndarray]
    m: float
    L: float

    def __post_init__(self):
        if not (self.m > 0.0 and np.isfinite(self.m) and self.L >= self.m):
            raise ValueError("energy-metric constants need 0 < m <= L")

    @cached_property
    def space(self) -> HilbertSpace:
        return self.space_of()


@dataclass(frozen=True)
class MonotoneOperator:
    """Operator on X with declared strong monotonicity ``m`` and Lipschitz ``L``.

    ``apply`` maps a vector to a vector and a block of rows to the block of
    their images, row ``k`` to row ``k``, as
    :meth:`~sweepvi.core.HilbertSpace.apply_metric` does; ``u @ H.T`` is the
    linear map ``H`` in that form.  The constants are declarations;
    :func:`iteration_metric` spot-checks them on sampled pairs
    (:func:`audit_operator`) before any solve trusts them.  ``m > 0`` and
    ``L >= m`` are required.  ``energy``, when given, is a second metric with
    exact constants that :func:`solve_evi` may iterate in.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    m: float
    L: float
    tag: str = "operator"
    energy: EnergyMetric | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (self.m > 0.0 and np.isfinite(self.m)):
            raise ValueError("m must be positive")
        if not (self.L >= self.m):
            raise ValueError("L must be at least m")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    @classmethod
    def from_matrix(cls, space: HilbertSpace, matrix, tag: str = "linear") -> "MonotoneOperator":
        """Linear operator ``u -> H u`` with exact constants in the space norm.

        ``H`` must be self-adjoint w.r.t. the metric (``M H`` symmetric);
        the constants are the extreme generalized eigenvalues of ``(M H, M)``.
        """
        H = np.asarray(matrix, dtype=float)
        if H.shape != (space.dim, space.dim):
            raise DimensionMismatchError("matrix shape does not match space")
        HtM = space.apply_metric(H.T)       # (M H)^T
        if np.abs(HtM - HtM.T).max() > 1e-10 * max(np.abs(HtM).max(), 1e-30):
            raise ValueError("matrix is not self-adjoint in the space metric")
        vals = space.eigvalsh(0.5 * (HtM + HtM.T))
        m, L = float(vals[0]), float(vals[-1])
        if m <= 0:
            raise ValueError("matrix is not positive definite in the space metric")

        def apply(us, Ht=H.T):
            return us @ Ht

        return cls(apply=apply, m=m, L=L, tag=tag)


@dataclass(frozen=True)
class LipschitzOperator:
    """Operator with a declared Lipschitz constant and no monotonicity claim.

    ``apply`` takes a vector or a block of rows, as for
    :class:`MonotoneOperator`, and :func:`audit_operator` checks ``L``.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    L: float
    tag: str = "lipschitz"

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)


@dataclass(frozen=True)
class OperatorAudit:
    """Sampled monotonicity and Lipschitz margins for declared constants.

    ``m_declared`` is ``None`` for a :class:`LipschitzOperator`, which claims
    no monotonicity; ``ok`` then tests ``L`` alone.
    """

    m_declared: float | None
    L_declared: float
    m_observed: float
    L_observed: float
    trials: int

    @property
    def ok(self) -> bool:
        slack = 1e-7 * max(1.0, self.L_declared)
        return ((self.m_declared is None or self.m_observed >= self.m_declared - slack)
                and self.L_observed <= self.L_declared + slack)


def _block(op, us: np.ndarray) -> np.ndarray:
    """``op.apply(us)``, refused by the operator's tag unless it maps the block row by row."""
    try:
        out = op.apply(us)
    except ValueError as exc:
        raise ValueError(f"{op.tag}: apply must take a block of rows ({exc})") from exc
    if np.shape(out) != us.shape:
        raise ValueError(f"{op.tag}: apply maps a block of shape {us.shape} to one of shape "
                         f"{np.shape(out)}; it must take a block of rows")
    return out


def audit_operator(op: MonotoneOperator | LipschitzOperator, space: HilbertSpace,
                   trials: int = _AUDIT_TRIALS, seed: int = _AUDIT_SEED) -> OperatorAudit:
    """Check the declared constants on ``trials`` random pairs of points.

    One chain of ``trials + 1`` points is drawn from ``seed`` with standard
    deviation 10, and its ``trials`` consecutive pairs ``(p_i, p_{i+1})``
    are audited; the whole chain is one block call of ``apply``, which must
    return the block's shape (``ValueError`` naming the operator's tag
    otherwise).  A pair closer than ``1e-10`` in norm is skipped.  A
    :class:`MonotoneOperator` has ``(m, L)`` checked, a
    :class:`LipschitzOperator` ``L`` alone.  The defaults are the pairs every
    iteration plan audits on.
    """
    pts = _AUDIT_RADIUS * np.random.default_rng(seed).standard_normal((trials + 1, space.dim))
    images = _block(op, pts)
    d = pts[:-1] - pts[1:]
    nd2 = (space.apply_metric(d) * d).sum(1)
    keep = nd2 >= 1e-20
    d, nd2 = d[keep], nd2[keep]
    ad = (images[:-1] - images[1:])[keep]
    ad_m = space.apply_metric(ad)
    m_obs = ((ad_m * d).sum(1) / nd2).min(initial=np.inf)
    # |ad|^2 with the binary exponent of L taken out of ad, which is exact, so
    # the squares neither overflow where L is huge nor underflow where it is tiny
    shift = int(np.frexp(op.L)[1])
    ad, ad_m = np.ldexp(ad, -shift), np.ldexp(ad_m, -shift)
    l_obs = np.ldexp(np.sqrt(np.maximum((ad_m * ad).sum(1), 0.0) / nd2).max(initial=0.0), shift)
    m = op.m if isinstance(op, MonotoneOperator) else None
    return OperatorAudit(m, op.L, float(m_obs), float(l_obs), trials)


@dataclass(frozen=True)
class IterationMetric:
    """The inner product :func:`solve_evi` iterates in, with its step there.

    ``name`` is ``"space"`` (the space metric M, step ``u - rho (A u - f)``)
    or ``"energy"`` (the operator's energy metric P, step
    ``u - rho P^{-1} (force(u) - M f)``).  ``space`` is that metric and
    ``cone`` the problem's cone bound to it, so the prox, which reads its
    metric from the cone, runs in it too; ``layout`` is the functional's
    :meth:`~sweepvi.core.HomogeneousFunctional.prox_layout` for that cone
    (``None`` where the closed form does not hold); ``q`` is
    the contraction factor in its norm and ``gap`` is ``1 - q``, computed
    without the cancellation that rounds it to 0 where ``q`` is within
    rounding of 1.  ``scale`` is ``c = sqrt(lambda_max(M, P))``,
    so ``||x||_M <= c ||x||_P`` turns a distance bound back into the space
    norm (1 in the space metric).  ``audit`` is the sampled check of the
    operator's declared ``(m, L)`` in the space metric that the plan passed.
    """

    name: str
    space: HilbertSpace
    cone: ConstraintCone
    layout: tuple | None
    rho: float
    q: float
    gap: float
    audit: OperatorAudit
    scale: float = 1.0
    force: Callable[[np.ndarray], np.ndarray] | None = None


def _rate(rho: float, m: float, L: float) -> tuple[float, float]:
    """Contraction factor ``q`` of the projected step ``rho`` for constants
    ``(m, L)``, and ``1 - q`` as ``(1 - q^2) / (1 + q)``: ``(m / L)^2 / (1 + q)``
    at ``rho = m / L^2``, which stays positive where ``q`` rounds to 1."""
    q = float(np.sqrt(max(1.0 - 2.0 * rho * m + (rho * L) ** 2, 0.0)))
    return q, (2.0 * rho * m - (rho * L) ** 2) / (1.0 + q)


def _audited(operator: MonotoneOperator | LipschitzOperator,
             space: HilbertSpace) -> OperatorAudit:
    """:func:`audit_operator` on the plan's pairs; a failure raises :class:`AuditError`."""
    audit = audit_operator(operator, space, trials=_AUDIT_TRIALS, seed=_AUDIT_SEED)
    if not audit.ok:
        m = "" if audit.m_declared is None else f"m={audit.m_declared:.6g}, "
        m_obs = "" if audit.m_declared is None else f"m={audit.m_observed:.6g}, "
        raise AuditError(
            f"declared ({m}L={audit.L_declared:.6g}) of {operator.tag} failed the sampled "
            f"audit (observed {m_obs}L={audit.L_observed:.6g} over {audit.trials} pairs)")
    return audit


def iteration_metric(space: HilbertSpace, cone: ConstraintCone, operator: MonotoneOperator,
                     functional: HomogeneousFunctional) -> IterationMetric:
    """Audit the operator, then pick the metric the contraction runs in.

    Every solve gets its plan here, so this is where the operator's declared
    ``(m, L)``, on which the step and the stopping bound rest, are checked:
    on ``_AUDIT_TRIALS`` pairs drawn from ``_AUDIT_SEED`` in the space metric
    (:func:`audit_operator`).  A failed audit raises :class:`AuditError`; a
    passed one is kept on the plan.  When the energy plan is picked, its
    step and stopping bound rest on the energy metric's ``(m_P, L_P)``, so
    ``u -> P^{-1} force(u)`` is audited too, on the same pairs in the
    ``P``-norm.

    The operator's energy metric is used only when its contraction factor
    ``sqrt(1 - m_P^2 / L_P^2)`` is below the space metric's
    ``sqrt(1 - m^2 / L^2)`` by more than rounding and the closed-form prox
    accepts it (:meth:`HomogeneousFunctional.prox_layout`).  Otherwise the
    space metric runs with ``rho = m / L^2``.  The cone's copy in P and the
    prox layout of the metric picked are built here, once per call; a prox
    with no closed form in the space metric gets no layout and raises
    :class:`~sweepvi.core.UnsupportedConfigurationError` when applied, so
    residual checks and oracles on such problems still run.
    """
    audit = _audited(operator, space)

    def space_plan() -> IterationMetric:
        rho = operator.m / operator.L / operator.L     # L^2 may underflow
        try:
            layout = functional.prox_layout(cone)
        except UnsupportedConfigurationError:
            layout = None
        return IterationMetric("space", space, cone, layout, rho,
                               *_rate(rho, operator.m, operator.L), audit)

    energy = operator.energy
    # the factors are monotone in m / L; the margin keeps a uniform material,
    # whose two ratios agree up to rounding, on the space metric
    if energy is None or not energy.m / energy.L > (1.0 + 1e-12) * operator.m / operator.L:
        return space_plan()
    try:
        P = energy.space
    except ValueError:              # P too ill-conditioned to invert
        return space_plan()
    cone_p = cone.in_space(P)
    try:
        layout_p = functional.prox_layout(cone_p)
    except UnsupportedConfigurationError:
        return space_plan()

    def in_p(us: np.ndarray) -> np.ndarray:
        return P.solve_metric(energy.force(us))

    _audited(MonotoneOperator(apply=in_p, m=energy.m, L=energy.L,
                              tag=f"{operator.tag} in its energy metric"), P)
    rho_p = energy.m / energy.L / energy.L
    scale = float(np.sqrt(P.metric_eigvalsh(space)[-1]))
    return IterationMetric("energy", P, cone_p, layout_p, rho_p,
                           *_rate(rho_p, energy.m, energy.L), audit, scale, energy.force)


@dataclass(frozen=True)
class EviProblem:
    """One elliptic variational inequality (space, cone, operator, j, data).

    ``metric`` is the :class:`IterationMetric` prepared for this space, cone,
    operator and functional, so families of problems that share them (the
    nodes of an inclusion) audit and decide it once; when absent,
    :func:`solve_evi` does both per call.
    """

    space: HilbertSpace
    cone: ConstraintCone
    operator: MonotoneOperator
    functional: HomogeneousFunctional
    eta: np.ndarray | None
    f: np.ndarray
    metric: IterationMetric | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (self.space.dim,):
            raise DimensionMismatchError("f has the wrong dimension")
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class EviSolution:
    """Converged iterate with iteration count and quality indicators.

    ``residual`` is the final displacement-based error bound on the distance
    to the exact solution; ``contraction_estimate`` is the largest observed
    ratio of successive displacements (0 when fewer than two steps ran).
    """

    u: np.ndarray
    iterations: int
    residual: float
    contraction_estimate: float


class EviSolutions(NamedTuple):
    """The rows of a :func:`solve_evi_many` block: iterates, counts and bounds.

    Row ``k`` holds what :class:`EviSolution` holds for the one-row solve of
    its data: ``u[k]``, ``iterations[k]``, ``residuals[k]`` and
    ``contraction_estimates[k]``.  A named tuple, because one-row solves make
    one per call.
    """

    u: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    contraction_estimates: np.ndarray


def solve_evi(problem: EviProblem, tol: float = 1e-10, max_iter: int = 5000,
              start: np.ndarray | None = None) -> EviSolution:
    """Solve the variational inequality by the contraction iteration.

    The one-row call of :func:`solve_evi_many`.  The iteration runs in the
    problem's prepared ``metric``, or else in the one :func:`iteration_metric`
    audits and picks: the operator's energy metric when that contracts faster
    and the prox accepts it, else the space metric with step ``m / L^2``,
    which minimizes the contraction factor ``q = sqrt(1 - m^2 / L^2)``.

    Parameters
    ----------
    tol : float
        Bound on the space-norm distance between the returned iterate and the
        exact solution, enforced through the a-posteriori contraction estimate
        ``||u+ - u*||_X <= c q / (1 - q) * ||u+ - u||`` in the iteration
        metric (``c = 1`` in the space metric).  ``residual`` reports that
        bound.
    """
    op, space = problem.operator, problem.space
    plan = problem.metric or iteration_metric(space, problem.cone, op, problem.functional)
    eta = None if problem.eta is None else np.asarray(problem.eta, dtype=float)[None, :]
    start = None if start is None else np.asarray(start, dtype=float)[None]
    sols = solve_evi_many(space, problem.cone, op, problem.functional, eta,
                          problem.f[None, :], tol=tol, max_iter=max_iter, starts=start,
                          metric=plan)
    return EviSolution(u=sols.u[0], iterations=int(sols.iterations[0]),
                       residual=float(sols.residuals[0]),
                       contraction_estimate=float(sols.contraction_estimates[0]))


def solve_evi_many(space: HilbertSpace, cone: ConstraintCone, operator: MonotoneOperator,
                   functional: HomogeneousFunctional, etas, fs: np.ndarray,
                   tol: float = 1e-10, max_iter: int = 5000, starts: np.ndarray | None = None,
                   metric: IterationMetric | None = None) -> EviSolutions:
    """Solve one variational inequality per row, all rows in one iteration.

    Row ``k`` is the problem of :func:`solve_evi` with parameter ``etas[k]``
    (``None`` for a functional that ignores it), load ``fs[k]`` and start
    ``starts[k]`` (zero by default).  The rows share the space, cone,
    operator, functional and the iteration ``metric`` (by default the one
    :func:`iteration_metric` audits and picks), so each iteration is one
    block operator application and one block prox.  A row stops on the same threshold as a
    one-row solve and is then left alone, so it gets the iterate, count and
    bound its one-row solve gives, up to the rounding of block products.
    A row whose step rounds away in every coordinate (``u - step == u``)
    stops only where ``c ||step|| / (1 - q)``, the distance that lost step
    bounds, is within ``tol``, and reports that bound; where it is not and
    the iterate repeats bit for bit, every later iteration would repeat it,
    so :class:`NonConvergenceError` is raised at once, naming the lost step
    and its bound.

    A non-finite step or iterate, or a finite iterate whose displacement
    norm overflows, raises :class:`NonFiniteError` and a row
    still moving after ``max_iter`` iterations :class:`NonConvergenceError`;
    either names the first row concerned (``row`` on the error) when the
    block has more than one.  That test of each step is the one finiteness
    check of the iteration: the Riesz maps inside the step and the prox do
    not repeat it, so a load that overflows in the metric is reported as a
    non-finite step.  ``etas`` has one row, shared by all rows, or one per
    row (:class:`~sweepvi.core.DimensionMismatchError` otherwise), and a
    block of no rows returns empty arrays at once.
    """
    plan = metric or iteration_metric(space, cone, operator, functional)
    rho, q, gap, scale = plan.rho, plan.q, plan.gap, plan.scale
    # displacement threshold equivalent to a distance-to-solution of tol; it
    # is finite, so a row whose displacement is not finite never stops, and
    # negative where gap underflows, so no row stops on a bound it cannot state
    if q == 0.0:
        threshold = _FLOAT_MAX
    elif gap > 0.0:
        threshold = min(tol * gap / (q * scale), _FLOAT_MAX)
    else:
        threshold = -1.0
    fs = np.asarray(fs, dtype=float)
    rows = len(fs)
    if fs.shape != (rows, space.dim):
        raise DimensionMismatchError("loads have the wrong dimension")
    us = np.zeros((rows, space.dim)) if starts is None else np.asarray(starts, dtype=float)
    if us.shape != fs.shape:
        raise DimensionMismatchError("start vector has the wrong dimension")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    # one row of thresholds, or one per row
    taus = functional.prox_thresholds(etas, rho)
    if len(taus) != 1 and len(taus) != rows:
        raise DimensionMismatchError(f"expected 1 or {rows} parameter rows, got {len(taus)}")
    if not rows:
        return EviSolutions(us, np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))
    # the gradient is A u - f in the space metric and P^{-1} (force(u) - M f)
    # in the energy metric, where data holds M f
    force, riesz = plan.force, plan.space._riesz
    data = fs if force is None else space.apply_metric(fs)
    prox, prox_cone, layout = functional.prox_many, plan.cone, plan.layout
    norms = plan.space.norms_many
    contraction = disp = None
    # rows leave the block as they stop: index maps the block's rows to the
    # caller's (None while no row has left), and stopped collects
    # (rows, u, iteration, bound, contraction)
    index = None
    stopped = []

    def fail(cls, reason, bad, last_iterate, displacement):
        r = int(np.flatnonzero(bad)[0])
        row = r if index is None else int(index[r])
        return cls(reason, last_iterate=last_iterate[r],
                   displacement=None if displacement is None else displacement[r],
                   row=row if rows > 1 else None)

    for it in range(1, max_iter + 1):
        if force is None:
            step = rho * (operator.apply(us) - data)
        else:
            step = rho * riesz(force(us) - data)
        w = us - step
        finite = np.isfinite(w)
        if np.count_nonzero(finite) < finite.size:
            raise fail(NonFiniteError, f"non-finite step at iteration {it}",
                       ~finite.all(axis=1), us, disp)
        u_next = prox(taus, prox_cone, w, layout)
        prev, disp = disp, norms(u_next - us)
        done = disp <= threshold
        count = np.count_nonzero(done)
        # us is finite here, so a non-finite u_next gives a non-finite disp;
        # a finite u_next gives one only where the norm overflows
        if count < len(done) and not np.isfinite(disp).all():
            bad = ~np.isfinite(disp)
            reason = (f"displacement norm overflowed at iteration {it} (the iterate is finite)"
                      if np.isfinite(u_next[np.flatnonzero(bad)[0]]).all()
                      else f"non-finite iterate at iteration {it}")
            raise fail(NonFiniteError, reason, bad, u_next, disp)
        lost_bound = None
        if count and q > 0.0:
            # a stopping row whose step rounded away in every coordinate (w == u)
            # measured no move: the step it lost bounds its distance to the
            # solution, scale ||step|| / gap, and it stops only within tol
            lost = done & ~(w != us).any(axis=1)
            if lost.any():
                step_norms = norms(step)
                lost_bound = np.where(lost, scale * step_norms / gap, 0.0)
                held = lost & ~(lost_bound <= tol)
                # a held row whose iterate repeats bit for bit is at a fixed
                # point of the computed map: every later iteration repeats it
                stuck = held & (u_next == us).all(axis=1)
                if stuck.any():
                    r = int(np.flatnonzero(stuck)[0])
                    raise fail(NonConvergenceError,
                               f"step lost to rounding at iteration {it}: the iterate repeats, "
                               f"and the lost step (norm {step_norms[r]:.3e}) bounds its "
                               f"distance to the solution only by {lost_bound[r]:.3e} > tol "
                               f"{tol:.3e}", stuck, us, disp)
                done &= ~held
                count = np.count_nonzero(done)
        us = u_next
        if prev is None:
            contraction = np.zeros(len(disp))
        else:
            seen = prev > 1e-300
            contraction = np.where(seen, np.maximum(contraction, disp / np.where(seen, prev, 1.0)),
                                   contraction)
        if not count:
            continue
        bound = scale * disp * q / gap if q > 0.0 else np.zeros(len(disp))
        if lost_bound is not None:
            bound = np.maximum(bound, lost_bound)
        if count == len(done):
            stopped.append((index, us, it, bound, contraction))
            break
        if index is None:
            index = np.arange(rows)
        stopped.append((index[done], us[done], it, bound[done], contraction[done]))
        keep = ~done
        us, data, index, contraction, disp = (us[keep], data[keep], index[keep],
                                              contraction[keep], disp[keep])
        if len(taus) > 1:
            taus = taus[keep]
    else:
        raise fail(NonConvergenceError,
                   f"no convergence in {max_iter} iterations (last displacement {disp[0]:.3e})",
                   np.ones(len(us), dtype=bool), us, disp)
    if len(stopped) == 1:           # every row stopped at the same iteration
        iterations = np.empty(rows, dtype=int)
        iterations.fill(it)
        return EviSolutions(us, iterations, bound, contraction)
    out = EviSolutions(np.empty((rows, space.dim)), np.empty(rows, dtype=int), np.empty(rows),
                       np.empty(rows))
    for rows_k, u_k, it_k, bound_k, contraction_k in stopped:
        out.u[rows_k] = u_k
        out.iterations[rows_k] = it_k
        out.residuals[rows_k] = bound_k
        out.contraction_estimates[rows_k] = contraction_k
    return out


def vi_residuals(space: HilbertSpace, cone: ConstraintCone, functional: HomogeneousFunctional,
                 us: np.ndarray, gs: np.ndarray, etas, dirs: np.ndarray | None = None,
                 extra_points: np.ndarray | None = None,
                 distances: np.ndarray | None = None) -> np.ndarray:
    """Largest violation of the variational inequality at every node.

    Node ``k`` has the point ``u_k``, the gradient ``g_k = A u_k - f_k`` and
    the parameter ``etas[k]`` (``None`` for a functional that ignores it).
    Its residual is ``-min`` over candidates ``v`` in the cone of
    ``(g_k, v - u_k) + j(eta_k, v) - j(eta_k, u_k)``.  The candidates are the
    unit directions of the cone, the same directions at the radius
    ``2 (||u_k|| + 1)`` past which far-from-origin violations show (cones
    are closed under positive scaling), the origin, ``u_k`` itself and
    ``extra_points``, so the value is nonnegative and a solution stays at
    solver-tolerance size.  An infeasible ``u_k`` gets ``+inf``.

    Since ``j`` is positively homogeneous, the directions enter through
    ``low``, the least ``(g_k, v) + j(eta_k, v)`` over unit ``v`` in the
    cone, as ``min(low, radius * low)``.  Only a negative ``low`` changes the
    value, and there ``-low`` is the exact direction term
    (:func:`~sweepvi.certificate.direction_terms`; ``distances`` when the caller
    has it), so ``low = -distance`` gives the residual over every direction.
    With ``dirs`` the directions are those rows instead (shared by all
    nodes), and the value is a lower bound: the lifted product
    ``[G M | C] [D | Phi(D)]^T``; see
    :meth:`~sweepvi.core.HomogeneousFunctional.unit_values`.
    """
    us = np.asarray(us, dtype=float)
    gs = np.asarray(gs, dtype=float)
    weights = functional.unit_weights(etas)
    weights = np.broadcast_to(weights, (len(us), weights.shape[1]))
    # the value at the origin: -(g_k, u_k) - j(eta_k, u_k)
    mus = space.apply_metric(us)
    base = -((mus * gs).sum(1) + (functional.unit_values(us) * weights).sum(1))
    far = 2.0 * (_norms_from(mus, us) + 1.0)
    low = -_direction_support(functional, cone, dirs, distances, gs, etas, weights)
    # u_k itself scores exactly 0
    vals = np.minimum(np.minimum(low, far * low) + base, np.minimum(base, 0.0))
    if extra_points is not None and len(extra_points):
        extra = np.asarray(extra_points, dtype=float)
        vals = np.minimum(vals, _lowest_pairings(space, functional, extra, gs, weights) + base)
    out = 0.0 - vals            # not -vals: an exact 0 stays +0, not -0
    out[cone.violations(us) > _FEASIBILITY_TOL] = np.inf
    return out


def vi_residual(u: np.ndarray, problem: EviProblem, sampler_budget: int = 4096,
                seed: int = 0, extra_points: np.ndarray | None = None) -> float:
    """Largest sampled violation of the variational inequality at ``u``.

    The one-node case of :func:`vi_residuals`, on ``sampler_budget`` cone
    directions drawn from ``seed``; nonnegative, and ``+inf`` for an
    infeasible ``u``.
    """
    u = np.asarray(u, dtype=float)
    g = problem.operator(u) - problem.f
    dirs = sample_unit_directions(problem.cone, sampler_budget, seed)
    eta = None if problem.eta is None else np.asarray(problem.eta, dtype=float)[None, :]
    return float(vi_residuals(problem.space, problem.cone, problem.functional, u[None, :],
                              g[None, :], eta, dirs, extra_points)[0])
