"""Single elliptic variational inequality: solver, residuals, audits."""

import numpy as np
import pytest

from sweepvi.core import ConstraintCone, HilbertSpace, HomogeneousFunctional
from sweepvi.evi import (
    AuditError,
    EviProblem,
    LipschitzOperator,
    MonotoneOperator,
    NonConvergenceError,
    NonFiniteError,
    audit_operator,
    iteration_metric,
    solve_evi,
    vi_residual,
)


def scalar_problem(a=2.0, f=3.0, weight=1.0):
    """A u = a u with j(eta, v) = weight * eta * |v|; solution by hand."""
    X = HilbertSpace(1)
    j = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[weight], blocks=[[0]])
    op = MonotoneOperator(lambda x: a * x, a, a, tag="scalar")
    return EviProblem(X, ConstraintCone.whole_space(X), op, j,
                      np.array([1.0]), np.array([f]))


def test_from_matrix_constants_are_generalized_eigenvalues():
    M = np.diag([2.0, 1.0])
    K = np.array([[3.0, 0.4], [0.4, 1.5]])
    X = HilbertSpace(2, metric=M)
    op = MonotoneOperator.from_matrix(X, np.linalg.solve(M, K))
    from scipy.linalg import eigh
    lams = eigh(K, M, eigvals_only=True)
    assert op.m == pytest.approx(lams.min())
    assert op.L == pytest.approx(lams.max())


def test_from_matrix_rejects_non_self_adjoint():
    X = HilbertSpace(2)
    with pytest.raises(ValueError):
        MonotoneOperator.from_matrix(X, np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_operator_constant_validation():
    with pytest.raises(ValueError):
        MonotoneOperator(lambda x: x, 0.0, 1.0)
    with pytest.raises(ValueError):
        MonotoneOperator(lambda x: x, 2.0, 1.0)  # L < m


def test_audit_flags_an_inflated_monotonicity_claim():
    X = HilbertSpace(2)
    honest = MonotoneOperator(lambda x: x, 1.0, 1.0, tag="id")
    assert audit_operator(honest, X, trials=300, seed=0).ok
    liar = MonotoneOperator(lambda x: x, 1.0 + 0.5, 2.0, tag="liar")
    assert not audit_operator(liar, X, trials=300, seed=0).ok


def test_the_audit_checks_l_alone_of_a_lipschitz_operator():
    X = HilbertSpace(2)
    audit = audit_operator(LipschitzOperator(lambda x: -3.0 * x, 3.0, tag="scale"), X,
                           trials=100, seed=1)
    assert audit.m_declared is None and audit.m_observed < 0.0
    assert audit.L_observed == pytest.approx(3.0, rel=1e-9)
    assert audit.ok
    assert not audit_operator(LipschitzOperator(lambda x: -3.0 * x, 2.9), X).ok


def test_a_bare_audit_draws_the_pairs_every_plan_audits():
    X = HilbertSpace(2, np.diag([1.0, 3.0]))
    op = MonotoneOperator(lambda x: 2.0 * x + np.tanh(x), 2.0, 3.0)
    bare = audit_operator(op, X)
    assert bare.trials == 256
    assert bare == iteration_metric(X, ConstraintCone.whole_space(X), op,
                                    HomogeneousFunctional.zero(X)).audit


@pytest.mark.parametrize("apply, error", [
    (lambda u: np.array([[2.0, 1.0], [1.0, 2.0]]) @ u, "apply must take a block of rows"),
    (lambda u: np.array([3.0 * u[1], 3.0 * u[0]]),
     r"apply maps a block of shape \(257, 2\) to one of shape \(2, 2\)"),
], ids=["vector-only matmul", "wrong block shape"])
def test_an_operator_that_cannot_take_a_block_is_refused_by_its_tag(apply, error):
    X = HilbertSpace(2)
    op = MonotoneOperator(apply, 1.0, 3.0, tag="vector-only")
    problem = EviProblem(X, ConstraintCone.whole_space(X), op, HomogeneousFunctional.zero(X),
                         None, np.ones(2))
    with pytest.raises(ValueError, match="vector-only: " + error):
        solve_evi(problem)
    with pytest.raises(ValueError, match="spring: " + error):
        audit_operator(LipschitzOperator(apply, 3.0, tag="spring"), X)


def test_soft_threshold_solution():
    # 2u - 3 + sign(u) = 0 on u > 0  =>  u = 1
    sol = solve_evi(scalar_problem(), tol=1e-12)
    assert sol.u[0] == pytest.approx(1.0, abs=1e-10)


def test_one_step_exact_when_L_equals_m():
    # rho = m / L^2 makes the fixed-point map exact in one application
    sol = solve_evi(scalar_problem(), tol=1e-12)
    assert sol.iterations == 1
    assert sol.contraction_estimate == 0.0


def test_linear_unconstrained_matches_direct_solve():
    M = np.diag([2.0, 1.0, 0.5])
    K = np.array([[4.0, 0.5, 0.0], [0.5, 2.0, 0.3], [0.0, 0.3, 1.0]])
    X = HilbertSpace(3, metric=M)
    op = MonotoneOperator.from_matrix(X, np.linalg.solve(M, K))
    f = np.array([1.0, -2.0, 0.5])
    prob = EviProblem(X, ConstraintCone.whole_space(X), op,
                      HomogeneousFunctional.zero(X), np.zeros(0), f)
    sol = solve_evi(prob, tol=1e-12)
    want = np.linalg.solve(np.linalg.solve(M, K), f)
    assert np.allclose(sol.u, want, atol=1e-10)


def test_constrained_solution_touches_the_cone():
    X = HilbertSpace(1)
    op = MonotoneOperator(lambda x: x, 1.0, 1.0, tag="id")
    prob = EviProblem(X, ConstraintCone.nonpositive(X, [0]), op,
                      HomogeneousFunctional.zero(X), np.zeros(0), np.array([2.0]))
    sol = solve_evi(prob, tol=1e-12)
    assert sol.u[0] == pytest.approx(0.0)  # projection of the free solution 2


def test_two_starts_agree():
    prob = scalar_problem(a=1.0, f=5.0, weight=0.5)
    a = solve_evi(prob, tol=1e-12, start=np.array([40.0]))
    b = solve_evi(prob, tol=1e-12, start=np.array([-17.0]))
    assert abs(a.u[0] - b.u[0]) < 1e-10


def test_vi_residual_accepts_solutions_and_rejects_perturbations():
    prob = scalar_problem()
    sol = solve_evi(prob, tol=1e-12)
    assert vi_residual(sol.u, prob, sampler_budget=4096, seed=0) <= 1e-10
    assert vi_residual(sol.u + 0.1, prob, sampler_budget=4096, seed=0) > 1e-3


def test_vi_residual_is_infinite_outside_the_cone():
    X = HilbertSpace(1)
    op = MonotoneOperator(lambda x: x, 1.0, 1.0, tag="id")
    prob = EviProblem(X, ConstraintCone.nonpositive(X, [0]), op,
                      HomogeneousFunctional.zero(X), np.zeros(0), np.array([0.0]))
    assert vi_residual(np.array([1.0]), prob) == np.inf


def test_contraction_estimate_respects_the_theoretical_rate():
    M = np.eye(2)
    K = np.diag([1.0, 4.0])      # m = 1, L = 4, q = sqrt(1 - 1/16)
    X = HilbertSpace(2, metric=M)
    op = MonotoneOperator.from_matrix(X, K)
    prob = EviProblem(X, ConstraintCone.whole_space(X), op,
                      HomogeneousFunctional.zero(X), np.zeros(0), np.array([1.0, 1.0]))
    sol = solve_evi(prob, tol=1e-12, start=np.array([10.0, -10.0]))
    q = np.sqrt(1 - (op.m / op.L) ** 2)
    assert sol.contraction_estimate <= q + 1e-9


def test_non_convergence_raises_with_partial_state():
    M = np.eye(2)
    K = np.diag([1.0, 100.0])    # q close to 1, needs many iterations
    X = HilbertSpace(2, metric=M)
    op = MonotoneOperator.from_matrix(X, K)
    prob = EviProblem(X, ConstraintCone.whole_space(X), op,
                      HomogeneousFunctional.zero(X), np.zeros(0), np.array([1.0, 1.0]))
    with pytest.raises(NonConvergenceError) as info:
        solve_evi(prob, tol=1e-14, max_iter=3, start=np.array([50.0, 50.0]))
    assert info.value.last_iterate is not None
    assert info.value.displacement > 0


@pytest.mark.parametrize("ratio", [1e-30, 1e-200])
def test_a_factor_that_rounds_to_one_never_stops_on_a_false_bound(ratio):
    # m / L = ratio: q rounds to 1, so 1 - q by subtraction is 0; the plan's
    # gap keeps (m / L)^2 / 2 where that is a double and 0 where it
    # underflows, and neither lets a first step of size ~ratio pass as a
    # distance below tol from a solution 1 / ratio away
    X = HilbertSpace(2)
    op = MonotoneOperator.from_matrix(X, np.diag([ratio, 1.0]))
    prob = EviProblem(X, ConstraintCone.whole_space(X), op, HomogeneousFunctional.zero(X),
                      np.zeros(0), np.array([1.0, 1.0]))
    plan = iteration_metric(X, prob.cone, op, prob.functional)
    assert plan.q == 1.0
    assert plan.gap == pytest.approx(0.5 * (op.m / op.L) ** 2, rel=1e-15, abs=0.0)
    with pytest.raises(NonConvergenceError, match="no convergence in 50 iterations"):
        solve_evi(prob, tol=1e-10, max_iter=50)


def test_the_gap_is_one_minus_the_factor():
    X = HilbertSpace(2)
    for K in (np.diag([1.0, 4.0]), np.diag([1.0, 1e4]), np.diag([3.0, 3.0])):
        op = MonotoneOperator.from_matrix(X, K)
        plan = iteration_metric(X, ConstraintCone.whole_space(X), op, HomogeneousFunctional.zero(X))
        assert plan.gap == pytest.approx(1.0 - plan.q, rel=1e-12)


def stalled_problem():
    """``diag(1e-9, 1) u = (2e-9, 1)``, solved by ``(2, 1)``: from ``(1, 1)`` the step
    ``rho (A u - f) = (-1e-18, 0)`` is below half an ulp of 1 and rounds away."""
    X = HilbertSpace(2)
    op = MonotoneOperator.from_matrix(X, np.diag([1e-9, 1.0]))
    return EviProblem(X, ConstraintCone.whole_space(X), op, HomogeneousFunctional.zero(X),
                      np.zeros(0), np.array([2e-9, 1.0]))


def test_a_step_lost_to_rounding_is_no_stop():
    # the iterate stays at (1, 1), a distance 1 from the solution, so no
    # iteration may claim tol = 1e-10; it repeats at once, so the solve raises
    # at iteration 1 of its 5000, naming the lost step 1e-18 and its bound 2
    prob = stalled_problem()
    plan = iteration_metric(prob.space, prob.cone, prob.operator, prob.functional)
    with pytest.raises(NonConvergenceError) as info:
        solve_evi(prob, tol=1e-10, start=np.array([1.0, 1.0]))
    bound = plan.rho * 1e-9 / plan.gap
    assert str(info.value) == (
        "step lost to rounding at iteration 1: the iterate repeats, and the lost step "
        f"(norm {plan.rho * 1e-9:.3e}) bounds its distance to the solution only by "
        f"{bound:.3e} > tol 1.000e-10")
    assert f"{bound:.3e}" == "2.000e+00"
    np.testing.assert_array_equal(info.value.last_iterate, [1.0, 1.0])


def test_a_lost_step_bounds_the_distance_of_the_row_it_stops():
    # ||step|| / gap = 1e-18 / 5e-19 = 2 bounds the distance 1; a tol above it stops
    prob = stalled_problem()
    plan = iteration_metric(prob.space, prob.cone, prob.operator, prob.functional)
    sol = solve_evi(prob, tol=3.0, start=np.array([1.0, 1.0]))
    assert sol.iterations == 1 and np.array_equal(sol.u, [1.0, 1.0])
    assert sol.residual == pytest.approx(plan.rho * 1e-9 / plan.gap, rel=1e-12)
    assert 1.0 <= sol.residual <= 3.0


def test_the_audit_takes_the_exponent_of_l_out_before_squaring():
    # |A u - A v|^2 ~ 1e322 overflows in a coupled metric, and ~ 1e-398 underflows;
    # scaled by a power of two the audit reads L, and where neither happens it
    # keeps its bits
    X = HilbertSpace(2, metric=np.array([[2.0, -1.0], [-1.0, 1.0]]))
    for a in (1e160, 1e-200):
        audit = audit_operator(MonotoneOperator(lambda x, a=a: a * x, a, a), X)
        assert audit.ok and audit.L_observed == pytest.approx(a, rel=1e-12)
    op = MonotoneOperator(lambda x: 3.7 * x, 3.7, 3.7)
    # the 256 pairs of consecutive points of one chain of 257
    pts = 10.0 * np.random.default_rng(0).standard_normal((257, 2))
    d = pts[:-1] - pts[1:]
    ad = op(pts[:-1]) - op(pts[1:])
    l_obs = np.sqrt(((ad @ X.metric) * ad).sum(1) / ((d @ X.metric) * d).sum(1)).max()
    assert audit_operator(op, X).L_observed == l_obs


def test_a_viscosity_whose_square_underflows_still_gets_a_step():
    # L^2 = 1e-400 is 0 in floating point; m / L / L is the step 1e200
    X = HilbertSpace(1)
    op = MonotoneOperator(lambda x: 1e-200 * x, 1e-200, 1e-200, tag="tiny")
    plan = iteration_metric(X, ConstraintCone.whole_space(X), op, HomogeneousFunctional.zero(X))
    assert plan.rho == 1e200 and plan.q == 0.0


def test_nan_in_the_load_raises_non_finite_at_iteration_one():
    prob = scalar_problem(f=np.nan)
    with pytest.raises(NonFiniteError, match="non-finite step at iteration 1$") as info:
        solve_evi(prob, tol=1e-12, max_iter=5000)
    assert isinstance(info.value, NonConvergenceError)
    assert np.array_equal(info.value.last_iterate, [0.0])


def test_non_finite_error_keeps_its_type_through_the_inclusion():
    from sweepvi.core import TimeGrid, Trajectory
    from sweepvi.inclusion import build_inclusion_variant, solve_inclusion

    X = HilbertSpace(1)
    grid = TimeGrid(1.0, 4)
    f = Trajectory(X, grid, np.where(np.arange(5) == 2, np.nan, 1.0)[:, None])
    spec = build_inclusion_variant("parameter_free", cone=ConstraintCone.whole_space(X),
                                   operator=MonotoneOperator(lambda x: 2.0 * x, 2.0, 2.0),
                                   functional=HomogeneousFunctional.zero(X), f=f, grid=grid)
    for mode in ("time_marching", "global_picard"):
        with pytest.raises(NonFiniteError, match="node 2: non-finite step at iteration 1"):
            solve_inclusion(spec, mode=mode)


def test_lying_constants_trip_the_solver_audit():
    X = HilbertSpace(1)
    op = MonotoneOperator(lambda x: 0.1 * x, 2.0, 2.0, tag="liar")
    prob = EviProblem(X, ConstraintCone.whole_space(X), op,
                      HomogeneousFunctional.zero(X), np.zeros(0), np.array([1.0]))
    with pytest.raises(AuditError):
        solve_evi(prob, tol=1e-10)


def test_problem_shape_validation():
    X = HilbertSpace(2)
    op = MonotoneOperator(lambda x: x, 1.0, 1.0, tag="id")
    from sweepvi.core import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        EviProblem(X, ConstraintCone.whole_space(X), op,
                   HomogeneousFunctional.zero(X), np.zeros(0), np.array([1.0]))
