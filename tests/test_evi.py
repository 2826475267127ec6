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
    audit_lipschitz,
    audit_operator,
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


def test_audit_lipschitz_measures_the_worst_quotient():
    X = HilbertSpace(2)
    op = LipschitzOperator(lambda x: 3.0 * x, 3.0, tag="scale")
    worst = audit_lipschitz(op, X, trials=100, seed=1)
    assert worst == pytest.approx(3.0, rel=1e-9)


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
