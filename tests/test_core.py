"""Spaces, trajectories, cones and the homogeneous functionals."""

import warnings

import numpy as np
import pytest

from sweepvi.core import (
    AssumptionWarning,
    ConstraintCone,
    DimensionMismatchError,
    HilbertSpace,
    HomogeneousFunctional,
    MovingSet,
    TimeGrid,
    TimeRangeError,
    Trajectory,
    UnsupportedConfigurationError,
    product_space,
    sample_unit_directions,
)


def test_metric_inner_and_norm():
    X = HilbertSpace(2, metric=np.diag([2.0, 0.5]))
    assert X.inner([1.0, 2.0], [3.0, 4.0]) == pytest.approx(2 * 3 + 0.5 * 8)
    assert X.norm([3.0, 4.0]) == pytest.approx(np.sqrt(2 * 9 + 0.5 * 16))
    assert X.distance([1.0, 0.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2.0))


def test_default_metric_is_euclidean():
    X = HilbertSpace(3)
    v = np.array([1.0, -2.0, 2.0])
    assert X.norm(v) == pytest.approx(3.0)
    assert np.array_equal(X.metric, np.eye(3))


def test_metric_must_be_spd():
    with pytest.raises(ValueError):
        HilbertSpace(2, metric=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        HilbertSpace(2, metric=np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric


def test_solve_metric_inverts_the_gram_matrix():
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    X = HilbertSpace(2, metric=M)
    rhs = np.array([1.0, -1.0])
    assert np.allclose(M @ X.solve_metric(rhs), rhs)


def test_inner_many_matches_loop():
    X = HilbertSpace(3, metric=np.diag([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(0)
    vs = rng.standard_normal((5, 3))
    w = rng.standard_normal(3)
    got = X.inner_many(w, vs)
    want = np.array([X.inner(v, w) for v in vs])
    assert np.allclose(got, want)


def test_norms_many_matches_loop():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5))
    X = HilbertSpace(5, metric=A @ A.T + 5 * np.eye(5))
    vs = rng.standard_normal((40, 5))
    want = [X.norm(v) for v in vs]
    np.testing.assert_allclose(X.norms_many(vs), want, rtol=1e-13)
    assert X.norms_many(np.zeros((3, 5))).tolist() == [0.0, 0.0, 0.0]


def test_product_space_blocks():
    Y = HilbertSpace(1, metric=np.array([[2.0]]))
    X = HilbertSpace(2, metric=np.diag([1.0, 3.0]))
    P = product_space(Y, X)
    assert P.dim == 3
    # product norm: ||theta||^2 = ||eta||_Y^2 + ||xi||_X^2
    assert P.norm([1.0, 1.0, 1.0]) == pytest.approx(np.sqrt(2 + 1 + 3))


def test_time_grid_nodes_and_dt():
    g = TimeGrid(2.0, 4)
    assert g.dt == pytest.approx(0.5)
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_trajectory_copies_and_is_read_only():
    X = HilbertSpace(2)
    g = TimeGrid(1.0, 2)
    raw = np.zeros((3, 2))
    traj = Trajectory(X, g, raw)
    raw[0, 0] = 99.0
    assert traj.samples[0, 0] == 0.0
    with pytest.raises(ValueError):
        traj.samples[0, 0] = 1.0


def test_trajectory_node_and_at():
    X = HilbertSpace(1)
    g = TimeGrid(1.0, 4)
    traj = Trajectory.from_function(X, g, lambda t: np.array([t * t]))
    assert traj.node(2)[0] == pytest.approx(0.25)
    assert traj.at(0.5)[0] == pytest.approx(0.25)
    with pytest.raises(TimeRangeError):
        traj.at(1.5)


def test_trajectory_shape_checks():
    X = HilbertSpace(2)
    g = TimeGrid(1.0, 2)
    with pytest.raises(DimensionMismatchError):
        Trajectory(X, g, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        Trajectory(X, g, np.zeros((4, 2)))


def test_trajectory_sup_distance():
    X = HilbertSpace(1, metric=np.array([[4.0]]))
    g = TimeGrid(1.0, 2)
    a = Trajectory(X, g, np.array([[0.0], [1.0], [0.0]]))
    b = Trajectory.zeros(X, g)
    assert a.sup_distance(b) == pytest.approx(2.0)  # metric weight doubles it
    assert a.sup_norm() == pytest.approx(2.0)


def test_cone_projection_and_violation():
    X = HilbertSpace(3)
    cone = ConstraintCone.nonpositive(X, [0, 2])
    v = np.array([1.0, 5.0, -2.0])
    p = cone.project(v)
    assert np.allclose(p, [0.0, 5.0, -2.0])
    assert cone.violation(v) > 0
    assert cone.violation(p) == 0.0
    assert cone.contains(p)
    assert not cone.contains(v)


def test_cone_kinds_roundtrip():
    X = HilbertSpace(2)
    whole = ConstraintCone.whole_space(X)
    assert whole.contains([5.0, -7.0])
    zero = ConstraintCone.zero(X, [1])
    assert np.allclose(zero.project([3.0, 4.0]), [3.0, 0.0])
    nn = ConstraintCone.nonnegative(X, [0])
    assert np.allclose(nn.project([-1.0, -1.0]), [0.0, -1.0])
    neg = nn.negated()
    assert np.allclose(neg.project([1.0, -1.0]), [0.0, -1.0])


def test_cone_distance_uses_the_metric():
    X = HilbertSpace(2, metric=np.diag([9.0, 1.0]))
    cone = ConstraintCone.nonpositive(X, [0])
    assert cone.distance([2.0, 0.0]) == pytest.approx(6.0)


def test_projection_is_idempotent():
    X = HilbertSpace(4)
    cone = ConstraintCone.nonnegative(X, [0, 3])
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 4)) * 5
    once = cone.project_many(pts)
    assert np.array_equal(once, cone.project_many(once))


def test_sample_unit_directions_stay_feasible_and_unit():
    X = HilbertSpace(3, metric=np.diag([1.0, 2.0, 1.0]))
    cone = ConstraintCone.nonpositive(X, [1])
    dirs = sample_unit_directions(cone, 200, seed=7)
    assert dirs.shape[0] >= 200
    assert np.all(dirs[:, 1] <= 1e-12)
    assert np.allclose(X.norms_many(dirs), 1.0)


def test_positive_part_functional_value():
    X = HilbertSpace(3)
    Y = HilbertSpace(2)
    j = HomogeneousFunctional.positive_part(X, Y, weights=[2.0, 1.0], indices=[0, 2])
    eta = np.array([1.0, 3.0])
    assert j.eval(eta, [1.0, 9.0, -4.0]) == pytest.approx(2.0)   # only v0 > 0
    assert j.eval(eta, [1.0, 0.0, 2.0]) == pytest.approx(2.0 + 6.0)


def test_block_norm_functional_value_and_homogeneity():
    X = HilbertSpace(3)
    Y = HilbertSpace(1)
    j = HomogeneousFunctional.block_norm(X, Y, weights=[2.0], blocks=[[0, 1]])
    eta = np.array([1.5])
    v = np.array([3.0, 4.0, 7.0])
    assert j.eval(eta, v) == pytest.approx(2.0 * 1.5 * 5.0)
    for lam in (0.0, 0.25, 2.0):
        assert j.eval(eta, lam * v) == pytest.approx(lam * j.eval(eta, v))


def test_separable_functional_scales_its_base():
    X = HilbertSpace(2)
    base = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[1.0],
                                            blocks=[[0, 1]], eta_free=True)
    j = HomogeneousFunctional.separable(HilbertSpace(1), p=lambda e: 2.0 + float(e[0]),
                                        p_lipschitz=1.0, base=base)
    assert j.eval(np.array([1.0]), [3.0, 4.0]) == pytest.approx(3.0 * 5.0)
    assert j.alpha == pytest.approx(1.0 * base.v_lipschitz())


def test_rebinding_keeps_values_and_takes_the_new_metric():
    X, P = HilbertSpace(2), HilbertSpace(2, metric=np.diag([4.0, 1.0]))
    cone = ConstraintCone.nonpositive(X, [0])
    moved = cone.in_space(P)
    assert moved.space is P and moved.kind == cone.kind
    np.testing.assert_array_equal(moved.indices, cone.indices)
    # positive_part alpha = w / sqrt(m_Y * m_X) on the coordinate's weight in P
    on_p = HomogeneousFunctional.positive_part(P, HilbertSpace(1), weights=[1.2], indices=[0])
    assert on_p.alpha == pytest.approx(1.2 / np.sqrt(4.0))


def test_alpha_is_the_exact_extraction_constant():
    # alpha = w / sqrt(m_Y * m_X) for a single index with diagonal metrics
    X = HilbertSpace(2, metric=np.diag([4.0, 1.0]))
    Y = HilbertSpace(1, metric=np.array([[0.25]]))
    j = HomogeneousFunctional.positive_part(X, Y, weights=[1.2], indices=[0])
    assert j.alpha == pytest.approx(1.2 / np.sqrt(0.25 * 4.0))

    j2 = HomogeneousFunctional.block_norm(HilbertSpace(3), HilbertSpace(1),
                                          weights=[0.7], blocks=[[0, 2]])
    assert j2.alpha == pytest.approx(0.7)


def test_eta_free_functional_ignores_its_parameter():
    X = HilbertSpace(1)
    j = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[1.0],
                                         blocks=[[0]], eta_free=True)
    assert j.eval(np.array([999.0]), [2.0]) == pytest.approx(2.0)
    assert j.alpha == 0.0


def test_negative_parameter_warns():
    X = HilbertSpace(1)
    j = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0], indices=[0])
    with pytest.warns(AssumptionWarning):
        j.eval(np.array([-1.0]), [1.0])


def soft_threshold(w, tau):
    return np.sign(w) * max(abs(w) - tau, 0.0)


def test_prox_soft_thresholds_a_norm_block():
    X = HilbertSpace(1)
    j = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[1.0], blocks=[[0]])
    cone = ConstraintCone.whole_space(X)
    eta = np.array([2.0])
    for w in (-3.0, -0.5, 0.0, 0.5, 3.0):
        got = j.prox(eta, cone, 0.7, np.array([w]))
        assert got[0] == pytest.approx(soft_threshold(w, 0.7 * 2.0))


def test_prox_positive_part_shrinks_only_upward():
    X = HilbertSpace(1)
    j = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0], indices=[0])
    cone = ConstraintCone.whole_space(X)
    eta = np.array([1.0])
    assert j.prox(eta, cone, 0.5, np.array([2.0]))[0] == pytest.approx(1.5)
    assert j.prox(eta, cone, 0.5, np.array([0.3]))[0] == pytest.approx(0.0)
    assert j.prox(eta, cone, 0.5, np.array([-2.0]))[0] == pytest.approx(-2.0)


def test_prox_solves_its_own_minimization():
    # check the prox against a dense grid of candidates in the objective
    X = HilbertSpace(2, metric=np.diag([2.0, 1.0]))
    j = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[0.8], indices=[1])
    cone = ConstraintCone.nonnegative(X, [0])
    eta = np.array([1.0])
    rho = 0.6
    rng = np.random.default_rng(5)
    t = np.linspace(-4, 4, 161)
    cand = np.stack(np.meshgrid(np.maximum(t, 0.0), t), axis=-1).reshape(-1, 2)
    for _ in range(20):
        w = rng.standard_normal(2) * 2
        got = j.prox(eta, cone, rho, w)
        objective = 0.5 * X.norm(got - w) ** 2 + rho * j.eval(eta, got)
        best = (0.5 * X.norms_many(cand - w) ** 2 + rho * j.eval_many(eta, cand)).min()
        assert objective <= best + 1e-9


def test_prox_rejects_coupled_metrics():
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    X = HilbertSpace(2, metric=M)
    j = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0], indices=[1])
    cone = ConstraintCone.nonnegative(X, [0])
    with pytest.raises(UnsupportedConfigurationError):
        j.prox(np.array([1.0]), cone, 0.5, np.array([1.0, 1.0]))


def test_functional_index_validation():
    X = HilbertSpace(2)
    Y = HilbertSpace(1)
    with pytest.raises(DimensionMismatchError):
        HomogeneousFunctional.positive_part(X, Y, weights=[1.0], indices=[5])
    with pytest.raises(ValueError):
        HomogeneousFunctional.block_norm(X, Y, weights=[1.0], blocks=[[0, 0]])
    with pytest.raises(DimensionMismatchError):
        HomogeneousFunctional.positive_part(X, HilbertSpace(3), weights=[1.0], indices=[0])


def test_moving_set_accepts_solution_and_rejects_perturbation():
    # 1-D by hand: A u = 2u, f = 3, j = |.|; the unique solution is u = 1
    X = HilbertSpace(1)
    j = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[1.0], blocks=[[0]])
    cone = ConstraintCone.whole_space(X)
    moving = MovingSet(j, cone, np.array([1.0]), np.array([3.0]))
    u = np.array([1.0])
    z = 2.0 * u                       # A u with zero memory contribution
    assert moving.membership_residual(z, -u, seed=1) <= 1e-10
    u_bad = np.array([1.4])
    assert moving.membership_residual(2.0 * u_bad, -u_bad, seed=1) > 1e-3
