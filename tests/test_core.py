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
    _row_sums,
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


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_pencil_eigenvalues_match_scipy_eigh(dim):
    from scipy.linalg import eigh
    rng = np.random.default_rng(dim)
    for _ in range(5):
        a, b = rng.standard_normal((2, dim, dim))
        M, A = b @ b.T + 0.5 * np.eye(dim), a + a.T
        want = eigh(A, M, eigvals_only=True)
        got = HilbertSpace(dim, metric=M).eigvalsh(A)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_inverse_metric_is_not_public():
    assert not hasattr(HilbertSpace(2), "inv_metric")


def _byte_spaces():
    from sweepvi import Mesh1D, assemble_space
    # the 48-dof stiffness metric, on which products of rows and of columns round apart
    yield assemble_space(Mesh1D.uniform(1.0, 48))
    yield HilbertSpace(48, metric=np.diag(np.random.default_rng(7).uniform(0.5, 2.0, 48)))


@pytest.mark.parametrize("rows", [1, 2, 3, 16])
def test_metric_methods_keep_the_bits_of_the_products_they_replace(rows):
    for X in _byte_spaces():
        M, dim = X.metric, X.dim
        xs = np.random.default_rng(rows).standard_normal((rows, dim))
        assert np.array_equal(X.apply_metric(xs), xs @ M)
        lifted = np.zeros((rows, dim + 3))
        np.matmul(xs, M, out=lifted[:, :dim])
        assert np.array_equal(X.apply_metric(xs), lifted[:, :dim])
        B = xs.T[:, :min(rows, 2)]      # a transposed view, as a kernel matrix B.T
        assert np.array_equal(X.apply_metric(B.T), B.T @ M)
        assert np.array_equal(X.apply_metric(xs[0]), xs[0] @ M)
        F = np.linalg.inv(np.linalg.cholesky(M))
        G = F.T @ F
        G = 0.5 * (G + G.T)
        assert np.array_equal(X.solve_metric(xs), xs @ G)
        idx = np.arange(rows) * 3 % dim
        assert np.array_equal(X.inverse_columns(idx), G[:, idx])
        Y = HilbertSpace(dim, metric=M[::-1, ::-1])
        assert np.array_equal(X.metric_eigvalsh(Y), X.eigvalsh(Y.metric))


def test_a_vector_is_a_one_row_block():
    # the metric, the Riesz map, operators and energy forces act on each row,
    # so a vector and the same vector as a one-row block share bits
    from sweepvi import Material, Mesh1D, MonotoneOperator, assemble_space
    from sweepvi.contact import assemble_A, assemble_elastic
    rng = np.random.default_rng(3)
    mesh = Mesh1D(np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, 24)))))
    material = Material(a=rng.uniform(1.0, 10.0, 24), mu=2.0, b=rng.uniform(0.0, 3.0, 24))
    X = assemble_space(mesh, 2)
    A = assemble_A(mesh, material, X, 2)
    C = rng.standard_normal((X.dim, X.dim))
    H = np.eye(X.dim) + X.solve_metric(C @ C.T).T / X.dim     # M H symmetric
    fns = (X.apply_metric, X.solve_metric, A.energy.force, A.apply,
           assemble_elastic(mesh, material, X, 2).apply,
           MonotoneOperator.from_matrix(X, H).apply)
    xs = rng.standard_normal((3, X.dim))
    for fn in fns:
        for x in xs:
            assert np.array_equal(fn(x), fn(x[None])[0])
    for Y in (X, *_byte_spaces()):
        xs = rng.standard_normal((5, Y.dim))
        assert np.abs(Y.solve_metric(Y.apply_metric(xs)) - xs).max() <= 1e-12 * np.abs(xs).max()


def test_metric_applied_to_the_axes_is_the_metric():
    for X in _byte_spaces():
        assert np.array_equal(X.apply_metric(np.eye(X.dim)), X.metric)


def test_inverse_columns_reject_indices_outside_the_space():
    X = HilbertSpace(3, metric=np.diag([1.0, 2.0, 4.0]))
    assert np.array_equal(X.inverse_columns([2, 0]), [[0.0, 1.0], [0.0, 0.0], [0.25, 0.0]])
    assert X.inverse_columns([]).shape == (3, 0)
    for idx in ([-1], [3], [[0]]):
        with pytest.raises(DimensionMismatchError):
            X.inverse_columns(idx)


def test_prox_layout_carries_each_units_inverse_metric_diagonal():
    M = np.diag([2.0, 4.0, 1.0, 0.5])
    X = HilbertSpace(4, metric=M)
    functional = HomogeneousFunctional.positive_part(X, HilbertSpace(2), weights=[1.0, 1.0],
                                                     indices=[0, 2])
    free, mixed, zeroed = functional.prox_layout(ConstraintCone.nonpositive(X, [2, 3]))
    (unit, coords, d), = free
    assert unit == 0 and list(coords) == [0] and d == X.inverse_columns([0])[0, 0]
    assert d == pytest.approx(0.5)
    assert mixed == [(1, 2, X.inverse_columns([2])[2, 0])] and zeroed == []


def test_norms_many_matches_loop():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5))
    X = HilbertSpace(5, metric=A @ A.T + 5 * np.eye(5))
    vs = rng.standard_normal((40, 5))
    want = [X.norm(v) for v in vs]
    np.testing.assert_allclose(X.norms_many(vs), want, rtol=1e-13)
    assert X.norms_many(np.zeros((3, 5))).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("width", range(1, 8))
def test_the_row_sum_of_a_narrow_block_is_the_reduce_bit_for_bit(width):
    # the column sum runs from 64 rows on; magnitudes span 26 decades, and
    # a share of the entries are signed zeros, infinities and NaNs of both signs
    rng = np.random.default_rng(width)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    for rows in (1, 63, 64, 65, 300, 2056):
        for share in (0.0, 0.3, 0.9):
            p = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-13.0, 13.0,
                                                                         (rows, width))
            mask = rng.random((rows, width)) < share
            p[mask] = rng.choice(special, mask.sum())
            p[0] = -0.0                         # the reduce of -0.0 alone is +0.0
            with np.errstate(invalid="ignore"):
                want = np.add.reduce(p, 1)
                got = _row_sums(p)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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
    with pytest.raises(TimeRangeError):
        traj.at(np.nan)


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


def test_whole_cone_rejects_indices():
    X = HilbertSpace(2)
    with pytest.raises(ValueError, match="'whole' takes no indices"):
        ConstraintCone(X, "whole", [1])
    assert ConstraintCone(X, "whole", ()).indices.size == 0


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


def pencil_reading_norm(space, units, d):
    """The reading norm by the dense n x n pencil: sqrt(lambda_max(Q, M)), Q = sum_u d_u P_u."""
    Q = np.zeros((space.dim, space.dim))
    for d_u, unit in zip(d, units):
        for i in unit:
            Q[i, i] += d_u
    return float(np.sqrt(max(space.eigvalsh(Q)[-1], 0.0)))


def random_coupled_space(rng, dim):
    B = rng.standard_normal((dim, dim))
    return HilbertSpace(dim, B @ B.T + 0.5 * np.eye(dim))


def test_alpha_and_v_lipschitz_match_the_dense_pencil_on_coupled_metrics():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(3, 10))
        X = random_coupled_space(rng, dim)
        perm = rng.permutation(dim)
        k = int(rng.integers(1, dim))
        Y = HilbertSpace(k, metric=np.diag(rng.uniform(0.2, 5.0, k)))
        weights = rng.uniform(0.0, 3.0, k)
        indices = perm[:k]
        cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
        blocks = np.split(perm, cuts)           # k blocks, at least one of several coordinates
        my = np.diag(Y.metric)
        direct = HomogeneousFunctional.positive_part(X, Y, weights=weights, indices=indices)
        norms = HomogeneousFunctional.block_norm(X, Y, weights=weights, blocks=blocks)
        base = HomogeneousFunctional.block_norm(X, HilbertSpace(k), weights=weights,
                                                blocks=blocks, eta_free=True)
        lip = float(rng.uniform(0.1, 2.0))
        sep = HomogeneousFunctional.separable(Y, p=lambda e: 1.0 + e[0], p_lipschitz=lip,
                                              base=base)
        for j, units in ((direct, indices[:, None]), (norms, blocks)):
            for got, d in ((j.alpha, weights ** 2 / my), (j.v_lipschitz(), weights ** 2)):
                want = pencil_reading_norm(X, units, d)
                worst = max(worst, abs(got - want) / want)
        want = lip * pencil_reading_norm(X, blocks, weights ** 2)
        worst = max(worst, abs(sep.alpha - want) / want,
                    abs(base.v_lipschitz() - want / lip) / (want / lip))
    assert worst <= 1e-14


def test_a_functional_with_no_units_reads_nothing():
    X = random_coupled_space(np.random.default_rng(3), 4)
    j = HomogeneousFunctional.zero(X)
    assert j.units == () and j.alpha == 0.0 and j.v_lipschitz() == 0.0


def test_alpha_and_v_lipschitz_solve_no_pencil(monkeypatch):
    def refuse(self, A):
        raise AssertionError("pencil solved")

    monkeypatch.setattr(HilbertSpace, "eigvalsh", refuse)
    X = random_coupled_space(np.random.default_rng(4), 6)
    j = HomogeneousFunctional.block_norm(X, HilbertSpace(2), weights=[1.0, 0.5],
                                         blocks=[[0, 3], [5]])
    assert j.alpha > 0.0 and j.v_lipschitz() > 0.0


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


def test_admits_runs_the_test_of_the_prox_thresholds():
    X, Y = HilbertSpace(1), HilbertSpace(1)
    base = HomogeneousFunctional.positive_part(X, Y, weights=[1.0], indices=[0], eta_free=True)
    direct = HomogeneousFunctional.positive_part(X, Y, weights=[1.0], indices=[0])
    falling = HomogeneousFunctional.separable(Y, p=lambda e: 1.0 - e[0], p_lipschitz=1.0,
                                              base=base)
    rising = HomogeneousFunctional.separable(Y, p=lambda e: 0.5 + e[0] ** 2, p_lipschitz=1.0,
                                             base=base)
    for j, rows in ((direct, [[0.0], [2.0], [-0.5]]), (falling, [[0.0], [2.0], [-0.5]]),
                    (rising, [[0.0], [2.0], [-0.5]]), (base, [[-0.5]])):
        for eta in rows:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    j.prox_thresholds(np.array([eta]), 1.0)
                    defined = True
                except (UnsupportedConfigurationError, AssumptionWarning):
                    defined = False
            assert j.admits(np.array([eta])) == defined
    assert not direct.admits(np.array([[0.5], [np.nan]]))
    assert not falling.admits(np.array([[0.5], [np.nan]]))
    assert direct.admits(np.array([[0.5], [0.0]]))


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


@pytest.mark.parametrize("blocks", [[[0], []], [[], [0, 1]]])
def test_an_empty_block_is_rejected(blocks):
    with pytest.raises(ValueError, match="blocks must not be empty"):
        HomogeneousFunctional.block_norm(HilbertSpace(2), HilbertSpace(2), weights=[1.0, 1.0],
                                         blocks=blocks)


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
