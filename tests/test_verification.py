"""Batched post-solve verification: the exact direction term and the sampled kernels.

The sampled kernels are compared against the per-node formulas written out
here on the same direction sample, with ``j`` evaluated from its definition;
the exact term against every sample, the direction it certifies and values
worked out by hand.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import sweepvi.certificate as certificate_module
import sweepvi.core as core_module
import sweepvi.inclusion as inclusion_module
from sweepvi import (
    AssumptionWarning,
    ConstraintCone,
    EviProblem,
    HilbertSpace,
    HomogeneousFunctional,
    LipschitzOperator,
    MonotoneOperator,
    MovingSet,
    UnsupportedConfigurationError,
    audit_operator,
    membership_residuals,
    solve_evi,
    vi_residual,
    vi_residuals,
)
from sweepvi.cli import _build, _solve, load_config, main
from sweepvi.certificate import DirectionBlock, _direction_residuals, direction_terms
from sweepvi.core import (_BLOCK_DOUBLES, _lowest_pairings, _nested_unit_directions,
                          sample_unit_directions)
from sweepvi.inclusion import _node_gradients, _node_problem

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("abstract_volterra", "rod_compliance", "rod_rigid", "shear_friction", "gate_fail")
TOL = 1e-12


# --------------------------------------------------------------- references

def j_ref(functional, eta, v):
    """``j(eta, v)`` from the definition of each kind."""
    if functional.kind == "zero":
        return 0.0
    if functional.kind == "separable":
        return float(functional.p(eta)) * j_ref(functional.base, None, v)
    e = np.ones(functional.weights.size) if functional.eta_free else eta
    if functional.kind == "positive_part":
        return sum(w * s * max(v[i], 0.0) for w, s, i in zip(functional.weights, e, functional.indices))
    return sum(w * s * np.linalg.norm(v[b]) for w, s, b in zip(functional.weights, e, functional.blocks))


def vi_ref(space, cone, functional, u, g, eta, dirs, extra=()):
    """The VI residual at one node: every candidate row evaluated on its own."""
    if cone.violation(u) > 1e-9:
        return np.inf
    far = 2.0 * (space.norm(u) + 1.0)
    cands = list(dirs) + [far * d for d in dirs] + [np.zeros(space.dim), u] + list(extra)
    ju = j_ref(functional, eta, u)
    return -min(space.inner(v - u, g) + j_ref(functional, eta, v) - ju for v in cands)


def membership_ref(space, cone, functional, u, w, eta, dirs):
    """Membership of ``-u`` at one node, with ``w = shift - z``."""
    cands = list(dirs)
    un = space.norm(u)
    if un > 1e-12:
        cands.append(u / un)
    support = max([space.inner(w, v) - j_ref(functional, eta, v) for v in cands] + [0.0])
    compl = j_ref(functional, eta, u) - space.inner(w, u)
    return max(support, compl, cone.distance(u))


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    inf = np.isinf(want)
    np.testing.assert_array_equal(got[inf], want[inf])
    gap = np.abs(got[~inf] - want[~inf])
    assert np.all(gap <= TOL * np.maximum(1.0, np.abs(want[~inf]))), gap.max()


# ------------------------------------------------- the four functional kinds

def _coupled_space(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return HilbertSpace(dim, a @ a.T + dim * np.eye(dim))


def _functional(kind, X):
    Y2 = HilbertSpace(2)
    if kind == "zero":
        return HomogeneousFunctional.zero(X, Y2)
    if kind == "positive_part":
        return HomogeneousFunctional.positive_part(X, Y2, weights=[1.5, 0.7], indices=[0, 3])
    if kind == "block_norm":
        return HomogeneousFunctional.block_norm(X, Y2, weights=[0.9, 2.0], blocks=[[1, 2], [4]])
    base = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[1.3], blocks=[[0, 4]],
                                            eta_free=True)
    return HomogeneousFunctional.separable(Y2, p=lambda eta: 1.0 + eta @ eta, p_lipschitz=4.0,
                                           base=base)


CONES = (("whole", ()), ("nonpositive", (0, 2)), ("nonnegative", (1,)), ("zero", (3,)))


@pytest.mark.parametrize("kind", ("zero", "positive_part", "block_norm", "separable"))
@pytest.mark.parametrize("cone_kind,indices", CONES)
def test_kernels_match_the_per_node_formulas(kind, cone_kind, indices):
    X = _coupled_space(5, seed=3)
    cone = ConstraintCone(X, cone_kind, indices)
    functional = _functional(kind, X)
    rng = np.random.default_rng(11)
    nodes = 9
    us = cone.project_many(3.0 * rng.standard_normal((nodes, 5)))
    if indices:                     # one infeasible node
        us[4, indices[0]] = -0.5 if cone_kind == "nonnegative" else 0.5
    gs = rng.standard_normal((nodes, 5))
    ws = rng.standard_normal((nodes, 5))
    etas = rng.uniform(0.1, 2.0, (nodes, 2))
    dirs = sample_unit_directions(cone, 200, seed=5)
    extra = rng.standard_normal((2, 5))

    got = vi_residuals(X, cone, functional, us, gs, etas, dirs, extra_points=extra)
    want = [vi_ref(X, cone, functional, u, g, eta, dirs, extra)
            for u, g, eta in zip(us, gs, etas)]
    assert_close(got, want)
    assert np.isinf(got[4]) == bool(indices)

    got = membership_residuals(functional, cone, etas, ws, us, dirs)
    want = [membership_ref(X, cone, functional, u, w, eta, dirs)
            for u, w, eta in zip(us, ws, etas)]
    assert_close(got, want)


@pytest.mark.parametrize("name", SHIPPED)
def test_kernels_match_the_per_node_formulas_on_shipped_configs(name):
    cfg = load_config(CONFIGS / f"{name}.ini")
    _, spec = _build(cfg)
    sol = _solve(cfg, spec, force=True)
    spec = spec.inclusion
    X, cone, functional = spec.x_space, spec.cone, spec.functional
    driver = (sol.u if sol.v is None else sol.v).samples
    # push every node off the solution, inside the cone, so the residuals are O(1)
    rng = np.random.default_rng(2)
    us = cone.project_many(driver + 0.3 * rng.standard_normal(driver.shape))
    eta, xi = sol.eta.samples, sol.xi.samples
    grads = _node_gradients(spec, us, xi)
    dirs = sample_unit_directions(cone, 128, seed=cfg.seed)

    got = vi_residuals(X, cone, functional, us, grads, eta, dirs)
    want = []
    for k, u_k in enumerate(us):
        problem = _node_problem(spec, eta[k], xi[k], spec.f.node(k))
        g = problem.operator(u_k) - problem.f
        want.append(vi_ref(X, cone, functional, u_k, g, eta[k], dirs))
    assert_close(got, want)
    assert np.max(want) > 1e-3

    got = membership_residuals(functional, cone, eta, -grads, us, dirs)
    want = [membership_ref(X, cone, functional, u_k,
                           spec.f.node(k) - (spec.operator(u_k) + xi[k]), eta[k], dirs)
            for k, u_k in enumerate(us)]
    assert_close(got, want)


def test_chunk_boundaries_give_the_values_of_one_node_at_a_time():
    X = _coupled_space(5, seed=4)
    cone = ConstraintCone.nonnegative(X, [1])
    functional = _functional("block_norm", X)
    dirs = sample_unit_directions(cone, 300, seed=0)
    chunk = _BLOCK_DOUBLES // len(dirs)
    rng = np.random.default_rng(8)
    for nodes in (1, chunk, chunk + 1):
        us = cone.project_many(rng.standard_normal((nodes, 5)))
        gs = rng.standard_normal((nodes, 5))
        etas = rng.uniform(0.0, 1.0, (nodes, 2))
        batch = vi_residuals(X, cone, functional, us, gs, etas, dirs)
        single = [vi_residuals(X, cone, functional, us[k:k + 1], gs[k:k + 1], etas[k:k + 1],
                               dirs)[0] for k in range(nodes)]
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=1e-15)
        batch = membership_residuals(functional, cone, etas, gs, us, dirs)
        single = [membership_residuals(functional, cone, etas[k:k + 1], gs[k:k + 1],
                                       us[k:k + 1], dirs)[0] for k in range(nodes)]
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=1e-15)


# ------------------------------------------------------------ the pairing kernel

def pairings_ref(space, functional, dirs, xs, etas):
    """``min_d (x_k, d) + j(eta_k, d)`` one direction at a time, ``j`` from its definition."""
    out = np.full(len(xs), np.inf)
    for d in dirs:
        vals = xs @ (space.metric @ d) + [j_ref(functional, eta, d) for eta in etas]
        out = np.minimum(out, vals)
    return out


@pytest.mark.parametrize("kind", ("zero", "positive_part", "block_norm", "separable"))
def test_the_pairing_kernel_is_the_per_direction_loop(kind):
    X = _coupled_space(5, seed=12)
    functional = _functional(kind, X)
    width = X.dim + len(functional.units)
    # more directions than one lifted block, and node counts that fill no
    # whole chunk of the product
    dirs = sample_unit_directions(ConstraintCone.whole_space(X), 3500, seed=4)
    rows = _BLOCK_DOUBLES // width
    chunk = _BLOCK_DOUBLES // rows
    assert len(dirs) > rows and chunk > 1
    rng = np.random.default_rng(13)
    for nodes in (1, chunk + 2, 3 * chunk - 1):
        xs = 2.0 * rng.standard_normal((nodes, X.dim))
        etas = rng.uniform(0.1, 2.0, (nodes, 2))
        got = _lowest_pairings(X, functional, dirs, xs, functional.unit_weights(etas))
        want = pairings_ref(X, functional, dirs, xs, etas)
        gap = np.abs(got - want)
        assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(want))), gap.max()
        empty = _lowest_pairings(X, functional, dirs[:0], xs, functional.unit_weights(etas))
        np.testing.assert_array_equal(empty, np.full(nodes, np.inf))


def test_the_pairing_kernel_holds_its_node_side_and_a_few_blocks():
    import tracemalloc

    X = _coupled_space(96, seed=5)
    functional = HomogeneousFunctional.block_norm(X, HilbertSpace(2), weights=[1.0, 0.5],
                                                  blocks=[[0, 1], [95]])
    dirs = sample_unit_directions(ConstraintCone.whole_space(X), 2048, seed=0)
    assert dirs.shape == (2240, 96)
    rng = np.random.default_rng(3)
    nodes = 500
    xs = rng.standard_normal((nodes, 96))
    weights = functional.unit_weights(rng.uniform(0.0, 1.0, (nodes, 2)))
    tracemalloc.start()
    try:
        _lowest_pairings(X, functional, dirs, xs, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copy of the whole lifted sample would be 2240 x 98 doubles
    assert peak <= (nodes * (96 + 2) + 4 * _BLOCK_DOUBLES) * 8


# ------------------------------------------------------- the direction sample

def sample_ref(cone, count, seed):
    """The sample as one whole-array pass: draw, axes, project, measure, drop, divide."""
    space = cone.space
    raw = np.random.default_rng(seed).standard_normal((max(count, 0), space.dim))
    eye = np.eye(space.dim)
    pts = cone.project_many(np.vstack([raw, eye, -eye]))
    norms = space.norms_many(pts)
    keep = norms > 1e-12
    return pts[keep] / norms[keep, None]


def _sample_cones(dim, metrics):
    several = list(range(0, dim, max(1, dim // 4)))[:4]     # the nnls path when coupled
    for metric in metrics:
        X = (HilbertSpace(dim, np.diag(np.linspace(1.0, 3.0, dim))) if metric == "diagonal"
             else _coupled_space(dim, seed=6))
        yield ConstraintCone.whole_space(X)
        for kind in ("zero", "nonnegative", "nonpositive"):
            yield ConstraintCone(X, kind, [dim - 1])
            yield ConstraintCone(X, kind, several)


# dim 4 fits in one block; at dims 96 (170-row blocks) and 1024 (128-row
# blocks) block boundaries fall among the signed axes at the end of the sample
@pytest.mark.parametrize("dim,counts,metrics", ((4, (0, 1, 300), ("diagonal", "coupled")),
                                                (96, (0, 149, 2048), ("diagonal", "coupled")),
                                                (1024, (37,), ("coupled",))))
def test_the_blocked_sample_is_the_whole_array_formula_bit_for_bit(dim, counts, metrics):
    for cone in _sample_cones(dim, metrics):
        for count in counts:
            got, want = sample_unit_directions(cone, count, seed=3), sample_ref(cone, count, seed=3)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_the_sample_drops_null_rows():
    # under a diagonal metric -e_0 projects onto the origin of {x_0 >= 0}
    X = HilbertSpace(3, np.diag([1.0, 2.0, 3.0]))
    cone = ConstraintCone.nonnegative(X, [0])
    dirs = sample_unit_directions(cone, 50, seed=1)
    assert len(dirs) == 50 + 2 * 3 - 1
    np.testing.assert_array_equal(dirs, sample_ref(cone, 50, seed=1))
    assert np.all(np.abs(X.norms_many(dirs) - 1.0) <= 1e-15)


def nested_ref(cone, head, count, seed):
    """The nested sample as one whole-array pass: one draw, the axes after its first ``head``."""
    space = cone.space
    raw = np.random.default_rng(seed).standard_normal((count, space.dim))
    eye = np.eye(space.dim)
    pts = cone.project_many(np.vstack([raw[:head], eye, -eye, raw[head:]]))
    norms = space.norms_many(pts)
    keep = norms > 1e-12
    return pts[keep] / norms[keep, None], int(keep[:head + 2 * space.dim].sum())


# the prefix is blocked as a sample of its own, the tail after it: at dim 96
# and head 1024 the prefix is 8 blocks of 152 rows, at dim 1024 and head 37
# it is 17 blocks of 122 or 123, and a head of 0 is the axes alone
@pytest.mark.parametrize("dim,pairs,metrics", ((4, ((0, 1), (1, 300), (300, 300)),
                                                ("diagonal", "coupled")),
                                               (96, ((149, 2048), (1024, 2048)),
                                                ("diagonal", "coupled")),
                                               (1024, ((37, 200),), ("coupled",))))
def test_the_nested_sample_extends_the_sample_of_its_head_bit_for_bit(dim, pairs, metrics):
    for cone in _sample_cones(dim, metrics):
        for head, count in pairs:
            got, prefix = _nested_unit_directions(cone, head, count, seed=3)
            want = sample_unit_directions(cone, head, seed=3)
            assert prefix == len(want)
            np.testing.assert_array_equal(got[:prefix], want)
            np.testing.assert_array_equal(np.signbit(got[:prefix]), np.signbit(want))
            whole, whole_prefix = nested_ref(cone, head, count, seed=3)
            assert prefix == whole_prefix
            np.testing.assert_array_equal(got, whole)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(whole))


def test_the_nested_sample_drops_null_rows_in_its_prefix_and_its_tail():
    # the zero cone on every coordinate leaves no direction at all
    X = HilbertSpace(3, np.diag([1.0, 2.0, 3.0]))
    null = ConstraintCone.zero(X, [0, 1, 2])
    dirs, prefix = _nested_unit_directions(null, 5, 20, seed=1)
    assert dirs.shape == (0, 3) and prefix == 0
    # under a diagonal metric -e_0 projects onto the origin of {x_0 >= 0}
    cone = ConstraintCone.nonnegative(X, [0])
    head, count = 40, 90
    dirs, prefix = _nested_unit_directions(cone, head, count, seed=1)
    assert prefix == head + 2 * 3 - 1 and len(dirs) == count + 2 * 3 - 1
    np.testing.assert_array_equal(dirs[:prefix], sample_unit_directions(cone, head, seed=1))
    # in one dimension every draw above 0, in the prefix or the tail, projects
    # onto the origin of {x <= 0}, and so does the axis +e_0
    tail_null = ConstraintCone.nonpositive(HilbertSpace(1), [0])
    dirs, prefix = _nested_unit_directions(tail_null, 3, 50, seed=2)
    draws = np.random.default_rng(2).standard_normal(50)
    assert prefix == (draws[:3] < 0).sum() + 1
    assert len(dirs) == (draws < 0).sum() + 1
    assert np.all(dirs == -1.0)


def test_the_sample_holds_itself_and_a_few_blocks():
    import tracemalloc

    cone = ConstraintCone.whole_space(_coupled_space(96, seed=2))
    count, dim = 2048, 96
    tracemalloc.start()
    try:
        sample_unit_directions(cone, count, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sample_bytes = (count + 2 * dim) * dim * 8
    assert peak <= sample_bytes + 4 * _BLOCK_DOUBLES * 8


def test_the_nested_sample_holds_itself_and_a_few_blocks():
    import tracemalloc

    cone = ConstraintCone.whole_space(_coupled_space(96, seed=2))
    head, count, dim = 1024, 2048, 96
    tracemalloc.start()
    try:
        _nested_unit_directions(cone, head, count, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sample_bytes = (count + 2 * dim) * dim * 8
    assert peak <= sample_bytes + 4 * _BLOCK_DOUBLES * 8


# ------------------------------------------------ accept, reject, infeasible

def friction_problem():
    # A = I, f = (10, 0.5), j = |v_1|: u* = (10, 0), where the friction holds
    # v_1 at rest.  ||u*|| = 10, so a point pushed 0.1 towards the origin
    # violates the VI only at candidates beyond ||u||.
    X = HilbertSpace(2)
    j = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[1.0], blocks=[[1]])
    return EviProblem(space=X, cone=ConstraintCone.whole_space(X),
                      operator=MonotoneOperator.from_matrix(X, np.eye(2)), functional=j,
                      eta=np.array([1.0]), f=np.array([10.0, 0.5]))


def test_solution_passes_and_a_feasible_push_fails_both_checks():
    problem = friction_problem()
    u = solve_evi(problem, tol=1e-13).u
    np.testing.assert_allclose(u, [10.0, 0.0], atol=1e-12)
    moving = MovingSet(problem.functional, problem.cone, problem.eta, problem.f)
    z = problem.operator(u)
    assert vi_residual(u, problem, sampler_budget=256, seed=0) <= 1e-10
    assert moving.membership_residual(z, -u, sampler_budget=256, seed=1) <= 1e-10

    bad = u - 0.1 * u / np.linalg.norm(u)
    assert vi_residual(bad, problem, sampler_budget=256, seed=0) > 1e-3
    assert moving.membership_residual(problem.operator(bad), -bad, sampler_budget=256,
                                      seed=1) > 1e-3


def test_infeasible_points_score_infinity():
    X = HilbertSpace(2)
    cone = ConstraintCone.nonpositive(X, [0])
    functional = HomogeneousFunctional.zero(X)
    us = np.array([[-1.0, 0.0], [0.5, 0.0], [0.0, 3.0]])
    got = vi_residuals(X, cone, functional, us, np.ones((3, 2)), None,
                       sample_unit_directions(cone, 64, seed=0))
    assert np.isinf(got[1]) and np.isfinite(got[[0, 2]]).all()


def test_negative_parameters_still_warn():
    X = HilbertSpace(2)
    cone = ConstraintCone.whole_space(X)
    functional = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0],
                                                     indices=[0])
    us, gs = np.zeros((2, 2)), np.ones((2, 2))
    etas = np.array([[1.0], [-0.5]])
    dirs = sample_unit_directions(cone, 16, seed=0)
    with pytest.warns(AssumptionWarning):
        vi_residuals(X, cone, functional, us, gs, etas, dirs)
    with pytest.warns(AssumptionWarning):
        membership_residuals(functional, cone, etas, gs, us, dirs)


# ------------------------------------------------------- the exact direction term

# per functional kind, cone indices of each kind that meet the functional's
# units where the exact term allows it: a one-coordinate unit (positive part,
# norm block of one) under any cone, a norm block of more coordinates only
# under a zero cone, which frees part of it
MEETING = {
    "zero": {"nonpositive": (0, 2), "nonnegative": (1,), "zero": (3,)},
    "positive_part": {"nonpositive": (0, 2), "nonnegative": (3,), "zero": (0, 1)},
    "block_norm": {"nonpositive": (4, 0), "nonnegative": (4,), "zero": (1, 3)},
    "separable": {"nonpositive": (1, 2), "nonnegative": (3,), "zero": (4,)},
}


def _cone_for(kind, cone_kind, X):
    return ConstraintCone(X, cone_kind, () if cone_kind == "whole" else MEETING[kind][cone_kind])


def _direction_value(X, functional, g, eta, v):
    """``-(g, v) - j(eta, v)`` at one direction, ``j`` from its definition."""
    return -X.inner(g, v) - j_ref(functional, eta, v)


@pytest.mark.parametrize("kind", ("zero", "positive_part", "block_norm", "separable"))
@pytest.mark.parametrize("cone_kind", ("whole", "nonpositive", "nonnegative", "zero"))
def test_the_exact_term_bounds_every_sample_and_is_attained(kind, cone_kind):
    # on random coupled metrics: at least the value of every sampled
    # direction, and the value of the direction -r / ||r|| it certifies
    for seed in range(6):
        X = _coupled_space(5, seed=40 + seed)
        cone = _cone_for(kind, cone_kind, X)
        functional = _functional(kind, X)
        rng = np.random.default_rng(seed)
        nodes = 12
        gs = 2.0 * rng.standard_normal((nodes, 5))
        gs[:3] *= 1e-3                  # some nodes near the set
        gs[3] = 0.0                     # and one in it
        etas = rng.uniform(0.0, 2.0, (nodes, 2))
        block = DirectionBlock(cone, functional)
        exact = direction_terms(block, gs, etas)
        dirs = sample_unit_directions(cone, 3000, seed=seed)
        weights = functional.unit_weights(etas)
        sampled = -_lowest_pairings(X, functional, dirs, gs, weights)
        scale = 1e-12 * (X.norms_many(gs) + weights.sum(1) + 1.0)
        assert np.all(np.maximum(sampled, 0.0) <= exact + scale), (sampled - exact).max()
        rs = _direction_residuals(block, gs, etas)
        for g, eta, r, value in zip(gs, etas, rs, exact):
            if value <= 1e-9:
                continue
            v = cone.project(-r / X.norm(r))
            attained = _direction_value(X, functional, g, eta, v / X.norm(v))
            assert abs(attained - value) <= 1e-12 * (1.0 + value)


def test_the_exact_term_matches_the_hand_computed_distance_on_a_diagonal_metric():
    # M = diag(2, 4, 1), j(v) = 3 max(v_0, 0), v_1 <= 0, g = (-2, 1, 0.5):
    # -M g = (4, -4, -0.5); y_0 in [0, 3] takes 3, y_1 in [0, inf) takes 0, so
    # dist^2 = (4 - 3)^2 / 2 + 4^2 / 4 + 0.5^2 / 1 = 4.75
    X = HilbertSpace(3, np.diag([2.0, 4.0, 1.0]))
    functional = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[3.0],
                                                     indices=[0])
    cone = ConstraintCone.nonpositive(X, [1])
    g = np.array([[-2.0, 1.0, 0.5]])
    got = direction_terms(DirectionBlock(cone, functional), g, np.ones((1, 1)))
    assert got[0] == pytest.approx(np.sqrt(4.75), rel=1e-15)
    # M = diag(1, 1, 3), j(v) = 2 ||(v_0, v_1)||, v_2 = 0, g = (3, 4, 1): the
    # ball of radius 2 takes 2 of the 5 of (3, 4), and the line all of g_2:
    # dist^2 = (5 - 2)^2
    X = HilbertSpace(3, np.diag([1.0, 1.0, 3.0]))
    functional = HomogeneousFunctional.block_norm(X, HilbertSpace(1), weights=[2.0],
                                                  blocks=[[0, 1]])
    got = direction_terms(DirectionBlock(ConstraintCone.zero(X, [2]), functional),
                          np.array([[3.0, 4.0, 1.0]]), np.ones((1, 1)))
    assert got[0] == pytest.approx(3.0, rel=1e-15)
    # the same without the cone: the line's 3 * 1^2 adds, dist^2 = 9 + 3
    got = direction_terms(DirectionBlock(ConstraintCone.whole_space(X), functional),
                          np.array([[3.0, 4.0, 1.0]]), np.ones((1, 1)))
    assert got[0] == pytest.approx(np.sqrt(12.0), rel=1e-15)


def test_a_norm_block_on_a_sign_constraint_has_no_exact_term():
    X = _coupled_space(5, seed=1)
    functional = _functional("block_norm", X)
    with pytest.raises(UnsupportedConfigurationError, match="sign constraint"):
        DirectionBlock(ConstraintCone.nonpositive(X, [2]), functional)


# --------------------------------------------------- no sample in a run's checks

def _bindings(name):
    """Every loaded sweepvi module that binds ``name``."""
    return [m for key, m in list(sys.modules.items())
            if (key == "sweepvi" or key.startswith("sweepvi.")) and hasattr(m, name)]


@pytest.fixture
def sample_calls(monkeypatch):
    """Every direction sample built, as ``(head, count, seed)``."""
    calls = []
    original = core_module._nested_unit_directions

    def counting(cone, head, count, seed):
        calls.append((head, count, seed))
        return original(cone, head, count, seed)

    for module in _bindings("_nested_unit_directions"):
        monkeypatch.setattr(module, "_nested_unit_directions", counting)
    return calls


@pytest.mark.parametrize("name, code", [("abstract_volterra", 0), ("rod_compliance", 0),
                                        ("rod_rigid", 0), ("shear_friction", 0),
                                        ("gate_fail", 2)])
def test_a_run_draws_no_direction_sample(monkeypatch, tmp_path, name, code):
    def refuse(*args, **kwargs):
        raise AssertionError("a run drew a direction sample")

    for fn in ("_nested_unit_directions", "sample_unit_directions"):
        for module in _bindings(fn):
            monkeypatch.setattr(module, fn, refuse)
    assert main(["run", "--config", str(CONFIGS / f"{name}.ini"), "--out", str(tmp_path)]) == code
    if code == 0:
        lines = (tmp_path / "diagnostics.txt").read_text().splitlines()
        assert "certificate: exact" in lines
        assert not any(line.startswith(("residual_directions", "membership_directions"))
                       for line in lines)


def test_verify_draws_one_sample_for_both_checks(sample_calls, tmp_path):
    config = str(CONFIGS / "shear_friction.ini")
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    sample_calls.clear()
    assert main(["verify", "--config", config, "--out", str(tmp_path)]) == 0
    assert sample_calls == [(2048, 2048, 0)]


def test_node_checks_pair_one_exact_term(monkeypatch):
    cfg = load_config(CONFIGS / "shear_friction.ini")
    _, spec = _build(cfg)
    core = spec.inclusion
    sol = _solve(cfg, spec)
    u, eta, xi = sol.v.samples, sol.eta.samples, sol.xi.samples
    calls = []

    def counting(block, gs, etas):
        calls.append(block)
        return direction_terms(block, gs, etas)

    monkeypatch.setattr(certificate_module, "direction_terms", counting)
    residuals, member = inclusion_module._node_checks(core, u, eta, xi)
    assert calls == [core.direction_block]
    grads = _node_gradients(core, u, xi)
    dist = direction_terms(DirectionBlock(core.cone, core.functional), grads, eta)
    np.testing.assert_array_equal(
        residuals, vi_residuals(core.x_space, core.cone, core.functional, u, grads, eta,
                                distances=dist))
    np.testing.assert_array_equal(
        member, membership_residuals(core.functional, core.cone, eta, -grads, u,
                                     distances=dist))
    # without distances or directions the kernels compute the same exact term
    np.testing.assert_array_equal(
        residuals, vi_residuals(core.x_space, core.cone, core.functional, u, grads, eta))
    assert residuals.max() <= 1e-10 and member.max() <= 1e-10


# ------------------------------------------------------------ audits, Riesz map

def _loop_audit(op, space, trials, seed, radius=10.0):
    """The per-pair audit: (m, L) of the operator and the Lipschitz quotient."""
    rng = np.random.default_rng(seed)
    m_obs, l_obs, worst = np.inf, 0.0, 0.0
    for _ in range(trials):
        u = radius * rng.standard_normal(space.dim)
        v = radius * rng.standard_normal(space.dim)
        d = u - v
        nd2 = space.inner(d, d)
        if nd2 < 1e-20:
            continue
        ad = op(u) - op(v)
        m_obs = min(m_obs, space.inner(ad, d) / nd2)
        l_obs = max(l_obs, np.sqrt(max(space.inner(ad, ad), 0.0) / nd2))
        worst = max(worst, space.distance(op(u), op(v)) / space.distance(u, v))
    return m_obs, l_obs, worst


def test_batched_audits_equal_the_per_pair_loop():
    X = _coupled_space(4, seed=9)
    H = np.diag([1.0, 2.0, 3.0, 4.0])

    def apply(u):
        return u @ H.T + 0.3 * np.tanh(u)

    op = MonotoneOperator(apply=apply, m=1.0, L=4.3)
    for trials, seed in ((256, 0), (200, 3), (400, 7)):
        m_obs, l_obs, worst = _loop_audit(op, X, trials, seed)
        audit = audit_operator(op, X, trials=trials, seed=seed)
        assert audit.m_observed == pytest.approx(m_obs, rel=1e-12)
        assert audit.L_observed == pytest.approx(l_obs, rel=1e-12)
        lip = audit_operator(LipschitzOperator(apply=apply, L=4.3), X, trials=trials, seed=seed)
        assert lip.m_declared is None
        assert lip.L_observed == pytest.approx(worst, rel=1e-12)


def test_pair_block_draw_is_the_per_pair_stream():
    block = np.random.default_rng(4).standard_normal((50, 2, 3))
    rng = np.random.default_rng(4)
    for u, v in block:
        np.testing.assert_array_equal(u, rng.standard_normal(3))
        np.testing.assert_array_equal(v, rng.standard_normal(3))


def test_solve_metric_matches_cho_solve_and_rejects_non_finite():
    X = _coupled_space(6, seed=1)
    rng = np.random.default_rng(0)
    factor = cho_factor(X.metric)
    for b in (rng.standard_normal(6), rng.standard_normal((3, 6))):
        want = cho_solve(factor, b.T).T
        assert np.abs(X.solve_metric(b) - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError):
        X.solve_metric(np.array([1.0, np.nan, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        X.solve_metric(np.ones(5))


# The metric-derived constants of each shipped config as scipy.linalg.eigh and
# SVD-based norms gave them: m and L of A, alpha of j, L of the two memories
# (the Volterra L for a load memory, c0 L_F for a threshold memory), L of the
# elastic coupling Kb where there is one, and the iteration-metric scale.
SHIPPED_CONSTANTS = {
    "abstract_volterra": (2.0, 2.0, 0.0, 0.5, 0.0, None, 1.0),
    "gate_fail": (2.0, 2.0, 1.2, 0.0, 0.0, None, 1.0),
    "rod_compliance": (1.0, 1.0, 1.0000000000000002, 0.3, 0.5000000000000001, None, 1.0),
    "rod_rigid": (1.0, 1.0, 0.0, 0.0, 0.0, None, 1.0),
    "shear_friction": (0.5, 0.5, 1.0000000000000002, 0.0, 18.000000000000004, None, 1.0),
}


@pytest.mark.parametrize("name", SHIPPED)
def test_metric_constants_of_the_shipped_configs(name):
    _, spec = _build(load_config(CONFIGS / f"{name}.ini"))
    core = getattr(spec, "core", spec)
    b_op = getattr(spec, "b_op", None)
    got = (core.operator.m, core.operator.L, core.functional.alpha, core.load_memory.L,
           core.parameter_memory.L, None if b_op is None else b_op.L,
           spec.inclusion.iteration_metric.scale)
    assert got == pytest.approx(SHIPPED_CONSTANTS[name], rel=1e-12, abs=0.0)
