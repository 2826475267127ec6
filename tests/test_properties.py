"""Property tests: cone projections, proxes and EVI solutions on random data.

Each test runs for every cone kind, and the projection tests for every kind
of SPD metric (a multiple of the identity, a positive diagonal, a full
``B B^T + 0.3 I``); hypothesis draws the dimension, the metric entries, the
constrained indices and the points.  The examples are derandomized, so the
suite is deterministic.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sweepvi.core import (
    ConstraintCone,
    HilbertSpace,
    HomogeneousFunctional,
    UnsupportedConfigurationError,
)
from sweepvi.evi import EviProblem, MonotoneOperator, solve_evi, vi_residual

SETTINGS = settings(max_examples=6, derandomize=True, deadline=None, database=None)
CONE_KINDS = ("whole", "nonpositive", "nonnegative", "zero")
METRIC_KINDS = ("scaled", "diagonal", "full")
FUNCTIONAL_KINDS = ("zero", "positive_part", "block_norm")

cone_kinds = pytest.mark.parametrize("cone_kind", CONE_KINDS)
metric_kinds = pytest.mark.parametrize("metric_kind", METRIC_KINDS)
functional_kinds = pytest.mark.parametrize("functional_kind", FUNCTIONAL_KINDS)


def vectors(dim, bound=10.0):
    """Hypothesis's own floats, or uniform floats from a seed it picks.

    The first reach the edge values (zeros, bounds, tiny numbers); the
    second keep typical values common among a few examples.
    """
    listed = st.lists(st.floats(-bound, bound), min_size=dim, max_size=dim).map(np.array)
    seeded = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(-bound, bound, dim))
    return st.one_of(listed, seeded)


@st.composite
def spaces(draw, kind):
    return draw(spaces_of_dim(kind, draw(st.sampled_from((2, 3, 4, 1)))))


@st.composite
def spaces_of_dim(draw, kind, dim):
    if kind == "scaled":
        metric = (0.2 + abs(draw(vectors(1, 5.0))[0])) * np.eye(dim)
    elif kind == "diagonal":
        metric = np.diag(0.2 + np.abs(draw(vectors(dim, 5.0))))
    else:
        B = draw(vectors(dim * dim, 1.0)).reshape(dim, dim)
        metric = B @ B.T + 0.3 * np.eye(dim)
    return HilbertSpace(dim, metric)


@st.composite
def cones(draw, space, kind):
    if kind == "whole":
        return ConstraintCone.whole_space(space)
    indices = draw(st.lists(st.integers(0, space.dim - 1), min_size=1, max_size=space.dim,
                            unique=True))
    return ConstraintCone(space, kind, indices)


@st.composite
def functionals(draw, space, kind):
    """A functional of ``kind`` on ``space`` and a nonnegative parameter for it."""
    if kind == "zero":
        return HomogeneousFunctional.zero(space), None
    coords = draw(st.permutations(range(space.dim)))[:draw(st.integers(1, space.dim))]
    if kind == "positive_part":
        units = [[c] for c in coords]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(len(coords) - 1, 1)))))
        units = [part.tolist() for part in np.split(np.array(coords), cuts) if part.size]
    weights = np.abs(draw(vectors(len(units), 3.0)))
    y_space = HilbertSpace(len(units))
    if kind == "positive_part":
        functional = HomogeneousFunctional.positive_part(space, y_space, weights,
                                                         [u[0] for u in units])
    else:
        functional = HomogeneousFunctional.block_norm(space, y_space, weights, units)
    return functional, np.abs(draw(vectors(len(units), 3.0)))


@st.composite
def cone_and_points(draw, metric_kind, cone_kind, count):
    space = draw(spaces(metric_kind))
    return draw(cones(space, cone_kind)), [draw(vectors(space.dim)) for _ in range(count)]


@st.composite
def prox_cases(draw, cone_kind, functional_kind):
    """A functional and a cone whose prox has a closed form, plus its data.

    The metric is of any kind; where :meth:`prox_layout` refuses the
    combination the example is discarded.
    """
    space = draw(spaces(draw(st.sampled_from(METRIC_KINDS))))
    cone = draw(cones(space, cone_kind))
    functional, eta = draw(functionals(space, functional_kind))
    try:
        layout = functional.prox_layout(cone)
    except UnsupportedConfigurationError:
        layout = None
    assume(layout is not None)
    rho = abs(draw(vectors(1, 3.0))[0])
    return functional, cone, eta, rho, layout, draw(vectors(space.dim)), draw(vectors(space.dim))


def scale(*xs):
    return 1.0 + max(float(np.abs(x).max()) for x in xs)


@metric_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_projection_is_idempotent(metric_kind, cone_kind, data):
    cone, (x,) = data.draw(cone_and_points(metric_kind, cone_kind, 1))
    p = cone.project(x)
    assert cone.space.distance(cone.project(p), p) <= 1e-10 * scale(x)


@metric_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_projection_lands_in_the_cone(metric_kind, cone_kind, data):
    cone, (x,) = data.draw(cone_and_points(metric_kind, cone_kind, 1))
    assert cone.violation(cone.project(x)) <= 1e-12 * scale(x)


@metric_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_projection_is_nonexpansive_in_the_metric_norm(metric_kind, cone_kind, data):
    cone, (x, y) = data.draw(cone_and_points(metric_kind, cone_kind, 2))
    X = cone.space
    gap = X.distance(cone.project(x), cone.project(y))
    assert gap <= X.distance(x, y) + 1e-10 * scale(x, y)


@metric_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_projection_is_the_nearest_point(metric_kind, cone_kind, data):
    # (x - P x, y - P x) <= 0 for every y in the cone, here y = P z
    cone, (x, z) = data.draw(cone_and_points(metric_kind, cone_kind, 2))
    X, p = cone.space, cone.project(x)
    assert X.inner(x - p, cone.project(z) - p) <= 1e-9 * scale(x, z) ** 2


@metric_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_project_many_matches_project_row_by_row(metric_kind, cone_kind, data):
    cone, points = data.draw(cone_and_points(metric_kind, cone_kind, 4))
    rows = np.array(points)
    want = np.array([cone.project(x) for x in rows])
    np.testing.assert_allclose(cone.project_many(rows), want, rtol=0.0,
                               atol=1e-10 * scale(rows))


@functional_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_prox_is_nonexpansive_in_the_metric_norm(functional_kind, cone_kind, data):
    case = data.draw(prox_cases(cone_kind, functional_kind))
    functional, cone, eta, rho, layout, w1, w2 = case
    X = functional.x_space
    p1 = functional.prox(eta, cone, rho, w1, layout)
    p2 = functional.prox(eta, cone, rho, w2, layout)
    assert X.distance(p1, p2) <= X.distance(w1, w2) + 1e-10 * scale(w1, w2)


@functional_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_prox_solves_its_own_variational_inequality(functional_kind, cone_kind, data):
    # prox(w) solves the EVI with the identity operator, load w and j scaled
    # by rho, which for these kinds is j with the parameter scaled by rho.
    # The prox takes its metric from the cone: the VI holds in the metric of
    # the functional's space X, and again with the cone rebound to a second
    # metric P wherever the closed form accepts P.
    functional, cone, eta, rho, layout, w, _ = data.draw(prox_cases(cone_kind, functional_kind))
    P = data.draw(spaces_of_dim(data.draw(st.sampled_from(METRIC_KINDS)), functional.x_space.dim))
    identity = MonotoneOperator(lambda u: u, 1.0, 1.0)
    cases = [(cone, layout)]
    moved = cone.in_space(P)
    try:
        cases.append((moved, functional.prox_layout(moved)))
    except UnsupportedConfigurationError:
        pass
    for c, c_layout in cases:
        problem = EviProblem(c.space, c, identity, functional, None if eta is None else rho * eta, w)
        p = functional.prox(eta, c, rho, w, c_layout)
        assert vi_residual(p, problem, sampler_budget=512) <= 1e-9 * scale(w)


@functional_kinds
@cone_kinds
@settings(SETTINGS, max_examples=4)
@given(data=st.data())
def test_evi_solutions_pass_the_vi_residual(functional_kind, cone_kind, data):
    functional, cone, eta, _, _, f, _ = data.draw(prox_cases(cone_kind, functional_kind))
    X = functional.x_space
    # H = I + K with K self-adjoint in the metric and spectrum in [0, 1], so
    # m >= 1, L <= 2 and the contraction factor stays at most sqrt(3) / 2
    C = data.draw(vectors(X.dim * X.dim, 1.0)).reshape(X.dim, X.dim)
    K = X.solve_metric(C @ C.T)
    H = np.eye(X.dim) + K / max(np.linalg.eigvals(K).real.max(), 1.0)
    problem = EviProblem(X, cone, MonotoneOperator.from_matrix(X, H), functional, eta, f)
    sol = solve_evi(problem, tol=1e-10, audit_trials=0)
    assert vi_residual(sol.u, problem, sampler_budget=512) <= 1e-7 * scale(f)


def prox_rows(data, functional, eta, w, count=4):
    """``count`` rows of points and of parameters, the drawn ones first."""
    X = functional.x_space
    ws = np.array([w] + [data.draw(vectors(X.dim)) for _ in range(count - 1)])
    if eta is None:
        return ws, None
    etas = [eta] + [np.abs(data.draw(vectors(len(eta), 3.0))) for _ in range(count - 1)]
    return ws, np.array(etas)


def assert_prox_many_matches_prox(functional, cone, etas, rho, ws, layout):
    taus = functional.prox_thresholds(etas, rho)
    rows = [None] * len(ws) if etas is None else etas
    want = np.array([functional.prox(eta, cone, rho, w, layout) for eta, w in zip(rows, ws)])
    got = functional.prox_many(taus, cone, ws, layout)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale(ws, want))
    one = functional.prox_many(functional.prox_thresholds(None if etas is None else etas[:1], rho),
                               cone, ws[:1], layout)
    assert np.array_equal(one[0], want[0])


@functional_kinds
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_prox_many_matches_prox_row_by_row(functional_kind, cone_kind, data):
    functional, cone, eta, rho, layout, w, _ = data.draw(prox_cases(cone_kind, functional_kind))
    ws, etas = prox_rows(data, functional, eta, w)
    assert_prox_many_matches_prox(functional, cone, etas, rho, ws, layout)


@pytest.mark.parametrize("functional_kind", ("positive_part", "block_norm"))
@cone_kinds
@SETTINGS
@given(data=st.data())
def test_separable_prox_many_matches_prox_row_by_row(functional_kind, cone_kind, data):
    drawn, cone, _, rho, layout, w, _ = data.draw(prox_cases(cone_kind, functional_kind))
    base = HomogeneousFunctional(drawn.kind, drawn.x_space, drawn.y_space, weights=drawn.weights,
                                 indices=drawn.indices, blocks=drawn.blocks, eta_free=True)
    functional = HomogeneousFunctional.separable(HilbertSpace(1), lambda e: 0.5 + e[0] ** 2,
                                                 1.0, base)
    ws, etas = prox_rows(data, functional, np.abs(data.draw(vectors(1, 3.0))), w)
    assert_prox_many_matches_prox(functional, cone, etas, rho, ws, layout)
