"""Block operator application, block proxes and the block EVI iteration."""

import numpy as np
import pytest

from sweepvi import (
    ConstraintCone,
    ContactLaw,
    DimensionMismatchError,
    HilbertSpace,
    HomogeneousFunctional,
    LipschitzOperator,
    Loads,
    Material,
    Mesh1D,
    MonotoneOperator,
    NonConvergenceError,
    NonFiniteError,
    TimeGrid,
    Trajectory,
    build_inclusion_variant,
    build_problem,
    solve_evi,
    solve_evi_many,
    solve_inclusion,
)
from sweepvi.contact import assemble_A, assemble_elastic, assemble_space
from sweepvi.inclusion import _node_problem

CONTRAST_10 = [1.0, 3.0, 6.0, 10.0]
MESH = Mesh1D.uniform(1.0, 4)


def rows(count, dim, seed=0, scale=3.0):
    return scale * np.random.default_rng(seed).standard_normal((count, dim))


def assert_rows_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1.0)


def block_operators():
    space = assemble_space(MESH, 2)
    M = np.diag([2.0, 1.0, 0.5])
    X3 = HilbertSpace(3, M)
    H = np.linalg.solve(M, np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.2], [0.0, 0.2, 1.5]]))
    return [
        ("viscosity mu=0", assemble_A(MESH, Material(a=CONTRAST_10), space, 2)),
        ("viscosity mu=0.5", assemble_A(MESH, Material(a=CONTRAST_10, mu=0.5), space, 2)),
        ("elastic", assemble_elastic(MESH, Material(a=1.0, b=[1.0, 2.0, 0.5, 4.0]), space, 2)),
        ("matrix", MonotoneOperator.from_matrix(X3, H)),
        ("callable", MonotoneOperator(lambda u: 2.0 * u + np.tanh(u), 2.0, 3.0)),
        ("callable lipschitz", LipschitzOperator(lambda u: np.sin(u), 1.0)),
    ]


@pytest.mark.parametrize("name, op", block_operators(), ids=[n for n, _ in block_operators()])
def test_apply_on_a_block_equals_apply_row_by_row(name, op):
    dim = 8 if name in ("viscosity mu=0", "viscosity mu=0.5", "elastic") else 3
    us = rows(9, dim)
    want = np.array([op(u) for u in us])
    assert_rows_close(op(us), want)
    # one row takes the vector product's path bit for bit
    assert np.array_equal(op(us[:1])[0], op(us[0]))


def prox_layouts():
    """One case per kind of unit the prox treats: free, mixed, zeroed, separable."""
    X = HilbertSpace(4, np.diag([2.0, 2.0, 0.5, 0.5]))     # scalar on each norm block
    Y2 = HilbertSpace(2)
    part = HomogeneousFunctional.positive_part(X, Y2, weights=[1.5, 0.7], indices=[0, 1])
    norm = HomogeneousFunctional.block_norm(X, Y2, weights=[1.0, 2.0], blocks=[[0], [2, 3]])
    single = HomogeneousFunctional.block_norm(X, Y2, weights=[1.0, 2.0], blocks=[[0, 1], [2]])
    base = HomogeneousFunctional.block_norm(X, Y2, weights=[1.0, 0.4], blocks=[[0, 1], [3]],
                                            eta_free=True)
    separable = HomogeneousFunctional.separable(HilbertSpace(1), lambda e: 0.5 + e[0] ** 2,
                                                1.0, base)
    # the shear layer's coupled metric: friction on the tangential contact
    # dof, whose step runs through the inverse metric, and the normal
    # contact dof held at zero
    shear = assemble_space(MESH, 2)
    friction = HomogeneousFunctional.block_norm(shear, HilbertSpace(1), weights=[1.0],
                                                blocks=[[7]])
    return [
        ("free positive part", part, ConstraintCone.whole_space(X), 2),
        ("mixed nonnegative", part, ConstraintCone.nonnegative(X, [1, 2]), 2),
        ("mixed nonpositive", part, ConstraintCone.nonpositive(X, [1]), 2),
        ("free block norm", norm, ConstraintCone.nonpositive(X, [1]), 2),
        ("zeroed block", norm, ConstraintCone.zero(X, [2, 3]), 2),
        ("mixed block singleton", single, ConstraintCone.nonpositive(X, [2]), 2),
        ("mixed block singleton zero", single, ConstraintCone.zero(X, [2]), 2),
        ("separable", separable, ConstraintCone.nonnegative(X, [2]), 1),
        ("zero functional", HomogeneousFunctional.zero(X), ConstraintCone.nonpositive(X, [0, 3]),
         1),
        ("shear layer", friction, ConstraintCone.zero(shear, [3]), 1),
    ]


@pytest.mark.parametrize("name, functional, cone, ydim", prox_layouts(),
                         ids=[case[0] for case in prox_layouts()])
def test_prox_many_equals_prox_row_by_row(name, functional, cone, ydim):
    layout = functional.prox_layout(cone)
    if name.startswith("mixed"):
        assert layout[1]
    if name.startswith("zeroed"):
        assert layout[2]
    if name == "shear layer":
        assert not cone.space.is_diagonal and layout[0]
    ws = rows(12, functional.x_space.dim, seed=1)
    etas = np.abs(rows(12, ydim, seed=2, scale=1.0))
    etas[3] = 0.0                       # a zero threshold skips the unit's step
    rho = 0.7
    taus = functional.prox_thresholds(etas, rho)
    want = np.array([functional.prox(eta, cone, rho, w, layout) for eta, w in zip(etas, ws)])
    assert_rows_close(functional.prox_many(taus, cone, ws, layout), want)
    one = functional.prox_many(functional.prox_thresholds(etas[:1], rho), cone, ws[:1], layout)
    assert np.array_equal(one[0], want[0])


def test_prox_thresholds_keep_the_prox_errors():
    X = HilbertSpace(2)
    part = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0], indices=[0])
    cone = ConstraintCone.whole_space(X)
    with pytest.raises(ValueError, match="rho"):
        part.prox_thresholds(np.ones((2, 1)), -1.0)
    from sweepvi import UnsupportedConfigurationError
    with pytest.warns(Warning), pytest.raises(UnsupportedConfigurationError, match="negative"):
        part.prox(np.array([-1.0]), cone, 0.5, np.ones(2))
    base = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0], indices=[0],
                                               eta_free=True)
    separable = HomogeneousFunctional.separable(HilbertSpace(1), lambda e: e[0], 1.0, base)
    with pytest.raises(UnsupportedConfigurationError, match="p\\(eta\\) is negative"):
        separable.prox_thresholds(np.array([[1.0], [-2.0]]), 0.5)


def contrast_rod(steps=8):
    problem = build_problem("normal_compliance", MESH, Material(a=CONTRAST_10, mu=0.5),
                            ContactLaw.linear(0.5), Loads(body=2.0), TimeGrid(1.0, steps))
    return problem.spec


def test_block_rows_match_their_one_row_solves():
    spec = contrast_rod()
    assert spec.iteration_metric.q > 0.0
    n = spec.grid.steps + 1
    etas = np.linspace(0.0, 0.3, n)[:, None]
    xis = rows(n, spec.x_space.dim, seed=3, scale=0.2)
    starts = rows(n, spec.x_space.dim, seed=4, scale=0.5)
    tol = 1e-10
    block = solve_evi_many(spec.x_space, spec.cone, spec.operator, spec.functional, etas,
                           spec.f.samples - xis, tol=tol, starts=starts,
                           metric=spec.iteration_metric)
    assert len(set(block.iterations.tolist())) > 1      # rows stop at different iterations
    for k in range(n):
        one = solve_evi(_node_problem(spec, etas[k], xis[k], spec.f.node(k)), tol=tol,
                        start=starts[k])
        assert block.iterations[k] == one.iterations
        assert spec.x_space.distance(block.u[k], one.u) <= tol
        assert block.residuals[k] <= tol


def test_global_picard_sweeps_match_time_marching_on_a_contrast_rod():
    spec = contrast_rod()
    picard = solve_inclusion(spec, tol=1e-10, mode="global_picard")
    marching = solve_inclusion(spec, tol=1e-10, mode="time_marching")
    assert picard.u.sup_distance(marching.u) <= 1e-9


def scalar_block(fs):
    X = HilbertSpace(1)
    return (X, ConstraintCone.whole_space(X), MonotoneOperator(lambda u: 2.0 * u, 2.0, 2.0),
            HomogeneousFunctional.zero(X), None, np.asarray(fs, float)[:, None])


def test_a_nan_load_names_its_row_and_the_first_iteration():
    with pytest.raises(NonFiniteError, match="^row 2: non-finite step at iteration 1$") as info:
        solve_evi_many(*scalar_block([1.0, 1.0, np.nan, np.nan]))
    assert info.value.row == 2
    assert info.value.reason == "non-finite step at iteration 1"
    assert isinstance(info.value, NonConvergenceError)


def test_a_nan_parameter_names_its_row_at_the_first_non_finite_iterate():
    # the step is finite; the prox of a mixed unit turns the NaN threshold
    # into a NaN coordinate of the iterate
    X = HilbertSpace(1)
    functional = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0],
                                                     indices=[0])
    etas = np.array([[0.5], [np.nan], [1.0]])
    with pytest.raises(NonFiniteError, match="^row 1: non-finite iterate at iteration 1$"):
        solve_evi_many(X, ConstraintCone.nonnegative(X, [0]),
                       MonotoneOperator(lambda u: 2.0 * u, 2.0, 2.0), functional, etas,
                       np.ones((3, 1)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_finite_iterate_whose_displacement_norm_overflows_is_named_so():
    # A = I: row 1's first iterate is its load 1e305 (1, 1, 1), finite, but
    # the square of its displacement norm overflows
    X = HilbertSpace(3)
    fs = np.ones((2, 3))
    fs[1] *= 1e305
    with pytest.raises(NonFiniteError, match=r"^row 1: displacement norm overflowed at "
                                             r"iteration 1 \(the iterate is finite\)$") as info:
        solve_evi_many(X, ConstraintCone.whole_space(X), MonotoneOperator(lambda u: u, 1.0, 1.0),
                       HomogeneousFunctional.zero(X), None, fs)
    assert np.array_equal(info.value.last_iterate, fs[1])
    assert info.value.displacement == np.inf


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_an_overflowing_load_is_a_non_finite_step_in_the_energy_metric():
    # a finite load whose covector M f overflows: the step, not the Riesz map
    # inside it, reports it
    spec = contrast_rod()
    assert spec.iteration_metric.name == "energy"
    fs = np.full((3, spec.x_space.dim), 1.7e308)
    fs[0] = 1.0
    with pytest.raises(NonFiniteError, match="^row 1: non-finite step at iteration 1$"):
        solve_evi_many(spec.x_space, spec.cone, spec.operator, spec.functional,
                       np.zeros((1, 1)), fs, metric=spec.iteration_metric)


def test_a_block_of_no_rows_returns_empty_solutions():
    sols = solve_evi_many(*scalar_block([]))
    assert sols.u.shape == (0, 1)
    for values in (sols.iterations, sols.residuals, sols.contraction_estimates):
        assert values.shape == (0,)
    assert sols.iterations.dtype.kind == "i"


@pytest.mark.parametrize("count", [0, 2, 4])
def test_a_parameter_block_of_another_height_is_a_dimension_error(count):
    X = HilbertSpace(1)
    functional = HomogeneousFunctional.positive_part(X, HilbertSpace(1), weights=[1.0],
                                                     indices=[0])
    with pytest.raises(DimensionMismatchError,
                       match=f"^expected 1 or 3 parameter rows, got {count}$"):
        solve_evi_many(X, ConstraintCone.whole_space(X),
                       MonotoneOperator(lambda u: 2.0 * u, 2.0, 2.0), functional,
                       np.ones((count, 1)), np.ones((3, 1)))


def scalar_spec(steps, bad=None):
    """``2 u = 1`` at every node, with a NaN load at node ``bad``."""
    X = HilbertSpace(1)
    grid = TimeGrid(1.0, steps)
    f = Trajectory(X, grid, np.where(np.arange(steps + 1) == bad, np.nan, 1.0)[:, None])
    return build_inclusion_variant("parameter_free", cone=ConstraintCone.whole_space(X),
                                   operator=MonotoneOperator(lambda x: 2.0 * x, 2.0, 2.0),
                                   functional=HomogeneousFunctional.zero(X), f=f, grid=grid)


def test_a_nan_load_names_its_node_in_global_picard():
    with pytest.raises(NonFiniteError,
                       match="^EVI stalled at node 4: non-finite step at iteration 1$"):
        solve_inclusion(scalar_spec(6, bad=4), mode="global_picard")


def test_a_nan_load_names_its_node_inside_a_marching_window():
    # windows are causal, so the clean run lays them out the same up to node 5
    windows = solve_inclusion(scalar_spec(16)).diagnostics["windows"]
    assert any(first < 5 < last for first, last in windows)
    with pytest.raises(NonFiniteError,
                       match="^EVI stalled at node 5: non-finite step at iteration 1$"):
        solve_inclusion(scalar_spec(16, bad=5))


def test_marching_solves_node_0_first_through_solve_evi(monkeypatch):
    # the benchmark's set-up probe stops a run at its first solve_evi call
    import sweepvi.inclusion as inclusion

    calls = []

    def recorded(name, solver):
        def call(*args, **kwargs):
            result = solver(*args, **kwargs)
            calls.append((name, np.size(result.iterations)))
            return result
        return call

    monkeypatch.setattr(inclusion, "solve_evi", recorded("solve_evi", solve_evi))
    monkeypatch.setattr(inclusion, "solve_evi_many", recorded("solve_evi_many", solve_evi_many))
    sol = solve_inclusion(scalar_spec(16))
    assert calls[0] == ("solve_evi", 1)
    assert [name for name, _ in calls].count("solve_evi") == 1
    assert max(rows for _, rows in calls) > 1
    assert sol.diagnostics["windows"][0] == (0, 0)


def test_the_first_stalled_row_is_named():
    X = HilbertSpace(2)
    op = MonotoneOperator.from_matrix(X, np.diag([1.0, 100.0]))
    fs = np.ones((3, 2))
    exact = np.array([1.0, 0.01])
    starts = np.array([exact, [50.0, 50.0], [-50.0, 50.0]])
    with pytest.raises(NonConvergenceError, match="^row 1: no convergence in 3 iterations") as info:
        solve_evi_many(X, ConstraintCone.whole_space(X), op, HomogeneousFunctional.zero(X), None,
                       fs, tol=1e-14, max_iter=3, starts=starts)
    assert info.value.row == 1
    assert info.value.displacement > 0


def test_time_marching_needs_two_inner_passes():
    spec = contrast_rod(steps=2)
    for mode in ("time_marching", "global_picard"):
        with pytest.raises(ValueError, match="max_passes"):
            solve_inclusion(spec, mode=mode, max_passes=1)
        assert solve_inclusion(spec, mode=mode).converged
