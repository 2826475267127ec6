import numpy as np
import pytest

from sweepvi import (
    ConstraintCone,
    EviProblem,
    GridSearchConfig,
    HilbertSpace,
    HomogeneousFunctional,
    MonotoneOperator,
    OracleInconclusiveError,
    TimeGrid,
    Trajectory,
    VolterraKernel,
    brute_inclusion,
    brute_vi,
    build_inclusion_variant,
    fd_derivative_check,
    solve_evi,
    solve_inclusion,
    volterra_operator,
)

X1 = HilbertSpace(1)
Y1 = HilbertSpace(1)


def scalar_problem(f, weight=0.0):
    if weight:
        functional = HomogeneousFunctional.block_norm(X1, Y1, weights=[weight], blocks=[[0]])
        eta = np.array([1.0])
    else:
        functional = HomogeneousFunctional.zero(X1)
        eta = np.array([1.0])
    return EviProblem(space=X1, cone=ConstraintCone.whole_space(X1),
                      operator=MonotoneOperator.from_matrix(X1, [[1.0]]),
                      functional=functional, eta=eta,
                      f=np.atleast_1d(np.asarray(f, dtype=float)))


class TestGridSearchConfig:
    def test_scalar_entries_broadcast(self):
        radius, res, center = GridSearchConfig(radius=2.0, resolution=11).axes(3)
        np.testing.assert_array_equal(radius, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(res, [11, 11, 11])
        np.testing.assert_array_equal(center, [0.0, 0.0, 0.0])

    def test_per_axis_entries_pass_through(self):
        cfg = GridSearchConfig(radius=[1.0, 2.0], resolution=[5, 7], center=[0.5, -0.5])
        radius, res, center = cfg.axes(2)
        np.testing.assert_array_equal(radius, [1.0, 2.0])
        np.testing.assert_array_equal(res, [5, 7])
        np.testing.assert_array_equal(center, [0.5, -0.5])

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            GridSearchConfig().axes(4)

    def test_rejects_degenerate_boxes(self):
        with pytest.raises(ValueError):
            GridSearchConfig(radius=0.0).axes(1)
        with pytest.raises(ValueError):
            GridSearchConfig(resolution=2).axes(1)

    def test_rejects_oversized_grids(self):
        with pytest.raises(ValueError):
            GridSearchConfig(resolution=100000).axes(2)


class TestBruteVi:
    def test_unconstrained_quadratic_minimum(self):
        u = brute_vi(scalar_problem(2.0), GridSearchConfig(radius=3.0, resolution=121))
        assert abs(u[0] - 2.0) < 0.05

    def test_soft_threshold_shrinks_by_the_weight(self):
        # u + sign(u) = 2 has the solution u = 1, on the grid exactly
        u = brute_vi(scalar_problem(2.0, weight=1.0),
                     GridSearchConfig(radius=3.0, resolution=121))
        assert u[0] == pytest.approx(1.0, abs=1e-12)

    def test_constrained_2d_matches_the_fast_solver(self):
        X2 = HilbertSpace(2, metric=np.diag([2.0, 0.5]))
        problem = EviProblem(
            space=X2, cone=ConstraintCone.nonnegative(X2, [1]),
            operator=MonotoneOperator.from_matrix(X2, np.diag([2.0, 3.0])),
            functional=HomogeneousFunctional.positive_part(X2, Y1, weights=[0.8],
                                                           indices=[0]),
            eta=np.array([1.0]), f=np.array([1.5, -1.0]))
        coarse = brute_vi(problem, GridSearchConfig(radius=2.0, resolution=161))
        fast = solve_evi(problem, tol=1e-12)
        assert X2.distance(coarse, fast.u) < 1e-3
        assert coarse[1] == 0.0  # cone face is on the grid

    def test_two_runs_are_bitwise_identical(self):
        cfg = GridSearchConfig(radius=2.0, resolution=81)
        a = brute_vi(scalar_problem(1.5, weight=0.5), cfg)
        b = brute_vi(scalar_problem(1.5, weight=0.5), cfg)
        assert np.array_equal(a, b)

    def test_solution_on_the_box_edge_is_reported(self):
        with pytest.raises(OracleInconclusiveError):
            brute_vi(scalar_problem(5.0), GridSearchConfig(radius=3.0, resolution=61))

    def test_empty_feasible_set_is_reported(self):
        problem = EviProblem(space=X1, cone=ConstraintCone.zero(X1, [0]),
                             operator=MonotoneOperator.from_matrix(X1, [[1.0]]),
                             functional=HomogeneousFunctional.zero(X1),
                             eta=np.array([1.0]), f=np.array([0.0]))
        # box centered away from the only feasible point
        with pytest.raises(ValueError):
            brute_vi(problem, GridSearchConfig(radius=1.0, resolution=31, center=4.0))


def coupled_2d_node():
    """Node 8 of a 2-D memory-pair run, where the first refinement's pick is on its edge."""
    X = HilbertSpace(2, np.diag([1.0, 2.0]))         # M H = [[2, 1], [1, 6]] is symmetric
    return EviProblem(space=X, cone=ConstraintCone.nonnegative(X, [0, 1]),
                      operator=MonotoneOperator.from_matrix(X, [[2.0, 1.0], [0.5, 3.0]]),
                      functional=HomogeneousFunctional.positive_part(
                          X, HilbertSpace(2), weights=[0.4, 0.2], indices=[0, 1]),
                      eta=np.array([0.0829, 0.0509]), f=np.array([1.2808, 1.3784]))


class TestRefinement:
    CFG = GridSearchConfig(radius=1.5, resolution=81)
    FINE_SPACING = 1.25 * (3.0 / 80) * 2.0 / 80

    def test_an_edge_pick_is_refined_again_until_it_is_interior(self):
        # refined once, the pick lies on its box's edge, 9.8e-3 from the solution
        problem = coupled_2d_node()
        exact = solve_evi(problem, tol=1e-12).u
        pick = brute_vi(problem, self.CFG)
        assert np.abs(pick - exact).max() <= 2.0 * self.FINE_SPACING

    def test_the_last_box_brings_the_pick_within_a_quarter_of_the_fine_spacing(self):
        problem = coupled_2d_node()
        exact = solve_evi(problem, tol=1e-12).u
        assert np.abs(brute_vi(problem, self.CFG) - exact).max() <= 0.25 * self.FINE_SPACING

    def test_the_refinement_moves_a_bounded_number_of_times(self, monkeypatch):
        import sweepvi.oracle as oracle

        monkeypatch.setattr(oracle, "_RECENTRINGS", 0)
        with pytest.raises(OracleInconclusiveError, match="still touches its box"):
            brute_vi(coupled_2d_node(), self.CFG)


class TestBruteInclusion:
    @staticmethod
    def decay_spec(steps):
        grid = TimeGrid(1.0, steps)
        kern = VolterraKernel(scalar_profile=lambda t: 0.5, matrix=1.0)
        return build_inclusion_variant(
            "parameter_free", cone=ConstraintCone.whole_space(X1),
            operator=MonotoneOperator.from_matrix(X1, [[2.0]]),
            functional=HomogeneousFunctional.zero(X1),
            f=Trajectory.constant(X1, grid, [1.0]), grid=grid,
            load_memory=volterra_operator(kern, grid, X1))

    def test_agrees_with_the_fast_solver(self):
        spec = self.decay_spec(12)
        slow = brute_inclusion(spec, GridSearchConfig(radius=1.5, resolution=301))
        fast = solve_inclusion(spec, tol=1e-12)
        assert np.max(np.abs(slow.samples - fast.u.samples)) < 1e-4

    def test_time_step_cap(self):
        with pytest.raises(ValueError):
            brute_inclusion(self.decay_spec(17))

    def test_dimension_cap(self):
        W = HilbertSpace(3)
        grid = TimeGrid(1.0, 4)
        spec = build_inclusion_variant(
            "parameter_free", cone=ConstraintCone.whole_space(W),
            operator=MonotoneOperator.from_matrix(W, 2.0 * np.eye(3)),
            functional=HomogeneousFunctional.zero(W),
            f=Trajectory.constant(W, grid, [1.0, 0.0, 0.0]), grid=grid)
        with pytest.raises(ValueError):
            brute_inclusion(spec)


class TestFdDerivativeCheck:
    def test_cubic_displacement_leaves_the_quadrature_defect(self):
        # central differences of t^3 differ from 3t^2 by exactly dt^2
        grid = TimeGrid(1.0, 10)
        u = Trajectory(X1, grid, (grid.nodes**3)[:, None])
        v = Trajectory(X1, grid, (3.0 * grid.nodes**2)[:, None])
        assert fd_derivative_check(u, v) == pytest.approx(grid.dt**2, rel=1e-12)

    def test_quadratic_displacement_is_exact(self):
        grid = TimeGrid(1.0, 10)
        u = Trajectory(X1, grid, (grid.nodes**2)[:, None])
        v = Trajectory(X1, grid, (2.0 * grid.nodes)[:, None])
        assert fd_derivative_check(u, v) < 1e-14

    def test_mismatched_grids_rejected(self):
        u = Trajectory(X1, TimeGrid(1.0, 10), np.zeros((11, 1)))
        v = Trajectory(X1, TimeGrid(1.0, 8), np.zeros((9, 1)))
        with pytest.raises(ValueError):
            fd_derivative_check(u, v)
