import numpy as np
import pytest

from sweepvi import (
    AuditError,
    ConstraintCone,
    DimensionMismatchError,
    HilbertSpace,
    HomogeneousFunctional,
    IneligibleOperatorError,
    LipschitzOperator,
    MonotoneOperator,
    SmallnessError,
    SweepingSpec,
    TimeGrid,
    Trajectory,
    VolterraKernel,
    antiderivative_memory,
    build_inclusion_variant,
    build_sweeping_variant,
    check_smallness,
    compose_with_antiderivative,
    fd_derivative_check,
    identity_operator,
    integrate_velocity,
    lift_to_velocity,
    solve_sweeping,
    solve_sweeping_direct,
    trapezoid_weights,
    volterra_operator,
)

X = HilbertSpace(1)
Y = HilbertSpace(1)
FREE = ConstraintCone.whole_space(X)


def ode_spec(steps, g=1.0, a=2.0, b=1.0, cone=None, f_values=None):
    """a v + b u = g with u(0) = 0: u = (g/b)(1 - e^{-bt/a})."""
    grid = TimeGrid(1.0, steps)
    if f_values is None:
        f = Trajectory.constant(X, grid, [g])
    else:
        f = Trajectory(X, grid, f_values[:, None])
    core = build_inclusion_variant(
        "parameter_free",
        cone=cone or FREE,
        operator=MonotoneOperator.from_matrix(X, [[a]]),
        functional=HomogeneousFunctional.zero(X),
        f=f,
        grid=grid,
    )
    b_op = LipschitzOperator(apply=lambda u: b * u, L=b, tag="spring")
    return build_sweeping_variant("memory_pair", core=core, b_op=b_op, u0=[0.0])


class TestIntegrateVelocity:
    def test_initial_value_is_exact(self):
        grid = TimeGrid(1.0, 8)
        v = Trajectory(X, grid, np.sin(grid.nodes)[:, None])
        u = integrate_velocity(v, [0.7])
        assert u.samples[0, 0] == 0.7

    def test_constant_velocity_integrates_exactly(self):
        grid = TimeGrid(1.0, 16)
        v = Trajectory.constant(X, grid, [3.0])
        u = integrate_velocity(v, [1.0])
        np.testing.assert_array_equal(u.samples[:, 0], 1.0 + 3.0 * grid.nodes)

    def test_linear_velocity_integrates_exactly(self):
        # trapezoid quadrature is exact on affine integrands
        grid = TimeGrid(1.0, 16)
        v = Trajectory(X, grid, (2.0 * grid.nodes)[:, None])
        u = integrate_velocity(v, [0.0])
        np.testing.assert_allclose(u.samples[:, 0], grid.nodes**2, atol=1e-15)

    def test_quadratic_velocity_error_is_second_order(self):
        errs = []
        for steps in (16, 32):
            grid = TimeGrid(1.0, steps)
            v = Trajectory(X, grid, (grid.nodes**2)[:, None])
            u = integrate_velocity(v, [0.0])
            errs.append(np.max(np.abs(u.samples[:, 0] - grid.nodes**3 / 3.0)))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.2)

    def test_equals_the_antiderivative_memory_bit_for_bit(self):
        space = HilbertSpace(3)
        grid = TimeGrid(1.3, 41)
        rng = np.random.default_rng(8)
        v = Trajectory(space, grid, rng.standard_normal((42, 3)) * [1e-6, 1.0, 1e6])
        u0 = rng.standard_normal(3)
        want = antiderivative_memory(grid, space, u0)(v).samples
        np.testing.assert_array_equal(integrate_velocity(v, u0).samples, want)


class TestMemoryLifts:
    def test_antiderivative_memory_constants_and_values(self):
        grid = TimeGrid(1.0, 16)
        mem = antiderivative_memory(grid, X, [0.3])
        assert (mem.l, mem.L) == (0.0, 1.0)
        ones = Trajectory.constant(X, grid, [1.0])
        np.testing.assert_allclose(mem(ones).samples[:, 0], 0.3 + grid.nodes, atol=1e-15)
        assert mem.at_node(ones, 0)[0] == 0.3

    def test_antiderivative_node_shortcut_matches_full(self):
        grid = TimeGrid(1.0, 12)
        mem = antiderivative_memory(grid, X, [0.5])
        rng = np.random.default_rng(2)
        traj = Trajectory(X, grid, rng.normal(size=(13, 1)))
        full = mem(traj)
        for k in range(13):
            np.testing.assert_allclose(mem.at_node(traj, k), full.samples[k], atol=1e-14)

    def test_compose_with_antiderivative_constants(self):
        # S = identity has l = 1, L = 0; composed on [0, T] the integral
        # constant becomes l_S + T L_S = 1
        grid = TimeGrid(1.0, 16)
        comp = compose_with_antiderivative(identity_operator(), grid, X, [0.3])
        assert (comp.l, comp.L) == (0.0, 1.0)

    def test_compose_with_identity_reproduces_antiderivative(self):
        grid = TimeGrid(1.0, 16)
        comp = compose_with_antiderivative(identity_operator(), grid, X, [0.3])
        ones = Trajectory.constant(X, grid, [1.0])
        np.testing.assert_array_equal(comp(ones).samples[:, 0], 0.3 + grid.nodes)
        assert comp.at_node(ones, 8)[0] == pytest.approx(0.8)

    def test_lift_folds_coupling_into_load_memory(self):
        spec = ode_spec(16)
        lifted = lift_to_velocity(spec)
        assert lifted.load_memory.l == 0.0
        assert lifted.load_memory.L == pytest.approx(1.0)  # L_B + L_S = 1 + 0
        rep = check_smallness(lifted)
        assert rep.lhs == 0.0 and rep.passed

    def test_lifted_memory_evaluates_b_of_displacement(self):
        spec = ode_spec(8, b=0.5)
        lifted = lift_to_velocity(spec)
        grid = spec.core.grid
        v = Trajectory(X, grid, np.cos(grid.nodes)[:, None])
        disp = integrate_velocity(v, spec.u0)
        want = 0.5 * disp.samples
        got = lifted.load_memory(v)
        np.testing.assert_allclose(got.samples, want, atol=1e-14)
        for k in (0, 3, 8):
            np.testing.assert_allclose(lifted.load_memory.at_node(v, k), want[k], atol=1e-14)


class TestSolveSweeping:
    def test_matches_exponential_relaxation(self):
        spec = ode_spec(64)
        sol = solve_sweeping(spec, tol=1e-12)
        t = spec.core.grid.nodes
        assert sol.converged
        assert np.max(np.abs(sol.u.samples[:, 0] - (1.0 - np.exp(-0.5 * t)))) < 2e-6
        assert np.max(np.abs(sol.v.samples[:, 0] - 0.5 * np.exp(-0.5 * t))) < 1e-6

    def test_displacement_error_is_second_order(self):
        errs = []
        for steps in (32, 64):
            spec = ode_spec(steps)
            sol = solve_sweeping(spec, tol=1e-12)
            t = spec.core.grid.nodes
            errs.append(np.max(np.abs(sol.u.samples[:, 0] - (1.0 - np.exp(-0.5 * t)))))
        assert errs[0] == pytest.approx(6.170143507011616e-06, rel=1e-5)
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.2)

    def test_velocity_is_the_derivative_of_displacement(self):
        checks = []
        for steps in (16, 32):
            sol = solve_sweeping(ode_spec(steps), tol=1e-12)
            checks.append(fd_derivative_check(sol.u, sol.v))
        assert checks[0] < 2e-4
        assert checks[0] / checks[1] == pytest.approx(4.0, abs=0.5)

    def test_direct_marching_agrees_with_the_lift(self):
        spec = ode_spec(24)
        via_lift = solve_sweeping(spec, tol=1e-12)
        direct = solve_sweeping_direct(spec, tol=1e-12)
        assert np.max(np.abs(via_lift.u.samples - direct.u.samples)) < 1e-11
        assert np.max(np.abs(via_lift.v.samples - direct.v.samples)) < 1e-11

    def test_velocity_respects_the_cone(self):
        # load turns negative halfway; the nonnegative velocity clamps at 0
        # and the displacement plateaus
        grid = TimeGrid(1.0, 32)
        spec = ode_spec(32, cone=ConstraintCone.nonnegative(X, [0]),
                        f_values=1.0 - 2.0 * grid.nodes)
        sol = solve_sweeping(spec, tol=1e-12)
        assert sol.v.samples.min() >= 0.0
        assert sol.v.samples[0, 0] == pytest.approx(0.5)
        assert sol.v.samples[-1, 0] == 0.0
        assert np.all(np.diff(sol.u.samples[:, 0]) >= -1e-15)

    def test_initial_displacement_is_bitwise_exact(self):
        spec = ode_spec(16)
        spec = SweepingSpec(core=spec.core, b_op=spec.b_op, u0=[0.2])
        sol = solve_sweeping(spec, tol=1e-11)
        assert sol.u.samples[0, 0] == 0.2


class TestVariantsAndAudits:
    def test_displacement_parameter_feeds_u_back_as_eta(self):
        grid = TimeGrid(1.0, 16)
        jp = HomogeneousFunctional.positive_part(X, Y, weights=[0.5], indices=[0])
        core = build_inclusion_variant(
            "state_parameter", cone=FREE,
            operator=MonotoneOperator.from_matrix(X, [[3.0]]),
            functional=jp, f=Trajectory.constant(X, grid, [1.0]), grid=grid)
        b_op = LipschitzOperator(apply=lambda u: 0.5 * u, L=0.5, tag="spring")
        spec = build_sweeping_variant("displacement_parameter", core=core,
                                      b_op=b_op, u0=[0.2])
        sol = solve_sweeping(spec, tol=1e-11)
        assert sol.converged
        assert np.max(np.abs(sol.eta.samples - sol.u.samples)) < 1e-12

    def test_memory_pair_rejects_instantaneous_velocity_memories(self):
        grid = TimeGrid(1.0, 8)
        jp = HomogeneousFunctional.positive_part(X, Y, weights=[0.5], indices=[0])
        core = build_inclusion_variant(
            "state_parameter", cone=FREE,
            operator=MonotoneOperator.from_matrix(X, [[3.0]]),
            functional=jp, f=Trajectory.constant(X, grid, [1.0]), grid=grid)
        with pytest.raises(IneligibleOperatorError):
            build_sweeping_variant("memory_pair", core=core,
                                   b_op=LipschitzOperator(apply=lambda u: u, L=1.0),
                                   u0=[0.0])

    def test_both_sweeping_solvers_enforce_the_gate_the_builders_leave_open(self):
        # state feedback with alpha + 1 = 3 >= m = 1 builds; each solver refuses it
        grid = TimeGrid(1.0, 8)
        jp = HomogeneousFunctional.positive_part(X, Y, weights=[2.0], indices=[0])
        core = build_inclusion_variant(
            "state_parameter", cone=FREE,
            operator=MonotoneOperator.from_matrix(X, [[1.0]]),
            functional=jp, f=Trajectory.constant(X, grid, [1.0]), grid=grid)
        spec = SweepingSpec(core=core, b_op=LipschitzOperator.zero(), u0=[0.0])
        for solve in (solve_sweeping, solve_sweeping_direct):
            with pytest.raises(SmallnessError):
                solve(spec, tol=1e-10)

    def test_displacement_parameter_needs_matching_spaces(self):
        grid = TimeGrid(1.0, 8)
        W = HilbertSpace(2)
        core = build_inclusion_variant(
            "parameter_free", cone=ConstraintCone.whole_space(W),
            operator=MonotoneOperator.from_matrix(W, 2.0 * np.eye(2)),
            functional=HomogeneousFunctional.zero(W),
            f=Trajectory.constant(W, grid, [1.0, 0.0]), grid=grid)
        with pytest.raises(DimensionMismatchError):
            build_sweeping_variant("displacement_parameter", core=core,
                                   b_op=LipschitzOperator(apply=lambda u: u, L=1.0),
                                   u0=[0.0, 0.0])

    def test_displacement_load_needs_the_memory(self):
        spec = ode_spec(8)
        with pytest.raises(ValueError):
            build_sweeping_variant("displacement_load", core=spec.core,
                                   b_op=spec.b_op, u0=[0.0])

    def test_unknown_variant_rejected(self):
        spec = ode_spec(8)
        with pytest.raises(ValueError):
            build_sweeping_variant("spiral", core=spec.core, b_op=spec.b_op, u0=[0.0])

    def test_the_coupling_is_audited_on_the_iteration_plans_pairs(self, monkeypatch):
        import sweepvi.sweeping as sweeping

        calls = []
        audit = sweeping.audit_lipschitz

        def recording(op, space, trials, seed):
            calls.append((trials, seed))
            return audit(op, space, trials, seed)

        monkeypatch.setattr(sweeping, "audit_lipschitz", recording)
        ode_spec(8)
        assert calls == [(256, 0)]

    def test_understated_coupling_constant_caught_at_build(self):
        spec = ode_spec(8)
        with pytest.raises(AuditError):
            SweepingSpec(core=spec.core,
                         b_op=LipschitzOperator(apply=lambda u: 2.0 * u, L=0.5, tag="liar"),
                         u0=[0.0])


def stepped(op, traj):
    """Outputs of the causal protocol, one ``step`` per node from ``init_state``."""
    state = op.init_state(traj.grid)
    rows = []
    for k in range(traj.grid.steps + 1):
        state, out = op.step(state, k, traj.samples[k])
        rows.append(np.array(out, dtype=float))
    return np.array(rows)


def displacement_reference(v, u0):
    """``u0 + sum_j w_j v_j`` with explicit trapezoid weights, node by node."""
    return np.array([u0 + trapezoid_weights(k, v.grid.dt) @ v.samples[:k + 1]
                     for k in range(v.grid.steps + 1)])


class TestCausalStepProtocol:
    W = HilbertSpace(2)

    def velocity(self, steps=20, seed=6):
        grid = TimeGrid(1.2, steps)
        rng = np.random.default_rng(seed)
        return Trajectory(self.W, grid, rng.standard_normal((steps + 1, 2)))

    @staticmethod
    def assert_all_paths(op, traj, want):
        np.testing.assert_allclose(stepped(op, traj), want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(op(traj).samples, want, rtol=0.0, atol=1e-13)
        for k in (0, 1, traj.grid.steps):
            np.testing.assert_allclose(op.at_node(traj, k), want[k], rtol=0.0, atol=1e-13)

    def test_antiderivative_memory_matches_trapezoid_reference(self):
        v = self.velocity()
        u0 = np.array([0.4, -1.1])
        want = displacement_reference(v, u0)
        self.assert_all_paths(antiderivative_memory(v.grid, self.W, u0), v, want)
        np.testing.assert_array_equal(want[0], u0)

    def test_compose_with_antiderivative_matches_reference(self):
        v = self.velocity()
        u0 = np.array([0.4, -1.1])
        kernel = VolterraKernel.exponential(0.6, 2.0, [[1.0, 0.2], [0.2, 0.5]])
        s_op = volterra_operator(kernel, v.grid, self.W)
        disp = Trajectory(self.W, v.grid, displacement_reference(v, u0))
        want = s_op(disp).samples
        comp = compose_with_antiderivative(s_op, v.grid, self.W, u0)
        self.assert_all_paths(comp, v, want)

    def test_lift_to_velocity_matches_reference(self):
        spec = ode_spec(20, b=0.5)
        grid = spec.core.grid
        rng = np.random.default_rng(8)
        v = Trajectory(X, grid, rng.standard_normal((21, 1)))
        want = 0.5 * displacement_reference(v, spec.u0)      # S = 0 in ode_spec
        self.assert_all_paths(lift_to_velocity(spec).load_memory, v, want)

    def test_the_lift_of_an_elastic_coupling_is_the_step_loop_bit_for_bit(self):
        # with b > 0 the block form of assemble_elastic (apply_rows) rounds
        # differently from one b_op call per row; a block pass of the lifted
        # memory must give the bits of stepping it node by node
        from sweepvi import ContactLaw, Loads, Material, Mesh1D, build_problem

        grid = TimeGrid(1.0, 12)
        problem = build_problem("shear_friction", Mesh1D.uniform(1.0, 8), Material(a=0.5, b=0.3),
                                ContactLaw.saturating(0.3, 60.0), Loads(body=[0.0, 1.2]), grid)
        lifted = problem.spec.inclusion.load_memory
        rng = np.random.default_rng(4)
        v = Trajectory(problem.space, grid, rng.standard_normal((13, problem.space.dim)))
        _, block = lifted.run(lifted.init_state(grid), 0, v.samples)
        np.testing.assert_array_equal(block, stepped(lifted, v))

    def test_marching_and_global_picard_agree_on_a_lifted_spec(self):
        grid = TimeGrid(1.0, 12)
        kernel = VolterraKernel.exponential(0.5, 1.0, np.eye(1))
        core = build_inclusion_variant(
            "parameter_free", cone=ConstraintCone.nonnegative(X, [0]),
            operator=MonotoneOperator.from_matrix(X, [[2.0]]),
            functional=HomogeneousFunctional.zero(X),
            f=Trajectory(X, grid, (1.0 - 1.5 * grid.nodes)[:, None]), grid=grid,
            load_memory=volterra_operator(kernel, grid, X))
        spec = SweepingSpec(core=core, b_op=LipschitzOperator(apply=lambda u: 0.5 * u, L=0.5),
                            u0=[0.1])
        marching = solve_sweeping(spec, tol=1e-12, mode="time_marching")
        picard = solve_sweeping(spec, tol=1e-12, mode="global_picard")
        assert marching.converged and picard.converged
        assert np.max(np.abs(marching.v.samples - picard.v.samples)) < 1e-10
        assert np.max(np.abs(marching.u.samples - picard.u.samples)) < 1e-10
