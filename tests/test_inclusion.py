import warnings
from dataclasses import replace

import numpy as np
import pytest

import sweepvi.evi as evi
from sweepvi import (
    AuditError,
    ConstraintCone,
    ContactLaw,
    DimensionMismatchError,
    EviProblem,
    ExponentialProfile,
    HilbertSpace,
    HistoryOperator,
    HomogeneousFunctional,
    InclusionSpec,
    IneligibleOperatorError,
    LipschitzOperator,
    Loads,
    Material,
    Mesh1D,
    MonotoneOperator,
    NonConvergenceError,
    SmallnessError,
    TimeGrid,
    Trajectory,
    VolterraKernel,
    apply_coupling_map,
    build_inclusion_variant,
    build_problem,
    check_smallness,
    identity_operator,
    iteration_metric,
    lift_to_velocity,
    solve_evi,
    solve_evi_many,
    solve_inclusion,
    solve_intermediate,
    stability_gap_violation,
    volterra_operator,
    zero_operator,
)
from sweepvi.inclusion import _fit, _Mixer, _predict, _theta_changes

X = HilbertSpace(1)
Y = HilbertSpace(1)
FREE = ConstraintCone.whole_space(X)


def decay_spec(steps, horizon=1.0):
    """2 u(t) + 0.5 int_0^t u = 1, hence u(t) = e^{-t/4} / 2."""
    grid = TimeGrid(horizon, steps)
    kern = VolterraKernel(scalar_profile=lambda t: 0.5, matrix=np.eye(1))
    return build_inclusion_variant(
        "parameter_free",
        cone=FREE,
        operator=MonotoneOperator.from_matrix(X, [[2.0]]),
        functional=HomogeneousFunctional.zero(X),
        f=Trajectory.constant(X, grid, [1.0]),
        grid=grid,
        load_memory=volterra_operator(kern, grid, X),
    )


def feedback_spec(weight=0.8, stiffness=4.0, steps=8):
    """State feedback eta = u with j = weight * eta * max(u, 0)."""
    grid = TimeGrid(1.0, steps)
    return build_inclusion_variant(
        "state_parameter",
        cone=FREE,
        operator=MonotoneOperator.from_matrix(X, [[stiffness]]),
        functional=HomogeneousFunctional.positive_part(X, Y, weights=[weight], indices=[0]),
        f=Trajectory.constant(X, grid, [1.0]),
        grid=grid,
    )


class TestSmallnessReport:
    def test_gate_arithmetic(self):
        rep = check_smallness(feedback_spec())
        assert rep.alpha == pytest.approx(0.8)
        assert rep.l_parameter == 1.0
        assert rep.l_load == 0.0
        assert rep.m == pytest.approx(4.0)
        assert rep.lhs == pytest.approx(1.8)
        assert rep.ratio == pytest.approx(0.45)
        assert rep.passed

    def test_describe_mentions_verdict(self):
        assert "[pass]" in check_smallness(feedback_spec()).describe()

    def test_memory_pair_gate_passes_for_free(self):
        rep = check_smallness(decay_spec(8))
        assert rep.lhs == 0.0
        assert rep.passed


class TestSpecValidation:
    def test_load_on_wrong_grid_rejected(self):
        grid = TimeGrid(1.0, 8)
        other = TimeGrid(1.0, 9)
        kern = VolterraKernel(scalar_profile=lambda t: 0.5, matrix=np.eye(1))
        with pytest.raises(DimensionMismatchError):
            InclusionSpec(
                x_space=X, y_space=Y, cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[2.0]]),
                functional=HomogeneousFunctional.zero(X),
                parameter_memory=zero_operator(Y),
                load_memory=volterra_operator(kern, grid, X),
                f=Trajectory.constant(X, other, [1.0]),
                grid=grid,
            )

    def test_memory_with_wrong_output_dimension_rejected(self):
        grid = TimeGrid(1.0, 4)
        wide = HilbertSpace(2)
        with pytest.raises(DimensionMismatchError):
            InclusionSpec(
                x_space=X, y_space=Y, cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[2.0]]),
                functional=HomogeneousFunctional.zero(X),
                parameter_memory=zero_operator(wide),  # Y is 1-dimensional
                load_memory=zero_operator(X),
                f=Trajectory.constant(X, grid, [1.0]),
                grid=grid,
            )

    def test_intermediate_solve_checks_theta_width(self):
        spec = decay_spec(4)
        wide, eta, xi = (Trajectory.zeros(S, spec.grid) for S in (HilbertSpace(2), Y, X))
        for theta in ((wide, xi), (eta, wide)):
            with pytest.raises(DimensionMismatchError):
                solve_intermediate(theta, spec)


class TestBuilderVariants:
    def test_memory_pair_requires_strict_history(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(IneligibleOperatorError):
            build_inclusion_variant(
                "memory_pair",
                cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[2.0]]),
                functional=HomogeneousFunctional.zero(X),
                f=Trajectory.constant(X, grid, [1.0]),
                grid=grid,
                parameter_memory=identity_operator(),  # l = 1
                load_memory=zero_operator(X),
            )

    def test_memory_pair_requires_both_memories(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            build_inclusion_variant(
                "memory_pair",
                cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[2.0]]),
                functional=HomogeneousFunctional.zero(X),
                f=Trajectory.constant(X, grid, [1.0]),
                grid=grid,
                load_memory=zero_operator(X),
            )

    def test_state_parameter_rejects_parameter_free_functional(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            build_inclusion_variant(
                "state_parameter",
                cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[4.0]]),
                functional=HomogeneousFunctional.zero(X),
                f=Trajectory.constant(X, grid, [1.0]),
                grid=grid,
            )

    def test_state_parameter_builds_past_a_failed_gate_that_the_solve_enforces(self):
        # alpha + 1 = 3 >= m = 1: the builder checks structure, the solve the gate
        spec = feedback_spec(weight=2.0, stiffness=1.0)
        assert not check_smallness(spec).passed
        with pytest.raises(SmallnessError):
            solve_inclusion(spec, tol=1e-10)
        assert solve_inclusion(spec, tol=1e-10, force=True).diagnostics["forced"]

    def test_parameter_free_rejects_parameter_dependent_functional(self):
        grid = TimeGrid(1.0, 4)
        jp = HomogeneousFunctional.positive_part(X, Y, weights=[1.0], indices=[0])
        with pytest.raises(ValueError):
            build_inclusion_variant(
                "parameter_free",
                cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[2.0]]),
                functional=jp,
                f=Trajectory.constant(X, grid, [1.0]),
                grid=grid,
            )

    def test_parameter_free_refuses_a_parameter_memory(self):
        # its functional reads no parameter, yet the memory's l = 1 would
        # enter the gate: (0 + 1)(1 + 0) >= m = 0.9 on a problem with no coupling
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match="parameter_free takes no parameter memory"):
            build_inclusion_variant(
                "parameter_free",
                cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[0.9]]),
                functional=HomogeneousFunctional.zero(X),
                f=Trajectory.constant(X, grid, [1.0]),
                grid=grid,
                parameter_memory=identity_operator(),
            )

    def test_unknown_variant_rejected(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            build_inclusion_variant(
                "surprise",
                cone=FREE,
                operator=MonotoneOperator.from_matrix(X, [[2.0]]),
                functional=HomogeneousFunctional.zero(X),
                f=Trajectory.constant(X, grid, [1.0]),
                grid=grid,
            )


class TestDecoupledLayer:
    def test_no_memory_reduces_to_node_by_node_inversion(self):
        grid = TimeGrid(1.0, 6)
        spec = build_inclusion_variant(
            "parameter_free",
            cone=FREE,
            operator=MonotoneOperator.from_matrix(X, [[2.0]]),
            functional=HomogeneousFunctional.zero(X),
            f=Trajectory(X, grid, (1.0 + grid.nodes)[:, None]),
            grid=grid,
        )
        sol = solve_inclusion(spec, tol=1e-12)
        np.testing.assert_allclose(sol.u.samples[:, 0], (1.0 + grid.nodes) / 2.0, atol=1e-11)

    @staticmethod
    def random_pair(spec, rng):
        # one draw per pair: column 0 is eta, column 1 is xi
        draw = np.abs(rng.normal(size=(9, 2)))
        return (Trajectory(spec.y_space, spec.grid, draw[:, :1]),
                Trajectory(spec.x_space, spec.grid, draw[:, 1:]))

    def test_stability_gap_never_violated(self):
        spec = feedback_spec()
        rng = np.random.default_rng(3)
        th1, th2 = self.random_pair(spec, rng), self.random_pair(spec, rng)
        assert stability_gap_violation(spec, th1, th2, tol=1e-12) <= 1e-10

    def test_coupling_map_contracts_at_initial_node(self):
        # at t = 0 no history has accumulated, so the one-step
        # contraction factor is bounded by the gate ratio alone
        spec = feedback_spec()
        rep = check_smallness(spec)
        rng = np.random.default_rng(3)
        th1, th2 = self.random_pair(spec, rng), self.random_pair(spec, rng)
        p1 = apply_coupling_map(spec, th1, tol=1e-12)[:2]
        p2 = apply_coupling_map(spec, th2, tol=1e-12)[:2]

        def distance(a, b):     # the product norm of Y x X at node 0
            return np.hypot(spec.y_space.distance(a[0].samples[0], b[0].samples[0]),
                            spec.x_space.distance(a[1].samples[0], b[1].samples[0]))

        assert distance(p1, p2) / distance(th1, th2) <= rep.ratio + 0.05


class TestSolveInclusion:
    def test_volterra_decay_matches_closed_form(self):
        spec = decay_spec(64)
        sol = solve_inclusion(spec, tol=1e-12)
        exact = 0.5 * np.exp(-0.25 * spec.grid.nodes)
        assert sol.converged
        assert np.max(np.abs(sol.u.samples[:, 0] - exact)) < 2e-7

    def test_discretization_error_is_second_order(self):
        errs = []
        for steps in (32, 64):
            spec = decay_spec(steps)
            sol = solve_inclusion(spec, tol=1e-12)
            exact = 0.5 * np.exp(-0.25 * spec.grid.nodes)
            errs.append(np.max(np.abs(sol.u.samples[:, 0] - exact)))
        assert errs[0] == pytest.approx(4.951524213980818e-07, rel=1e-6)
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)

    def test_marching_and_global_modes_agree(self):
        spec = decay_spec(24)
        a = solve_inclusion(spec, tol=1e-12, mode="time_marching")
        b = solve_inclusion(spec, tol=1e-12, mode="global_picard")
        assert np.max(np.abs(a.u.samples - b.u.samples)) <= 5e-12

    def test_global_picard_counts_the_evi_iterations_of_every_sweep(self, monkeypatch):
        import sweepvi.inclusion as inclusion

        blocks, singles = [], []
        real_many, real_one = inclusion.solve_evi_many, inclusion.solve_evi

        def counting_many(*args, **kwargs):
            sols = real_many(*args, **kwargs)
            blocks.append(sols.iterations)
            return sols

        def counting_one(*args, **kwargs):
            sol = real_one(*args, **kwargs)
            singles.append(sol.iterations)
            return sol

        monkeypatch.setattr(inclusion, "solve_evi_many", counting_many)
        monkeypatch.setattr(inclusion, "solve_evi", counting_one)
        spec = decay_spec(16)
        sol = solve_inclusion(spec, tol=1e-10, mode="global_picard")
        n = spec.grid.steps
        assert sol.diagnostics["sweeps"] >= 2
        # one block per sweep, one row per node; the first sweep solves node 0
        # on its own and starts the other n rows from its solution
        assert len(blocks) == sol.diagnostics["sweeps"]
        assert len(singles) == 1
        assert [len(iters) for iters in blocks] == [n] + [n + 1] * (len(blocks) - 1)
        assert int(sol.per_step_iterations.sum()) == (
            sum(int(iters.sum()) for iters in blocks) + sum(singles))

    def test_marching_steps_a_memory_once_per_pass_and_per_commit(self):
        from dataclasses import replace

        calls = []
        stepped_spec = decay_spec(12)
        memory = stepped_spec.load_memory

        def counted(state, first, inputs):
            calls.extend(range(first, first + len(inputs)))
            return memory.run(state, first, inputs)

        spec = replace(stepped_spec, load_memory=replace(memory, advance=counted))
        calls.clear()                          # the spec probes its memories once when built
        sol = solve_inclusion(spec, tol=1e-12, mode="time_marching")
        passes = int(sol.diagnostics["inner_iterations"].sum())
        # one step per node per pass, one commit per node outside the last window
        assert len(calls) == passes + sol.diagnostics["windows"][-1][0]
        want = solve_inclusion(stepped_spec, tol=1e-12, mode="time_marching")
        np.testing.assert_array_equal(sol.u.samples, want.u.samples)

    def test_building_a_spec_steps_each_memory_once(self):
        from dataclasses import replace

        spec = decay_spec(12)
        calls = {"parameter": 0, "load": 0}

        def counted(memory, label):
            def advance(state, first, inputs):
                calls[label] += 1
                return memory.run(state, first, inputs)
            return replace(memory, advance=advance)

        replace(spec, parameter_memory=counted(spec.parameter_memory, "parameter"),
                load_memory=counted(spec.load_memory, "load"))
        assert calls == {"parameter": 1, "load": 1}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve_inclusion(decay_spec(4), mode="sideways")

    def test_state_feedback_fixed_point(self):
        # eta = u and 4u - 1 + 0.8 eta = 0 on u > 0 gives u = 1 / 4.8
        sol = solve_inclusion(feedback_spec(), tol=1e-11)
        np.testing.assert_allclose(sol.u.samples, 1.0 / 4.8, atol=1e-10)
        np.testing.assert_allclose(sol.eta.samples, sol.u.samples, atol=1e-9)
        assert not sol.xi.samples.any()

    def test_membership_residuals_certify_the_inclusion(self):
        sol = solve_inclusion(feedback_spec(), tol=1e-11)
        assert max(sol.diagnostics["membership"].values()) <= 1e-7

    def test_vi_residuals_reported_per_node(self):
        spec = decay_spec(16)
        sol = solve_inclusion(spec, tol=1e-12)
        assert sol.per_step_residuals.shape == (17,)
        assert np.all(sol.per_step_residuals <= 1e-8)


class TestGateAndForce:
    @staticmethod
    def cycling_spec(steps=8):
        # weight 2 with m = 1 fails the gate, and the state feedback
        # genuinely cycles: eta 0 -> u 1 -> eta 1 -> u 0 -> ...
        return feedback_spec(weight=2.0, stiffness=1.0, steps=steps)

    def test_failed_gate_raises_without_force(self):
        with pytest.raises(SmallnessError):
            solve_inclusion(self.cycling_spec(), tol=1e-10)

    @staticmethod
    def drifting_spec(steps=8):
        # eta = |u| and xi = 2 - u + sin(u) / 2 fail the gate, and the map has
        # no fixed point at all, so neither plain nor mixed passes can settle
        grid = TimeGrid(1.0, steps)
        return InclusionSpec(
            x_space=X, y_space=Y, cone=FREE,
            operator=MonotoneOperator.from_matrix(X, [[1.0]]),
            functional=HomogeneousFunctional.positive_part(X, Y, weights=[1.0], indices=[0]),
            parameter_memory=HistoryOperator(
                None, lambda state, first, inputs: (None, np.abs(inputs)),
                l=1.0, L=0.0, tag="magnitude", out_space=Y),
            load_memory=HistoryOperator(
                None, lambda state, first, inputs: (None, 2.0 - inputs + 0.5 * np.sin(inputs)),
                l=1.5, L=0.0, tag="drift", out_space=X),
            f=Trajectory.constant(X, grid, [1.0]),
            grid=grid,
        )

    def test_forced_run_records_the_failure_instead_of_hiding_it(self):
        spec = self.drifting_spec()
        sol = solve_inclusion(spec, tol=1e-10, force=True, max_passes=40)
        assert not sol.converged
        assert sol.diagnostics["forced"]
        assert all(sol.diagnostics["inner_iterations"] == 40)
        # passes 3..40 of each window may mix; some mixtures fell back
        windows = len(sol.diagnostics["windows"])
        assert 0 < sol.diagnostics["mixed_passes"] < 38 * windows
        assert not sol.smallness.passed
        # the last pass of a window may be mixed: u solves the EVIs for the returned theta
        again = solve_intermediate((sol.eta, sol.xi), spec, tol=0.05e-10)
        assert again.sup_distance(sol.u) <= 1e-11

    @pytest.mark.parametrize("mode", ["global_picard", "time_marching"])
    def test_mixing_settles_the_cycle_that_plain_passes_do_not(self, mode):
        # u = max(1 - 2 eta, 0) with eta = u: plain passes cycle between 0 and
        # 1; the mixed passes find the fixed point u = 1/3
        sol = solve_inclusion(self.cycling_spec(), tol=1e-10, mode=mode, force=True)
        assert sol.converged and sol.diagnostics["mixed_passes"] > 0
        assert np.abs(sol.u.samples - 1.0 / 3.0).max() <= 1e-10
        assert sol.diagnostics["coupling_passes"] <= 12 * len(sol.diagnostics["windows"])

    def test_a_window_that_does_not_settle_never_widens_the_next(self):
        sol = solve_inclusion(self.drifting_spec(), tol=1e-10, force=True, max_passes=3)
        assert not sol.converged
        windows = sol.diagnostics["windows"]
        assert all(sol.diagnostics["inner_iterations"] == 3)
        widths = [last - first + 1 for first, last in windows]
        assert all(w <= before for before, w in zip(widths, widths[1:]))
        assert len(windows) == sol.u.grid.steps + 1


class TestMarchingPredictor:
    """The starting guess of a marching window, from the nodes committed before it."""

    @staticmethod
    def quadratic(steps=16):
        # u_k = a + b t_k + c t_k^2 with dyadic coefficients on a dyadic grid,
        # so every sample is exact and only the predictor itself can round
        t = TimeGrid(1.0, steps).nodes[:, None]
        return (np.array([0.375, -1.5, 2.0]) + np.array([1.25, 0.5, -3.0]) * t
                + np.array([-2.5, 0.75, 4.0]) * t ** 2)

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 14])
    def test_windows_from_node_3_start_on_the_quadratic(self, width):
        u = self.quadratic()
        for first in range(3, 17 - width + 1):
            last = first + width - 1
            got = _predict(u, first, last)
            assert got.shape == (width, 3)
            np.testing.assert_array_max_ulp(got, u[first:last + 1], maxulp=4)

    def test_the_window_at_node_2_starts_on_the_line_through_u0_and_u1(self):
        u = self.quadratic()
        j = np.arange(5.0)[:, None]
        np.testing.assert_array_equal(_predict(u, 2, 6), (j + 2.0) * u[1] - (j + 1.0) * u[0])
        assert np.abs(_predict(u, 2, 6) - u[2:7]).max() > 1e-3

    def test_the_window_at_node_1_starts_from_u0_and_node_0_from_zero(self):
        u = self.quadratic()
        np.testing.assert_array_equal(_predict(u, 1, 4), np.tile(u[0], (4, 1)))
        np.testing.assert_array_equal(_predict(u, 0, 3), np.zeros((4, 3)))

    def test_marching_starts_each_window_from_the_predictor(self, monkeypatch):
        import sweepvi.inclusion as inclusion

        guesses = []

        def recorded(u, first, last):
            guess = _predict(u, first, last)
            guesses.append((first, last, guess.copy(), u[:first].copy()))
            return guess

        monkeypatch.setattr(inclusion, "_predict", recorded)
        sol = solve_inclusion(decay_spec(64), tol=1e-12)
        windows = sol.diagnostics["windows"]
        assert [(first, last) for first, last, _, _ in guesses] == windows
        assert any(first >= 3 for first, _ in windows)
        for first, last, guess, before in guesses:
            np.testing.assert_array_equal(before, sol.u.samples[:first])
            np.testing.assert_array_equal(guess, _predict(sol.u.samples, first, last))


class TestOperatorAudit:
    """Every solve path audits the declared (m, L) where its iteration plan is made."""

    @staticmethod
    def lying_spec():
        # 0.1 x declared as m = L = 2: the step and stopping bound would rest on it
        liar = MonotoneOperator(lambda x: 0.1 * x, 2.0, 2.0, tag="liar")
        grid = TimeGrid(1.0, 4)
        return build_inclusion_variant("parameter_free", cone=FREE, operator=liar,
                                       functional=HomogeneousFunctional.zero(X),
                                       f=Trajectory(X, grid, np.ones((5, 1))), grid=grid)

    @pytest.mark.parametrize("path", ["iteration_metric", "solve_evi", "solve_evi_many",
                                      "solve_intermediate", "apply_coupling_map",
                                      "time_marching", "global_picard"])
    def test_lying_constants_raise_on_every_solve_path(self, path):
        spec = self.lying_spec()
        op, functional = spec.operator, spec.functional
        theta = Trajectory.zeros(spec.y_space, spec.grid), Trajectory.zeros(X, spec.grid)
        calls = {
            "iteration_metric": lambda: iteration_metric(X, FREE, op, functional),
            "solve_evi": lambda: solve_evi(EviProblem(X, FREE, op, functional, None,
                                                      np.ones(1))),
            "solve_evi_many": lambda: solve_evi_many(X, FREE, op, functional, None,
                                                     np.ones((3, 1))),
            "solve_intermediate": lambda: solve_intermediate(theta, spec),
            "apply_coupling_map": lambda: apply_coupling_map(spec, theta),
            "time_marching": lambda: solve_inclusion(spec, mode="time_marching"),
            "global_picard": lambda: solve_inclusion(spec, mode="global_picard"),
        }
        with pytest.raises(AuditError, match="liar failed the sampled audit"):
            calls[path]()

    def test_a_spec_is_audited_once_across_solves(self, monkeypatch):
        spec = build_problem("normal_compliance", Mesh1D.uniform(1.0, 4), Material(a=1.0),
                             ContactLaw.linear(0.5), Loads(body=2.0), TimeGrid(1.0, 8)).spec
        calls = []
        audit = evi.audit_operator

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return audit(*args, **kwargs)

        monkeypatch.setattr(evi, "audit_operator", counting)
        solve_inclusion(spec, seed=3)
        assert calls == [{"trials": 256, "seed": 0}]
        assert spec.iteration_metric.audit.ok and spec.iteration_metric.audit.trials == 256
        solve_inclusion(spec, mode="global_picard")
        assert len(calls) == 1


class TestZeroCoupling:
    @pytest.mark.parametrize("memory", ["relaxation", "signed_zeros"])
    def test_a_zero_coupling_lift_matches_the_row_by_row_lift_bit_for_bit(self, memory):
        # b = 0 on every element: no B, and the lift is the core's load memory;
        # the row-by-row lift applies a zero stiffness through the Riesz map
        grid = TimeGrid(1.0, 16)
        prob = build_problem("shear_friction", Mesh1D.uniform(1.0, 6),
                             Material(a=0.5, beta=ExponentialProfile(0.4, 2.0)),
                             ContactLaw.saturating(0.3, 60.0), Loads(body=[0.0, 1.2]), grid)
        spec, space = prob.spec, prob.space
        assert spec.b_op is None and spec.b_audit is None
        if memory == "signed_zeros":    # a load memory whose outputs are all -0.0 or +0.0
            spec = replace(spec, core=replace(spec.core, load_memory=HistoryOperator(
                None, lambda state, first, inputs: (None, -0.0 * inputs), l=0.0, L=0.0,
                out_space=space)))
        zero = np.zeros((space.dim, space.dim))
        rows = replace(spec, b_op=LipschitzOperator(
            apply=lambda u: space.solve_metric(u @ zero), L=0.0))
        assert rows.b_audit.ok
        assert spec.inclusion.load_memory.L == rows.inclusion.load_memory.L
        fast, slow = spec.inclusion.load_memory, lift_to_velocity(rows).load_memory
        v = np.random.default_rng(3).standard_normal((grid.steps + 1, space.dim))
        v[2] = 0.0
        for windows in ([(0, 17)], [(0, 1), (1, 4), (4, 12), (12, 17)]):
            states = fast.init_state(grid), slow.init_state(grid)
            for first, stop in windows:
                (fast_state, a), (slow_state, b) = (op.run(state, first, v[first:stop])
                                                    for op, state in zip((fast, slow), states))
                states = fast_state, slow_state
                assert a.tobytes() == b.tobytes()


class TestMixing:
    @staticmethod
    def falling_spec(steps=4):
        # eta = max(0.8 - 0.9 u, 0) and u = max(1 - eta, 0): plain passes
        # step eta -> max(0.9 eta - 0.1, 0), which reaches 0 after 7 passes;
        # a mixture extrapolates the line to eta = -1
        grid = TimeGrid(1.0, steps)
        memory = HistoryOperator(
            None, lambda state, first, inputs: (None, np.maximum(0.8 - 0.9 * inputs, 0.0)),
            l=0.9, L=0.0, tag="falling", out_space=Y)
        return InclusionSpec(
            x_space=X, y_space=Y, cone=FREE,
            operator=MonotoneOperator.from_matrix(X, [[1.0]]),
            functional=HomogeneousFunctional.positive_part(X, Y, weights=[1.0], indices=[0]),
            parameter_memory=memory, load_memory=zero_operator(X),
            f=Trajectory.constant(X, grid, [1.0]), grid=grid)

    @pytest.mark.parametrize("mode", ["global_picard", "time_marching"])
    def test_a_negative_mixed_parameter_falls_back_to_the_plain_theta(self, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_inclusion(self.falling_spec(), tol=1e-10, mode=mode, force=True)
        assert sol.converged and sol.diagnostics["mixed_passes"] == 0
        assert np.array_equal(sol.u.samples, np.ones((5, 1)))
        assert np.array_equal(sol.eta.samples, np.zeros((5, 1)))
        assert np.array_equal(sol.xi.samples, np.zeros((5, 1)))
        if mode == "global_picard":     # the plain sequence, pass by pass
            etas = [0.8]
            while etas[-1] > 0.0:
                etas.append(max(0.9 * etas[-1] - 0.1, 0.0))
            plain = [etas[0]] + [a - b for a, b in zip(etas, etas[1:])] + [0.0]
            assert np.allclose(sol.diagnostics["sweep_changes"], plain, rtol=1e-12, atol=0.0)

    @staticmethod
    def climbing_spec(steps=4):
        # j(eta, v) = (1 - eta) max(v, 0), so u = eta on [0, 1], and
        # eta = min(0.2 + 0.9 u, 0.9): plain passes climb to 0.9, while a
        # mixture extrapolates the line to eta = 2, where the scale is negative
        grid = TimeGrid(1.0, steps)
        memory = HistoryOperator(
            None, lambda state, first, inputs: (None, np.minimum(0.2 + 0.9 * inputs, 0.9)),
            l=0.9, L=0.0, tag="climbing", out_space=Y)
        base = HomogeneousFunctional.positive_part(X, Y, weights=[1.0], indices=[0],
                                                   eta_free=True)
        return InclusionSpec(
            x_space=X, y_space=Y, cone=FREE,
            operator=MonotoneOperator.from_matrix(X, [[1.0]]),
            functional=HomogeneousFunctional.separable(Y, lambda eta: 1.0 - eta[0], 1.0, base),
            parameter_memory=memory, load_memory=zero_operator(X),
            f=Trajectory.constant(X, grid, [1.0]), grid=grid)

    @pytest.mark.parametrize("mode", ["global_picard", "time_marching"])
    def test_a_mixture_with_a_negative_separable_scale_falls_back(self, mode):
        # the mixed parameter stays positive, but the prox is undefined there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_inclusion(self.climbing_spec(), tol=1e-10, mode=mode, force=True)
        assert sol.converged and sol.diagnostics["mixed_passes"] == 0
        np.testing.assert_allclose(sol.u.samples, 0.9, rtol=1e-15)
        np.testing.assert_array_equal(sol.eta.samples, np.full((5, 1), 0.9))
        np.testing.assert_array_equal(sol.xi.samples, np.zeros((5, 1)))
        if mode == "global_picard":     # the plain sequence, pass by pass
            etas = [0.2]
            while etas[-1] < 0.9:
                etas.append(min(0.2 + 0.9 * etas[-1], 0.9))
            plain = [etas[0]] + [b - a for a, b in zip(etas, etas[1:])] + [0.0]
            assert np.allclose(sol.diagnostics["sweep_changes"], plain, rtol=1e-12, atol=1e-15)

    def test_a_singular_fit_falls_back_to_the_plain_theta(self):
        # residual differences all along one line: the second difference
        # makes the 2 x 2 Gram matrix singular
        mixer = _Mixer(2, 3, lambda mixed: True)
        a, b = np.array([[1.0, 2.0, 0.5]]), np.array([[0.5, -1.0, 2.0]])
        assert mixer.mix(1.0 * a, 1.0 * b) is None            # no difference yet
        mixed = mixer.mix(2.0 * a, 0.5 * b)
        assert mixed is not None and np.allclose(mixed, 3.0 * a)   # the secant step
        assert mixer.mix(3.0 * a, 0.25 * b) is None
        assert mixer.count == 0

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_the_fit_is_np_linalg_solve_bit_for_bit(self, k):
        # the mixer's Gram matrix is the leading block of a depth x depth buffer
        rng = np.random.default_rng(k)
        residuals = rng.standard_normal((k, 12))
        buffer = np.empty((8, 8))
        buffer[:k, :k] = residuals @ residuals.T
        gram, rhs = buffer[:k, :k], rng.standard_normal(k)
        np.testing.assert_array_equal(_fit(gram, rhs), np.linalg.solve(gram, rhs))

    @pytest.mark.parametrize("gram", [[[1.0, 2.0], [2.0, 1.0]],             # indefinite
                                      [[1.0, 1.0], [1.0, 1.0 + 1e-12]],     # pivot^2 1e-12
                                      [[np.nan]]])
    def test_the_fit_refuses_a_singular_gram_matrix_without_a_warning(self, gram):
        gram = np.array(gram)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _fit(gram, np.ones(len(gram))) is None

    @pytest.mark.parametrize("mode", ["global_picard", "time_marching"])
    def test_the_returned_theta_reproduces_the_returned_u(self, mode):
        # the settling pass is plain: u solves the node EVIs for theta
        mesh, grid = Mesh1D.uniform(1.0, 4), TimeGrid(1.0, 32)
        prob = build_problem("normal_compliance", mesh,
                             Material(a=1.0, beta=ExponentialProfile(10.0, 1.0)),
                             ContactLaw.linear(0.5), Loads(body=2.0), grid)
        tol = 1e-10
        sol = solve_inclusion(prob.spec, tol=tol, mode=mode)
        assert sol.diagnostics["mixed_passes"] > 0
        # both are within the EVI tolerance, 0.05 tol, of the node solutions
        again = solve_intermediate((sol.eta, sol.xi), prob.spec, tol=0.05 * tol)
        assert again.sup_distance(sol.u) <= 0.1 * tol



class TestThetaPair:
    def test_the_change_norm_is_the_block_diagonal_product_norm(self):
        rng = np.random.default_rng(5)
        A, B = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
        Yb = HilbertSpace(2, metric=A @ A.T + 2.0 * np.eye(2))
        Xb = HilbertSpace(3, metric=B @ B.T + 3.0 * np.eye(3))
        assert not Xb.is_diagonal
        grid = TimeGrid(1.0, 4)
        spec = InclusionSpec(x_space=Xb, y_space=Yb, cone=ConstraintCone.whole_space(Xb),
                             operator=MonotoneOperator.from_matrix(Xb, np.eye(3)),
                             functional=HomogeneousFunctional.zero(Xb, Yb),
                             parameter_memory=zero_operator(Yb), load_memory=zero_operator(Xb),
                             f=Trajectory.zeros(Xb, grid), grid=grid)
        d_eta, d_xi = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
        # the metric of Y x X: the two metrics as diagonal blocks
        dense = np.zeros((5, 5))
        dense[:2, :2], dense[2:, 2:] = Yb.metric, Xb.metric
        d = np.hstack([d_eta, d_xi])
        want = np.sqrt(((d @ dense) * d).sum(1))
        np.testing.assert_allclose(_theta_changes(spec, d_eta, d_xi), want, rtol=1e-14)

    def test_a_contact_solve_builds_no_space_of_the_stacked_theta(self, monkeypatch):
        dims, init = [], HilbertSpace.__init__

        def recording(self, dim, metric=None):
            dims.append(int(dim))
            init(self, dim, metric)

        monkeypatch.setattr(HilbertSpace, "__init__", recording)
        spec = build_problem("normal_compliance", Mesh1D.uniform(1.0, 6),
                             Material(a=1.0, beta=ExponentialProfile(1.0, 1.0)),
                             ContactLaw.linear(0.5), Loads(body=2.0), TimeGrid(1.0, 8)).spec
        for mode in ("time_marching", "global_picard"):
            assert solve_inclusion(spec, mode=mode).converged
        nx, ny = spec.x_space.dim, spec.y_space.dim
        assert nx in dims and ny in dims        # the recorder saw the spec's own spaces
        assert ny + nx not in dims

    @staticmethod
    def largest_ratio(changes):
        return max(b / a for a, b in zip(changes[1:], changes[2:]))

    @pytest.mark.parametrize("case", ["cycle", "strong_memory"])
    def test_a_window_settled_on_a_clipped_ratio_is_counted(self, case):
        # the plain cycle's change doubles from sweep 3 to sweep 4 (0.5 -> 1);
        # on a rod with a strong memory (beta = 10) Picard's change first grows.
        # Either way the certificate of the one window used 0.95 for a larger ratio
        if case == "cycle":
            spec = TestGateAndForce.cycling_spec()
        else:
            spec = build_problem("normal_compliance", Mesh1D.uniform(1.0, 4),
                                 Material(a=1.0, beta=ExponentialProfile(10.0, 1.0)),
                                 ContactLaw.linear(0.5), Loads(body=2.0), TimeGrid(1.0, 32)).spec
        sol = solve_inclusion(spec, tol=1e-10, mode="global_picard", force=case == "cycle")
        assert sol.converged
        assert self.largest_ratio(sol.diagnostics["sweep_changes"]) > 0.95
        assert sol.diagnostics["clipped_windows"] == 1

    @pytest.mark.parametrize("mode", ["global_picard", "time_marching"])
    def test_a_contracting_run_clips_no_window(self, mode):
        sol = solve_inclusion(decay_spec(16), tol=1e-10, mode=mode)
        if mode == "global_picard":
            assert self.largest_ratio(sol.diagnostics["sweep_changes"]) <= 0.95
        assert sol.diagnostics["clipped_windows"] == 0
