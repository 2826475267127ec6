from dataclasses import replace

import numpy as np
import pytest

from sweepvi import (
    ContactLaw,
    DimensionMismatchError,
    ExponentialProfile,
    HilbertSpace,
    HistoryOperator,
    IneligibleOperatorError,
    TimeGrid,
    Trajectory,
    VolterraKernel,
    apply_volterra,
    check_causality,
    check_declared_bound,
    exp_growth_memory_operator,
    identity_operator,
    picard_fixed_point,
    trapezoid_weights,
    volterra_operator,
    zero_operator,
)
from sweepvi.contact import penetration_memory, slip_memory
from sweepvi.histop import running_trapezoid


def scalar_kernel(beta=0.5):
    return VolterraKernel(scalar_profile=lambda t: beta, matrix=np.eye(1), symmetric=True)


class TestTrapezoidWeights:
    def test_endpoint_halving(self):
        np.testing.assert_allclose(trapezoid_weights(3, 0.5), [0.25, 0.5, 0.5, 0.25])

    def test_zero_steps_gives_single_zero_weight(self):
        w = trapezoid_weights(0, 0.5)
        assert w.shape == (1,)
        assert w[0] == 0.0

    def test_weights_sum_to_interval_length(self):
        for k in range(1, 9):
            assert trapezoid_weights(k, 0.125).sum() == pytest.approx(0.125 * k)

    def test_integrates_linear_functions_exactly(self):
        # trapezoid rule is exact on polynomials of degree <= 1
        dt = 0.2
        k = 5
        nodes = dt * np.arange(k + 1)
        w = trapezoid_weights(k, dt)
        assert w @ (3.0 * nodes + 1.0) == pytest.approx(1.5 * (dt * k) ** 2 + dt * k)

    @pytest.mark.parametrize("shape", [(1,), (2,), (33,), (1, 3), (33, 3)])
    def test_running_sum_equals_scipy_bit_for_bit(self, shape):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        y = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        for dt in (0.1, 1.0 / 3.0, 7.0):
            want = cumulative_trapezoid(y, dx=dt, axis=0, initial=0)
            np.testing.assert_array_equal(running_trapezoid(y, dt), want)


class TestVolterraOperator:
    def test_constant_input_integrates_to_ramp(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        op = volterra_operator(scalar_kernel(0.5), grid, space)
        ones = Trajectory.constant(space, grid, [1.0])
        out = op(ones)
        np.testing.assert_allclose(out.samples[:, 0], 0.5 * grid.nodes, atol=1e-14)

    def test_linear_input_integrates_to_quadratic(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        op = volterra_operator(scalar_kernel(1.0), grid, space)
        ramp = Trajectory(space, grid, grid.nodes[:, None])
        out = op(ramp)
        np.testing.assert_allclose(out.samples[:, 0], 0.5 * grid.nodes**2, atol=1e-14)

    def test_node_shortcut_matches_full_evaluation(self):
        grid = TimeGrid(1.0, 12)
        space = HilbertSpace(2)
        kern = VolterraKernel(
            scalar_profile=lambda t: np.exp(-2.0 * t),
            matrix=np.array([[0.3, 0.1], [0.1, 0.2]]),
            symmetric=True,
        )
        op = volterra_operator(kern, grid, space)
        rng = np.random.default_rng(5)
        traj = Trajectory(space, grid, rng.normal(size=(grid.steps + 1, space.dim)))
        full = op(traj)
        for k in range(grid.steps + 1):
            np.testing.assert_allclose(op.at_node(traj, k), full.samples[k], atol=1e-13)

    def test_declares_zero_instantaneous_constant(self):
        grid = TimeGrid(1.0, 8)
        op = volterra_operator(scalar_kernel(0.5), grid, HilbertSpace(1))
        assert op.l == 0.0

    def test_default_memory_constant_bounds_kernel_norm(self):
        grid = TimeGrid(1.0, 8)
        op = volterra_operator(scalar_kernel(0.5), grid, HilbertSpace(1))
        assert op.L == pytest.approx(0.5)

    def test_default_memory_constant_respects_space_metrics(self):
        # weighted norms change the operator norm of the kernel matrix
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(3, metric=np.diag([2.0, 1.0, 0.5]))
        mat = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.4]])
        kern = VolterraKernel(scalar_profile=lambda t: np.exp(-t), matrix=mat, symmetric=True)
        op = volterra_operator(kern, grid, space)
        assert op.L == pytest.approx(0.4220356669274266)

    def test_apply_volterra_agrees_with_operator(self):
        grid = TimeGrid(1.0, 10)
        space = HilbertSpace(1)
        traj = Trajectory(space, grid, np.cos(grid.nodes)[:, None])
        direct = apply_volterra(scalar_kernel(0.7), traj)
        via_op = volterra_operator(scalar_kernel(0.7), grid, space)(traj)
        np.testing.assert_array_equal(direct.samples, via_op.samples)


class TestStockOperators:
    def test_identity_reproduces_input(self):
        grid = TimeGrid(1.0, 4)
        space = HilbertSpace(2)
        traj = Trajectory(space, grid, np.arange(10.0).reshape(5, 2))
        out = identity_operator()(traj)
        np.testing.assert_array_equal(out.samples, traj.samples)

    def test_identity_constants(self):
        op = identity_operator()
        assert (op.l, op.L) == (1.0, 0.0)

    def test_zero_operator_output_and_constants(self):
        grid = TimeGrid(1.0, 4)
        space = HilbertSpace(2)
        traj = Trajectory(space, grid, np.ones((5, 2)))
        op = zero_operator(space)
        assert not op(traj).samples.any()
        assert (op.l, op.L) == (0.0, 0.0)

    def test_exp_growth_on_constant_input(self):
        # (S 1)(t) = e^t + t^2 / 2, and the trapezoid rule is exact for s * 1
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        op = exp_growth_memory_operator(grid)
        ones = Trajectory.constant(space, grid, [1.0])
        out = op(ones)
        np.testing.assert_allclose(
            out.samples[:, 0], np.exp(grid.nodes) + 0.5 * grid.nodes**2, atol=1e-14
        )

    def test_exp_growth_declared_constants(self):
        op = exp_growth_memory_operator(TimeGrid(2.0, 8))
        assert op.l == pytest.approx(np.exp(2.0))
        assert op.L == pytest.approx(2.0)

    def test_negative_declared_constants_rejected(self):
        with pytest.raises(ValueError):
            HistoryOperator(None, lambda state, k, u_k: (state, u_k), l=-0.1, L=0.0)


class TestAudits:
    def test_volterra_is_causal(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        op = volterra_operator(scalar_kernel(0.5), grid, space)
        assert check_causality(op, space, grid, seed=1) == 0.0

    def test_time_reversal_flagged_as_anticausal(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)

        def rev(traj):
            return Trajectory(traj.space, traj.grid, traj.samples[::-1].copy())

        assert check_causality(rev, space, grid, seed=1) > 0.5

    def test_honest_declaration_passes_bound_check(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        op = volterra_operator(scalar_kernel(0.5), grid, space)
        assert check_declared_bound(op, space, grid, seed=1) <= 1e-12

    def test_understated_constants_fail_bound_check(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        honest = volterra_operator(scalar_kernel(0.5), grid, space)
        liar = replace(honest, l=0.0, L=0.0)
        assert check_declared_bound(liar, space, grid, seed=1) > 0.1


class TestPicardFixedPoint:
    @staticmethod
    def decay_operator(grid):
        # u = 1 - 0.5 int_0^t u  has the fixed point u(t) = e^{-t/2}
        space = HilbertSpace(1)
        integ = volterra_operator(scalar_kernel(0.5), grid, space)

        def advance(state, k, u_k):
            state, out = integ.step(state, k, u_k)
            return state, 1.0 - out

        return HistoryOperator(integ.init_state(grid), advance, l=0.0, L=0.5,
                               tag="affine_decay"), space

    def test_converges_to_integral_equation_solution(self):
        grid = TimeGrid(1.0, 64)
        op, space = self.decay_operator(grid)
        fix = picard_fixed_point(op, space, grid, tol=1e-13)
        exact = np.exp(-0.5 * grid.nodes)[:, None]
        assert np.max(np.abs(fix.samples - exact)) < 5e-6

    def test_discretization_error_shrinks_at_second_order(self):
        errs = []
        for steps in (32, 64):
            grid = TimeGrid(1.0, steps)
            op, space = self.decay_operator(grid)
            fix = picard_fixed_point(op, space, grid, tol=1e-13)
            exact = np.exp(-0.5 * grid.nodes)[:, None]
            errs.append(np.max(np.abs(fix.samples - exact)))
        assert errs[0] == pytest.approx(6.170143485362267e-06, rel=1e-6)
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.2)

    def test_result_is_a_fixed_point(self):
        grid = TimeGrid(1.0, 32)
        op, space = self.decay_operator(grid)
        fix = picard_fixed_point(op, space, grid, tol=1e-13)
        again = op(fix)
        assert np.max(np.abs(again.samples - fix.samples)) < 1e-12

    def test_rejects_nonsmall_instantaneous_constant(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        op = exp_growth_memory_operator(grid)
        with pytest.raises(IneligibleOperatorError):
            picard_fixed_point(op, space, grid)

    def test_identity_with_unit_constant_rejected(self):
        # l = 1 sits exactly on the boundary of the contraction class
        grid = TimeGrid(1.0, 8)
        space = HilbertSpace(1)
        with pytest.raises(IneligibleOperatorError):
            picard_fixed_point(identity_operator(), space, grid)


def stepped(op, traj):
    """Outputs of the causal protocol, one ``step`` per node from ``init_state``."""
    state = op.init_state(traj.grid)
    rows = []
    for k in range(traj.grid.steps + 1):
        state, out = op.step(state, k, traj.samples[k])
        rows.append(np.array(out, dtype=float))
    return np.array(rows)


def convolution_reference(kernel, traj):
    """``sum_j w_j B(t_k - t_j) u_j`` with explicit trapezoid weights, node by node."""
    nodes, dt = traj.grid.nodes, traj.grid.dt
    rows = []
    for k in range(traj.grid.steps + 1):
        w = trapezoid_weights(k, dt)
        rows.append(sum(w[j] * kernel.at(nodes[k] - nodes[j]) @ traj.samples[j]
                        for j in range(k + 1)))
    return np.array(rows)


def random_traj(space, grid, seed):
    rng = np.random.default_rng(seed)
    return Trajectory(space, grid, rng.standard_normal((grid.steps + 1, space.dim)))


class TestCausalStepProtocol:
    """Each memory's step loop, whole-trajectory call and at_node agree with a reference."""

    @staticmethod
    def assert_all_paths(op, traj, want, atol=1e-13):
        np.testing.assert_allclose(stepped(op, traj), want, rtol=0.0, atol=atol)
        np.testing.assert_allclose(op(traj).samples, want, rtol=0.0, atol=atol)
        for k in (0, 1, traj.grid.steps // 2, traj.grid.steps):
            np.testing.assert_allclose(op.at_node(traj, k), want[k], rtol=0.0, atol=atol)

    @pytest.mark.parametrize("kernel", [
        VolterraKernel.exponential(0.7, 1.5, [[0.3, 0.1], [0.1, 0.2]], symmetric=True),
        VolterraKernel.exponential(-0.4, 0.0, [[1.0, 0.5], [0.0, 2.0]]),
        VolterraKernel(scalar_profile=lambda t: np.cos(3.0 * t), matrix=np.array([[0.5, -0.2], [0.1, 0.4]])),
        VolterraKernel(matrix_fn=lambda t: np.array([[np.exp(-t), t], [0.0, 1.0 + t * t]])),
    ], ids=["exponential", "constant", "general-scalar", "matrix"])
    def test_volterra_memories_match_trapezoid_reference(self, kernel):
        grid = TimeGrid(1.3, 24)
        space = HilbertSpace(2)
        traj = random_traj(space, grid, seed=11)
        op = volterra_operator(kernel, grid, space)
        self.assert_all_paths(op, traj, convolution_reference(kernel, traj))

    def test_volterra_into_a_smaller_output_space(self):
        grid = TimeGrid(1.0, 16)
        space, out = HilbertSpace(3), HilbertSpace(2)
        kernel = VolterraKernel.exponential(0.5, 2.0, np.eye(2, 3))
        traj = random_traj(space, grid, seed=3)
        op = volterra_operator(kernel, grid, space, out_space=out)
        assert op(traj).space is out
        self.assert_all_paths(op, traj, convolution_reference(kernel, traj))

    @pytest.mark.parametrize("factory, magnitude", [
        (penetration_memory, lambda x: np.maximum(x, 0.0)),
        (slip_memory, np.abs),
    ], ids=["penetration", "slip"])
    def test_threshold_memories_match_trapezoid_reference(self, factory, magnitude):
        grid = TimeGrid(0.8, 20)
        space = HilbertSpace(3)
        law = ContactLaw.saturating(2.0, 1.5, kind="compliance")
        traj = random_traj(space, grid, seed=5)
        series = magnitude(traj.samples[:, 1])
        acc = [trapezoid_weights(k, grid.dt) @ series[:k + 1] for k in range(grid.steps + 1)]
        want = law.F(np.array(acc))[:, None]
        op = factory(law, 1, grid)
        assert op.out_space.dim == 1
        self.assert_all_paths(op, traj, want)

    def test_stock_operators_match_their_definitions(self):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(2)
        traj = random_traj(space, grid, seed=7)
        self.assert_all_paths(identity_operator(), traj, traj.samples)
        self.assert_all_paths(zero_operator(HilbertSpace(3)), traj, np.zeros((17, 3)))
        nodes = grid.nodes
        want = np.array([np.exp(nodes[k]) * traj.samples[k]
                         + trapezoid_weights(k, grid.dt) @ (nodes[:k + 1, None] * traj.samples[:k + 1])
                         for k in range(grid.steps + 1)])
        self.assert_all_paths(exp_growth_memory_operator(grid), traj, want)

    @pytest.mark.parametrize("kernel", [
        VolterraKernel.exponential(0.7, 1.5, [[0.3, 0.1], [0.1, 0.2]]),
        VolterraKernel(scalar_profile=lambda t: np.cos(3.0 * t), matrix=np.array([[0.5, -0.2], [0.1, 0.4]])),
    ], ids=["exponential", "general-scalar"])
    def test_run_is_the_step_loop_bit_for_bit(self, kernel):
        grid = TimeGrid(1.0, 16)
        space = HilbertSpace(2)
        traj = random_traj(space, grid, seed=13)
        op = volterra_operator(kernel, grid, space)
        _, out = op.run(op.init_state(grid), 0, traj.samples)
        np.testing.assert_array_equal(out, stepped(op, traj))
        np.testing.assert_array_equal(out, op(traj).samples)
        # a run from a state committed through node 5 continues the trajectory
        state, _ = op.run(op.init_state(grid), 0, traj.samples[:6])
        np.testing.assert_array_equal(op.run(state, 6, traj.samples[6:])[1], out[6:])

    def test_steps_leave_the_committed_state_unchanged(self):
        # the marching solver steps the same state with several guesses
        grid = TimeGrid(1.0, 8)
        space = HilbertSpace(2)
        op = volterra_operator(VolterraKernel.exponential(1.0, 0.5, np.eye(2)), grid, space)
        traj = random_traj(space, grid, seed=2)
        state = op.init_state(grid)
        for k in range(4):
            state, _ = op.step(state, k, traj.samples[k])
        first = op.step(state, 4, np.array([5.0, -1.0]))[1].copy()
        op.step(state, 4, np.array([-3.0, 2.0]))
        np.testing.assert_array_equal(op.step(state, 4, np.array([5.0, -1.0]))[1], first)

    @pytest.mark.parametrize("kernel", [
        VolterraKernel(scalar_profile=lambda t: np.cos(3.0 * t), matrix=np.eye(2)),
        VolterraKernel(matrix_fn=lambda t: np.array([[np.exp(-t), t], [0.0, 1.0 + t * t]])),
    ], ids=["general-scalar", "matrix"])
    def test_sibling_states_of_a_summing_kernel_stay_independent(self, kernel):
        grid = TimeGrid(1.0, 10)
        space = HilbertSpace(2)
        op = volterra_operator(kernel, grid, space)
        a = random_traj(space, grid, seed=12)
        tail = np.random.default_rng(13).standard_normal((grid.steps - 3, 2))
        b = Trajectory(space, grid, np.vstack([a.samples[:4], tail]))
        want_a = convolution_reference(kernel, a)[-1]
        want_b = convolution_reference(kernel, b)[-1]
        states = [op.init_state(grid)]          # states[k]: before node k
        for k in range(grid.steps + 1):
            states.append(op.step(states[-1], k, a.samples[k])[0])

        def finish(state, traj, first):
            for k in range(first, grid.steps + 1):
                state, out = op.step(state, k, traj.samples[k])
            return out

        # b leaves a's path at node 4 after a has run to the end, and a's
        # later states still see a's inputs
        np.testing.assert_allclose(finish(states[4], b, 4), want_b, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(finish(states[7], a, 7), want_a, rtol=0.0, atol=1e-13)
        # two guesses at node 4 from a fresh chain, both carried on node by node
        state = op.init_state(grid)
        for k in range(4):
            state, _ = op.step(state, k, a.samples[k])
        branches = [op.step(state, 4, traj.samples[4])[0] for traj in (a, b)]
        outs = [None, None]
        for k in range(5, grid.steps + 1):
            for i, traj in ((1, b), (0, a)):
                branches[i], outs[i] = op.step(branches[i], k, traj.samples[k])
        np.testing.assert_allclose(outs, [want_a, want_b], rtol=0.0, atol=1e-13)

    def test_shared_outputs_are_read_only(self):
        grid = TimeGrid(1.0, 8)
        space = HilbertSpace(2)
        traj = random_traj(space, grid, seed=6)
        law = ContactLaw.saturating(2.0, 1.5, kind="compliance")
        ops = [volterra_operator(VolterraKernel.exponential(1.0, 0.5, np.eye(2)), grid, space),
               penetration_memory(law, 0, grid), slip_memory(law, 1, grid)]
        for op in ops:
            state = op.init_state(grid)
            for k in range(grid.steps + 1):
                state, out = op.step(state, k, traj.samples[k])
                assert not out.flags.writeable

    def test_operators_hash_and_compare_by_their_definition(self):
        grid = TimeGrid(1.0, 8)
        space = HilbertSpace(2)
        ops = [volterra_operator(VolterraKernel(scalar_profile=np.cos, matrix=np.eye(2)),
                                 grid, space),
               volterra_operator(VolterraKernel.exponential(1.0, 0.5, np.eye(2)), grid, space),
               penetration_memory(ContactLaw.saturating(2.0, 1.5, kind="compliance"), 0, grid),
               identity_operator(), zero_operator(space)]
        assert len({hash(op) for op in ops}) == len(ops)
        assert all(op == op for op in ops)
        assert ops[0] != ops[1]

    def test_memory_refuses_inputs_on_another_grid(self):
        grid, finer = TimeGrid(1.0, 8), TimeGrid(1.0, 16)
        space = HilbertSpace(1)
        kernel = VolterraKernel.exponential(1.0, 0.0, np.eye(1))
        traj = Trajectory(space, finer, np.ones((17, 1)))
        ops = [volterra_operator(kernel, grid, space), exp_growth_memory_operator(grid),
               penetration_memory(ContactLaw.saturating(2.0, 1.5, kind="compliance"), 0, grid)]
        for op in ops:
            with pytest.raises(DimensionMismatchError):
                op(traj)
            with pytest.raises(DimensionMismatchError):
                op.at_node(traj, 3)
            with pytest.raises(DimensionMismatchError):
                op.init_state(finer)
        # grid-free operators and the one-shot convolution take any grid
        np.testing.assert_array_equal(identity_operator()(traj).samples, traj.samples)
        assert apply_volterra(kernel, traj).samples[-1, 0] == pytest.approx(1.0)

class TestExponentialRecursion:
    def test_recursion_matches_direct_convolution_at_2048_steps(self):
        grid = TimeGrid(2.0, 2048)
        space = HilbertSpace(1)
        amp, rate = 0.8, 3.0
        op = volterra_operator(VolterraKernel.exponential(amp, rate, np.eye(1)), grid, space)
        rng = np.random.default_rng(9)
        u = np.sin(5.0 * grid.nodes) + 0.1 * rng.standard_normal(grid.steps + 1)
        got = op(Trajectory(space, grid, u[:, None])).samples[:, 0]
        direct = np.zeros(grid.steps + 1)
        decay = amp * np.exp(-rate * grid.nodes)
        for k in range(1, grid.steps + 1):
            direct[k] = (trapezoid_weights(k, grid.dt) * decay[k::-1]) @ u[:k + 1]
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_exponential_profile_evaluates_like_its_formula(self):
        profile = ExponentialProfile(0.3, 2.0)
        assert profile(0.5) == 0.3 * np.exp(-1.0)
        assert ExponentialProfile(0.3)(7.0) == 0.3


class TestProfileEvaluations:
    def test_general_scalar_kernel_reads_its_profile_once_per_grid_node(self):
        calls = []

        def profile(t):
            calls.append(t)
            return np.exp(-t) * (1.0 + t)

        grid = TimeGrid(1.0, 32)
        space = HilbertSpace(2)
        op = volterra_operator(VolterraKernel(scalar_profile=profile, matrix=np.eye(2),
                                              symmetric=True), grid, space)
        traj = random_traj(space, grid, seed=1)
        op(traj)
        state = op.init_state(grid)
        for k in range(grid.steps + 1):
            for _ in range(3):                 # inner passes at one node
                op.step(state, k, traj.samples[k])
            state, _ = op.step(state, k, traj.samples[k])
        op.at_node(traj, grid.steps)
        assert len(calls) == grid.steps + 1

    def test_separable_memory_constant_is_peak_profile_times_matrix_norm(self):
        # a profile whose peak is away from t = 0, in a weighted metric
        grid = TimeGrid(2.0, 40)
        space = HilbertSpace(2, metric=np.diag([4.0, 1.0]))
        mat = np.array([[0.2, 0.3], [0.3, 0.1]])
        op = volterra_operator(VolterraKernel(scalar_profile=lambda t: t * np.exp(-t),
                                              matrix=mat), grid, space)
        chol = np.linalg.cholesky(space.metric).T
        per_node = max(np.linalg.norm(chol @ (t * np.exp(-t) * mat) @ np.linalg.inv(chol), 2)
                       for t in grid.nodes)
        assert op.L == pytest.approx(per_node, rel=1e-12)
