from dataclasses import replace

import numpy as np
import pytest

from sweepvi import (
    ConstraintCone,
    ContactLaw,
    DimensionMismatchError,
    ExponentialProfile,
    HilbertSpace,
    HistoryOperator,
    HomogeneousFunctional,
    IneligibleOperatorError,
    LipschitzOperator,
    MonotoneOperator,
    SweepingSpec,
    TimeGrid,
    TimeRangeError,
    Trajectory,
    VolterraKernel,
    antiderivative_memory,
    build_inclusion_variant,
    check_causality,
    check_declared_bound,
    compose_with_antiderivative,
    exp_growth_memory_operator,
    identity_operator,
    lift_to_velocity,
    picard_fixed_point,
    trapezoid_weights,
    volterra_operator,
    zero_operator,
)
from sweepvi import histop
from sweepvi.contact import penetration_memory, slip_memory
from sweepvi.histop import running_trapezoid


def scalar_kernel(beta=0.5):
    return VolterraKernel(scalar_profile=lambda t: beta, matrix=np.eye(1))


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
        )
        op = volterra_operator(kern, grid, space)
        rng = np.random.default_rng(5)
        traj = Trajectory(space, grid, rng.normal(size=(grid.steps + 1, space.dim)))
        full = op(traj)
        for k in range(grid.steps + 1):
            np.testing.assert_allclose(op.at_node(traj, k), full.samples[k], atol=1e-13)

    def test_at_node_refuses_nodes_off_the_grid(self):
        grid = TimeGrid(1.0, 4)
        op = volterra_operator(scalar_kernel(0.5), grid, HilbertSpace(1))
        traj = Trajectory(HilbertSpace(1), grid, np.arange(5.0)[:, None])
        for k in (grid.steps + 1, -1, -2):
            with pytest.raises(TimeRangeError, match=f"node {k} outside 0..4"):
                op.at_node(traj, k)
        np.testing.assert_array_equal(op.at_node(traj, grid.steps), op(traj).samples[-1])

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
        kern = VolterraKernel(scalar_profile=lambda t: np.exp(-t), matrix=mat)
        op = volterra_operator(kern, grid, space)
        assert op.L == pytest.approx(0.4220356669274266)


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
            HistoryOperator(None, lambda state, first, inputs: (state, inputs), l=-0.1, L=0.0)


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

        def advance(state, first, inputs):
            state, out = integ.run(state, first, inputs)
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

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_one_small_sweep_ratio_does_not_loosen_the_stopping_test(self, tol):
        # u -> A u + b: successive sweep ratios alternate near 0.64 and 1e-3,
        # so a test on the last ratio alone accepts a displacement of 999 tol
        grid = TimeGrid(1.0, 2)
        space = HilbertSpace(2)
        A, b = np.array([[0.0, 0.9], [0.0009, 0.0]]), np.array([1.0, 1.0])

        def advance(state, first, inputs):
            return None, inputs @ A.T + b

        op = HistoryOperator(None, advance, l=0.9, L=0.0, tag="affine", out_space=space)
        assert check_declared_bound(op, space, grid) <= 0.0
        fix = picard_fixed_point(op, space, grid, tol=tol)
        exact = np.linalg.solve(np.eye(2) - A, b)
        assert np.abs(fix.samples - exact).max() <= tol

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


SPACE2 = HilbertSpace(2)
EXPONENTIAL = VolterraKernel.exponential(0.7, 1.5, [[0.3, 0.1], [0.1, 0.2]])
# 24 output components: a wide relaxation memory
WIDE = np.cos(np.arange(48.0)).reshape(24, 2)
# memories that run the exponential memory's chunked scan (histop._SCAN_ROWS
# rows a chunk): their evaluation paths agree within assert_scan_close, not
# bit for bit
SCAN_MEMORIES = ("exponential", "exponential-identity", "exponential-wide", "compose",
                 "lifted-load")
SCAN_ROWS = 64


def assert_scan_close(got, want):
    """``got`` within ``SCAN_ROWS`` ulps of the largest entry of ``want``, entry by entry."""
    atol = SCAN_ROWS * np.finfo(float).eps * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def lifted_load_memory(grid):
    """The velocity lift's load memory ``v -> B(int v + u0) + S v`` on a 2-dim space."""
    core = build_inclusion_variant(
        "parameter_free", cone=ConstraintCone.nonnegative(SPACE2, [0]),
        operator=MonotoneOperator.from_matrix(SPACE2, 2.0 * np.eye(2)),
        functional=HomogeneousFunctional.zero(SPACE2), f=Trajectory.zeros(SPACE2, grid),
        grid=grid, load_memory=volterra_operator(EXPONENTIAL, grid, SPACE2))
    B = np.array([[0.5, 0.2], [0.1, 0.4]])
    b_op = LipschitzOperator(apply=lambda u: u @ B.T, L=float(np.linalg.norm(B, 2)))
    return lift_to_velocity(SweepingSpec(core=core, b_op=b_op, u0=[0.3, -0.2])).load_memory


# every built-in memory, built on a grid for inputs in SPACE2
MEMORIES = {
    "exponential": lambda grid: volterra_operator(EXPONENTIAL, grid, SPACE2),
    "exponential-identity": lambda grid: volterra_operator(
        VolterraKernel.exponential(0.7, 1.5, 0.4 * np.eye(2)), grid, SPACE2),
    "exponential-wide": lambda grid: volterra_operator(
        VolterraKernel.exponential(0.7, 1.5, WIDE), grid, SPACE2, out_space=HilbertSpace(24)),
    "general-scalar": lambda grid: volterra_operator(
        VolterraKernel(scalar_profile=lambda t: np.cos(3.0 * t),
                       matrix=np.array([[0.5, -0.2], [0.1, 0.4]])), grid, SPACE2),
    "matrix": lambda grid: volterra_operator(
        VolterraKernel(matrix_fn=lambda t: np.array([[np.exp(-t), t], [0.0, 1.0 + t * t]])),
        grid, SPACE2),
    "penetration": lambda grid: penetration_memory(ContactLaw.saturating(2.0, 1.5), SPACE2, 1, grid),
    "slip": lambda grid: slip_memory(ContactLaw.saturating(2.0, 1.5), SPACE2, 1, grid),
    "antiderivative": lambda grid: antiderivative_memory(grid, SPACE2, [0.4, -1.1]),
    "compose": lambda grid: compose_with_antiderivative(
        volterra_operator(EXPONENTIAL, grid, SPACE2), grid, SPACE2, [0.4, -1.1]),
    "lifted-load": lifted_load_memory,
    "exp-growth": exp_growth_memory_operator,
    "zero": lambda grid: zero_operator(HilbertSpace(3)),
    "identity": lambda grid: identity_operator(),
}


class TestCausalStepProtocol:
    """Each memory's step loop, whole-trajectory call and at_node agree with a reference."""

    @staticmethod
    def assert_all_paths(op, traj, want, atol=1e-13):
        np.testing.assert_allclose(stepped(op, traj), want, rtol=0.0, atol=atol)
        np.testing.assert_allclose(op(traj).samples, want, rtol=0.0, atol=atol)
        for k in (0, 1, traj.grid.steps // 2, traj.grid.steps):
            np.testing.assert_allclose(op.at_node(traj, k), want[k], rtol=0.0, atol=atol)

    @pytest.mark.parametrize("kernel", [
        VolterraKernel.exponential(0.7, 1.5, [[0.3, 0.1], [0.1, 0.2]]),
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
        law = ContactLaw.saturating(2.0, 1.5)
        traj = random_traj(space, grid, seed=5)
        series = magnitude(traj.samples[:, 1])
        acc = [trapezoid_weights(k, grid.dt) @ series[:k + 1] for k in range(grid.steps + 1)]
        want = law.F(np.array(acc))[:, None]
        op = factory(law, space, 1, grid)
        assert op.out_space.dim == 1
        self.assert_all_paths(op, traj, want)

    @pytest.mark.parametrize("name, magnitude", [
        ("penetration", lambda x: max(x, 0.0)),
        ("slip", abs),
    ])
    def test_threshold_memories_are_the_node_loop_bit_for_bit(self, name, magnitude):
        # the running sum and F node by node, F on one node at a time
        grid = TimeGrid(0.8, 40)
        law = ContactLaw.saturating(2.0, 1.5)
        traj = random_traj(SPACE2, grid, seed=5)
        acc, prev, want = 0.0, 0.0, []
        for k, u_k in enumerate(traj.samples):
            value = magnitude(float(u_k[1]))
            if k:
                acc = acc + grid.dt * (prev + value) / 2.0
            prev = value
            want.append(law.F(np.array([acc])))
        np.testing.assert_array_equal(MEMORIES[name](grid)(traj).samples, np.array(want))

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

    @pytest.mark.parametrize("name", list(MEMORIES))
    def test_run_is_the_step_loop_bit_for_bit(self, name):
        # bit for bit, except the exponential memory's scan (assert_scan_close)
        agree = assert_scan_close if name in SCAN_MEMORIES else np.testing.assert_array_equal
        grid = TimeGrid(1.0, 40)
        op = MEMORIES[name](grid)
        traj = random_traj(SPACE2, grid, seed=13)
        _, out = op.run(op.init_state(grid), 0, traj.samples)
        agree(stepped(op, traj), out)
        np.testing.assert_array_equal(out, op(traj).samples)
        # windows of 1, 2, 5 and 16 nodes and then the rest, each run from the
        # state the window before it committed
        state, first, outs = op.init_state(grid), 0, []
        for width in (1, 2, 5, 16, grid.steps + 1 - 24):
            state, window = op.run(state, first, traj.samples[first:first + width])
            outs.append(window)
            first += width
        agree(np.concatenate(outs), out)

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
        # a window of nodes 4..8 run from the state committed through node 3,
        # with one guess, another and the first again, for every memory
        guess = traj.samples[4:]
        other = -2.0 * guess[::-1]
        for name, build in MEMORIES.items():
            op = build(grid)
            state = op.run(op.init_state(grid), 0, traj.samples[:4])[0]
            first = np.array(op.run(state, 4, guess)[1])
            op.run(state, 4, other)
            np.testing.assert_array_equal(op.run(state, 4, guess)[1], first, err_msg=name)

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
        law = ContactLaw.saturating(2.0, 1.5)
        ops = [volterra_operator(VolterraKernel.exponential(1.0, 0.5, np.eye(2)), grid, space),
               penetration_memory(law, space, 0, grid), slip_memory(law, space, 1, grid),
               identity_operator(), zero_operator(space)]
        for op in ops:
            state = op.init_state(grid)
            for k in range(grid.steps + 1):
                state, out = op.step(state, k, traj.samples[k])
                assert not out.flags.writeable
            # block outputs: a whole run, and a window from a committed state
            state, out = op.run(op.init_state(grid), 0, traj.samples[:3])
            assert not out.flags.writeable
            assert not op.run(state, 3, traj.samples[3:])[1].flags.writeable
        # the identity hands out a view of its inputs, which stay writable
        samples = traj.samples.copy()
        identity_operator().run(None, 0, samples)
        assert samples.flags.writeable

    def test_operators_hash_and_compare_by_their_definition(self):
        grid = TimeGrid(1.0, 8)
        space = HilbertSpace(2)
        ops = [volterra_operator(VolterraKernel(scalar_profile=np.cos, matrix=np.eye(2)),
                                 grid, space),
               volterra_operator(VolterraKernel.exponential(1.0, 0.5, np.eye(2)), grid, space),
               penetration_memory(ContactLaw.saturating(2.0, 1.5), space, 0, grid),
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
               penetration_memory(ContactLaw.saturating(2.0, 1.5), space, 0, grid)]
        for op in ops:
            with pytest.raises(DimensionMismatchError):
                op(traj)
            with pytest.raises(DimensionMismatchError):
                op.at_node(traj, 3)
            with pytest.raises(DimensionMismatchError):
                op.init_state(finer)
        # grid-free operators take any grid
        np.testing.assert_array_equal(identity_operator()(traj).samples, traj.samples)

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

    @pytest.mark.parametrize("C", [[[0.3, 0.1], [0.1, 0.2]], WIDE], ids=["narrow", "wide"])
    def test_recursion_is_the_node_loop_bit_for_bit(self, C):
        # out_k = e^{-r dt} (out_{k-1} + g_{k-1}) + g_k with g_k = G @ u_k, node by
        # node; the scan runs it a chunk at a time, so within assert_scan_close
        grid = TimeGrid(1.3, 64)
        amp, rate, C = 0.7, 1.5, np.asarray(C)
        traj = random_traj(SPACE2, grid, seed=21)
        G, decay = (0.5 * grid.dt * amp) * C, float(np.exp(-rate * grid.dt))
        want = np.zeros((grid.steps + 1, len(C)))
        g_prev = G @ traj.samples[0]
        for k in range(1, grid.steps + 1):
            g = G @ traj.samples[k]
            want[k] = decay * (want[k - 1] + g_prev) + g
            g_prev = g
        op = volterra_operator(VolterraKernel.exponential(amp, rate, C), grid, SPACE2,
                               out_space=HilbertSpace(len(C)))
        assert_scan_close(op(traj).samples, want)

    @pytest.mark.parametrize("rate, C", [
        (1.5, [[0.3, 0.1], [0.1, 0.2]]),
        (0.0, [[0.3, 0.1], [0.1, 0.2]]),
        (-3.0, [[0.3, 0.1], [0.1, 0.2]]),
        (4000.0, [[0.3, 0.1], [0.1, 0.2]]),
        (1.5, np.cos(np.arange(1024.0)).reshape(512, 2)),
    ], ids=["rate-1.5", "constant", "growing", "underflow", "wide-512"])
    def test_scan_across_chunk_edges(self, rate, C):
        # 300 steps cross four chunk edges; rate 4000 makes decay**64 underflow
        grid = TimeGrid(1.3, 300)
        amp, C = 0.7, np.asarray(C)
        assert rate != 4000.0 or np.exp(-rate * grid.dt) ** SCAN_ROWS == 0.0
        traj = random_traj(SPACE2, grid, seed=31)
        op = volterra_operator(VolterraKernel.exponential(amp, rate, C), grid, SPACE2,
                               out_space=HilbertSpace(len(C)))
        out = op(traj).samples
        # windows of 1, 63, 64 and 65 nodes and then the rest
        state, first, outs = op.init_state(grid), 0, []
        for width in (1, 63, 64, 65, grid.steps + 1 - 193):
            state, window = op.run(state, first, traj.samples[first:first + width])
            outs.append(window)
            first += width
        nodes = [0, 1, 63, 64, 65, 128, 129, 193, grid.steps]
        at_node = np.array([op.at_node(traj, k) for k in nodes])
        windows, steps = np.concatenate(outs), stepped(op, traj)
        # the trapezoid convolution, every node's weights in one lower-triangular matrix
        t = grid.nodes
        weights = np.tril(amp * np.exp(-rate * np.clip(t[:, None] - t, 0.0, None)) * grid.dt)
        weights[:, 0] *= 0.5
        weights[np.diag_indices_from(weights)] *= 0.5
        weights[0] = 0.0
        direct = (weights @ traj.samples) @ C.T
        assert_scan_close(windows, out)
        assert_scan_close(steps, out)
        assert_scan_close(at_node, out[nodes])
        atol = 1e-12 * np.abs(direct).max()
        for got, want in ((out, direct), (windows, direct), (steps, direct),
                          (at_node, direct[nodes])):
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("C", [np.eye(2), [[0.3, 0.1], [0.1, 0.2]]], ids=["scalar", "gemv"])
    def test_a_non_finite_input_never_reaches_an_earlier_output(self, bad, C):
        # a chunk product would multiply the zeros above its diagonal by the
        # bad row; nodes before it must keep the bits of the finite run
        grid = TimeGrid(1.0, 16)
        op = volterra_operator(VolterraKernel.exponential(0.5, 1.0, C), grid, SPACE2)
        finite = random_traj(SPACE2, grid, seed=41).samples
        broken = finite.copy()
        broken[5, 1] = bad

        def layouts(u):
            yield op(Trajectory(SPACE2, grid, u)).samples
            for width in (1, 3, 16):
                state, outs = op.init_state(grid), []
                for first in range(0, grid.steps + 1, width):
                    state, out = op.run(state, first, u[first:first + width])
                    outs.append(out)
                yield np.concatenate(outs)

        with np.errstate(invalid="ignore"):
            for got, want in zip(layouts(broken), layouts(finite)):
                np.testing.assert_array_equal(got[:5], want[:5])
                assert np.isfinite(got[:5]).all() and not np.isfinite(got[5:, 1]).any()

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
        op = volterra_operator(VolterraKernel(scalar_profile=profile, matrix=np.eye(2)),
                               grid, space)
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


class TestIdentityKernelStep:
    """A kernel matrix ``c I`` steps by one scalar product, bit for bit the matrix-vector stack."""

    @staticmethod
    def dense(monkeypatch, kernel, grid, space, out_space=None):
        """The memory as a general matrix builds it: the gemv stack and the dense norm."""
        with monkeypatch.context() as patch:
            patch.setattr(histop, "_identity_scale", lambda C: None)
            return volterra_operator(kernel, grid, space, out_space=out_space)

    @staticmethod
    def assert_bits(got, want):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("amp, rate", [(0.7, 1.5), (-0.4, 0.0), (0.3, -3.0)])
    @pytest.mark.parametrize("c", [0.4, -2.5, 0.0])
    def test_scalar_step_is_the_gemv_stack_bit_for_bit(self, monkeypatch, amp, rate, c):
        grid = TimeGrid(1.3, 200)
        space = HilbertSpace(3)
        kernel = VolterraKernel.exponential(amp, rate, c * np.eye(3))
        op, ref = volterra_operator(kernel, grid, space), self.dense(monkeypatch, kernel, grid, space)
        rng = np.random.default_rng(17)
        u = rng.standard_normal((grid.steps + 1, 3)) * np.exp(rng.uniform(-30.0, 30.0, (grid.steps + 1, 3)))
        u[rng.random(u.shape) < 0.1] = 0.0
        u[rng.random(u.shape) < 0.1] = -0.0
        traj = Trajectory(space, grid, u)
        self.assert_bits(op(traj).samples, ref(traj).samples)
        # a window from node 40 over 100 nodes crosses a chunk edge of the scan
        assert 100 > SCAN_ROWS
        states = [m.run(m.init_state(grid), 0, u[:40])[0] for m in (op, ref)]
        (got_state, got), (want_state, want) = (m.run(st, 40, u[40:140])
                                                for m, st in zip((op, ref), states))
        self.assert_bits(got, want)
        for a, b in zip(got_state, want_state):
            self.assert_bits(a, b)

    def test_only_an_exact_multiple_of_the_identity_is_scalar(self):
        assert histop._identity_scale(np.eye(3)) == 1.0
        assert histop._identity_scale(-2.5 * np.eye(2)) == -2.5
        assert histop._identity_scale(np.zeros((2, 2))) == 0.0
        assert histop._identity_scale(np.diag([1.0, 1.0 + 2.0 ** -52])) is None
        assert histop._identity_scale(np.array([[1.0, 1e-300], [0.0, 1.0]])) is None
        assert histop._identity_scale(np.ones((1, 2))) is None
        assert histop._identity_scale(np.eye(2)[None]) is None

    def test_inputs_of_another_dimension_are_refused(self):
        grid = TimeGrid(1.0, 8)
        op = volterra_operator(VolterraKernel.exponential(0.5, 1.0, np.eye(3)), grid, HilbertSpace(3))
        with pytest.raises(DimensionMismatchError):
            op.run(op.init_state(grid), 0, np.ones((4, 2)))

    @pytest.mark.parametrize("rate", [2.0, -3.0, 0.0])
    @pytest.mark.parametrize("amp", [0.3, -0.7])
    def test_declared_constant_into_the_input_space_is_abs_c_times_peak_profile(self, rate, amp):
        # the profile's peak over the grid is at one of its ends, bit for bit
        grid = TimeGrid(1.0, 1024)
        space = HilbertSpace(2, metric=np.array([[2.0, 0.5], [0.5, 1.0]]))
        kernel = VolterraKernel.exponential(amp, rate, -1.7 * np.eye(2))
        peak = np.abs(kernel.profile_on_grid(grid)).max()
        for op in (volterra_operator(kernel, grid, space),
                   volterra_operator(kernel, grid, space, out_space=space)):
            assert op.L == 1.7 * peak

    def test_declared_constant_into_another_space(self, monkeypatch, tmp_path):
        # the abstract config's parameter kernel maps X = diag(2, 0.5) into Y = R^2
        from sweepvi.cli import _build, load_config

        cfg = tmp_path / "kernels.ini"
        cfg.write_text(ABSTRACT_KERNELS)
        spec = _build(load_config(cfg))[1]
        x_space, y_space = spec.x_space, spec.y_space
        param, load = spec.parameter_memory, spec.load_memory
        assert y_space is not x_space
        grid = spec.grid
        peak = max(0.5, 0.5 * float(np.exp(-1.5)))
        assert param.L == pytest.approx(peak * np.sqrt(2.0), rel=1e-14)
        dense = self.dense(monkeypatch, VolterraKernel.exponential(0.5, 1.5, np.eye(2)), grid,
                           x_space, out_space=y_space)
        assert param.L == dense.L
        assert load.L == 0.25 * max(1.0, float(np.exp(0.5)))

    def test_a_non_finite_input_ends_in_the_solvers_non_finite_error(self):
        from sweepvi import NonFiniteError
        from sweepvi.inclusion import _solve_nodes

        grid = TimeGrid(1.0, 16)
        X = HilbertSpace(2)
        memory = volterra_operator(VolterraKernel.exponential(0.5, 1.0, np.eye(2)), grid, X)
        spec = build_inclusion_variant(
            "parameter_free", cone=ConstraintCone.nonnegative(X, [0]),
            operator=MonotoneOperator.from_matrix(X, 2.0 * np.eye(2)),
            functional=HomogeneousFunctional.zero(X), f=Trajectory.constant(X, grid, [1.0, 0.5]),
            grid=grid, load_memory=memory)
        for bad in (np.inf, -np.inf, np.nan):
            u = np.ones((grid.steps + 1, 2))
            u[5, 1] = bad
            with np.errstate(invalid="ignore"):
                xi = memory.run(memory.init_state(grid), 0, u)[1]
            assert not np.isfinite(xi[6:]).all()
            eta = np.zeros((grid.steps + 1, spec.y_space.dim))
            with pytest.raises(NonFiniteError):
                _solve_nodes(spec, 0, eta, xi, 1e-10)


ABSTRACT_KERNELS = """\
[problem]
kind = abstract

[abstract]
variant = memory_pair
dimension = 2
metric = 2 0.5
operator = 2 0 0 2
functional = block_norm
weights = 1 1
blocks = 0; 1
f = 1.0
parameter_kernel = 0.5
parameter_rate = 1.5
load_kernel = 0.25
load_rate = -0.5

[time]
horizon = 1.0
steps = 16
"""
