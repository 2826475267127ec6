"""Causal memory operators on trajectories and their fixed points.

An operator ``S`` here maps trajectories to trajectories causally and admits
constants ``(l, L)`` with

    ||S u1(t) - S u2(t)|| <= l ||u1(t) - u2(t)|| + L * int_0^t ||u1 - u2|| ds.

With ``l = 0`` this is a pure memory (Volterra-type) operator; with
``0 <= l < 1`` the operator still has a unique fixed point, computed here by
Picard sweeps.  Integrals are composite trapezoid sums on the trajectory
grid, which is second-order accurate for the piecewise-linear trajectories
used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import DimensionMismatchError, HilbertSpace, TimeGrid, TimeRangeError, Trajectory

__all__ = [
    "IneligibleOperatorError",
    "HistoryOperator",
    "ExponentialProfile",
    "VolterraKernel",
    "volterra_operator",
    "identity_operator",
    "zero_operator",
    "exp_growth_memory_operator",
    "trapezoid_weights",
    "running_trapezoid",
    "continue_trapezoid",
    "check_causality",
    "check_declared_bound",
    "picard_fixed_point",
]


# rows of one chunk of the exponential memory's scan (see _volterra_steps):
# long enough that a chunk is one BLAS product rather than a numpy call per
# row, short enough that the 64 x 64 decay matrix stays small and a chunk
# row, a sum of at most 64 terms, stays within 64 ulps of the largest output
_SCAN_ROWS = 64
_MAX_RATIO = 0.95           # the stopping test's ratio of successive changes is clipped to this


class IneligibleOperatorError(ValueError):
    """The operator's declared constants rule out the requested algorithm."""


def trapezoid_weights(k: int, dt: float) -> np.ndarray:
    """Composite trapezoid weights for ``int_0^{t_k}`` over nodes ``0..k``."""
    if k == 0:
        return np.zeros(1)
    w = np.full(k + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def running_trapezoid(y: np.ndarray, dt: float) -> np.ndarray:
    """Composite trapezoid sums ``int_0^{t_k} y`` for every node ``k``, along axis 0.

    :func:`continue_trapezoid` from an empty sum at node 0, so its
    cumulative sum adds the terms ``dt * (y_{k-1} + y_k) / 2.0`` in node
    order, the order of operations of ``scipy.integrate.cumulative_trapezoid(
    y, dx=dt, axis=0, initial=0)``: the two agree bit for bit.
    """
    return continue_trapezoid(0.0, 0.0, 0, np.asarray(y, dtype=float), dt)


def continue_trapezoid(acc, prev, first: int, y: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid sums at nodes ``first, first + 1, ...``, continued from node ``first - 1``.

    ``acc`` is the sum through node ``first - 1`` and ``prev`` the integrand
    there (unused when ``first == 0``, where the sum is ``acc``); ``y`` holds
    the integrand at the window's nodes, one row each.  One ``np.cumsum``
    seeded with ``acc`` adds the terms ``dt * (prev + y_k) / 2.0`` in node
    order (``np.add.accumulate``, the sum ``np.cumsum`` runs), so the sums
    equal a node-by-node loop bit for bit.
    """
    sums = np.empty((len(y) + 1,) + y.shape[1:])
    sums[0] = acc
    sums[1] = dt * (prev + y[0]) / 2.0 if first else 0.0
    if len(y) > 1:
        sums[2:] = dt * (y[:-1] + y[1:]) / 2.0
    return np.add.accumulate(sums, axis=0, out=sums)[1:]


@dataclass(frozen=True)
class HistoryOperator:
    """Causal trajectory-to-trajectory map with declared constants ``(l, L)``.

    Every operator is its block step: ``start`` is the state before node 0
    and ``advance(state, first, inputs)`` consumes the inputs at nodes
    ``first, first + 1, ...``, one row each, and returns ``(state', outputs)``:
    the state after the last node and one output row per node.  Stepping a
    window in one call and stepping it node by node give the same outputs
    bit for bit, except for the exponential Volterra memory: its chunked
    scan (see :func:`_volterra_steps`) makes the two agree within
    ``_SCAN_ROWS`` ulps of the largest output.  ``init_state(grid)`` hands
    out ``start`` for inputs on ``grid``, :meth:`run` is the block step and
    :meth:`step` its one-row case.  States are plain values that no step
    writes to (numbers, tuples, and arrays the step built itself, such as
    the read-only input prefix of a summing kernel), so the coupling solver
    can try several guesses for a window against the same committed state.
    A step may keep references to its inputs, which the caller must not
    change afterwards, and outputs may be shared with the state or with the
    inputs, so the built-in memories hand out read-only outputs where they
    do.

    Whole-trajectory evaluation (``__call__``) and :meth:`at_node` are runs
    of the block step, so each memory has one implementation.
    ``out_space=None`` keeps the input space.  A memory built for a ``grid``
    refuses inputs on any other grid, since its step bakes in that grid's
    spacing and kernel samples; ``grid=None`` accepts every grid.
    """

    start: object = field(repr=False, compare=False)
    advance: Callable[[object, int, np.ndarray], tuple] = field(repr=False)
    l: float
    L: float
    tag: str = "history"
    out_space: HilbertSpace | None = field(default=None, repr=False, compare=False)
    grid: TimeGrid | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.l < 0 or self.L < 0:
            raise ValueError("constants must be nonnegative")

    def init_state(self, grid: TimeGrid):
        if self.grid is not None and grid != self.grid:
            raise DimensionMismatchError(f"{self.tag} memory was built for {self.grid}, "
                                         f"got an input on {grid}")
        return self.start

    def step(self, state, k: int, u_k: np.ndarray) -> tuple[object, np.ndarray]:
        """One node: the block step on the one row ``u_k``."""
        state, out = self.advance(state, k, np.asarray(u_k, dtype=float)[None])
        return state, out[0]

    def run(self, state, first: int, inputs: np.ndarray) -> tuple[object, np.ndarray]:
        """Step from ``state`` over ``inputs``, the inputs at nodes ``first, first + 1, ...``.

        Returns the state after the last node and the outputs, one row per
        node: one call of the block step.  Whole-trajectory calls,
        :meth:`at_node` and the coupling solver's passes all run it.
        """
        return self.advance(state, first, inputs)

    def __call__(self, traj: Trajectory) -> Trajectory:
        """Whole-trajectory evaluation: one run of the block step over the nodes."""
        _, out = self.run(self.init_state(traj.grid), 0, traj.samples)
        out_space = self.out_space
        if out_space is None:
            out_space = traj.space if out.shape[1] == traj.space.dim else HilbertSpace(out.shape[1])
        return Trajectory(out_space, traj.grid, out)

    def at_node(self, traj: Trajectory, k: int) -> np.ndarray:
        """The output at node ``k`` of ``traj``'s grid, ``0 <= k <= steps``."""
        if not 0 <= k <= traj.grid.steps:
            raise TimeRangeError(f"node {k} outside 0..{traj.grid.steps}")
        _, out = self.run(self.init_state(traj.grid), 0, traj.samples[:k + 1])
        return out[-1]


@dataclass(frozen=True)
class ExponentialProfile:
    """Kernel profile ``beta(t) = amplitude * exp(-rate * t)``; rate 0 is constant.

    Convolution memories recognise this profile and update recursively at
    O(1) work per node instead of re-summing the history: a scan of the
    recurrence over chunks of ``_SCAN_ROWS`` nodes, one product with a
    matrix of decay powers each (see :func:`_volterra_steps`).
    """

    amplitude: float
    rate: float = 0.0

    def __call__(self, t):
        return self.amplitude * np.exp(-self.rate * t)


@dataclass(frozen=True)
class VolterraKernel:
    """Matrix kernel ``t -> B(t)`` for convolution memories.

    ``scalar_profile`` plus ``matrix`` describes the common separable form
    ``B(t) = beta(t) * C`` which evaluates much faster; with an
    :class:`ExponentialProfile` (see :meth:`exponential`) the memory costs
    O(1) per node.  The blocks ``B(t)`` need not be symmetric.
    """

    matrix_fn: Callable[[float], np.ndarray] | None = None
    scalar_profile: Callable[[float], float] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if (self.matrix_fn is None) == (self.scalar_profile is None):
            raise ValueError("provide exactly one of matrix_fn or (scalar_profile, matrix)")
        if self.scalar_profile is not None and self.matrix is None:
            raise ValueError("scalar_profile needs a matrix factor")

    @classmethod
    def exponential(cls, amplitude: float, rate: float, matrix) -> "VolterraKernel":
        """``B(t) = amplitude * exp(-rate * t) * matrix``."""
        return cls(scalar_profile=ExponentialProfile(float(amplitude), float(rate)),
                   matrix=np.asarray(matrix, dtype=float))

    def at(self, t: float) -> np.ndarray:
        if self.scalar_profile is not None:
            return float(self.scalar_profile(t)) * self.matrix
        return np.asarray(self.matrix_fn(t), dtype=float)

    def profile_on_grid(self, grid: TimeGrid) -> np.ndarray:
        """``beta`` at the grid nodes, one profile call per node."""
        return np.array([float(self.scalar_profile(t)) for t in grid.nodes])

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        return np.stack([self.at(t) for t in grid.nodes])


def _volterra_steps(kernel: VolterraKernel, grid: TimeGrid):
    """``(advance, kernel norms)`` of the trapezoid convolution on ``grid``, from state ``None``.

    ``advance`` is the block step of :class:`HistoryOperator`.  The kernel
    norms are ``beta`` on the grid for separable kernels (at the grid's two
    ends for an exponential profile, whose ``|beta|`` is monotone) and the
    matrices ``B(t_k)`` otherwise; they bound the memory constant.

    Exponential profiles run a recurrence, O(1) per node: one batched
    product gives ``g_k = G u_k`` for every row of the block, and
    ``out_k = decay out_{k-1} + h_k`` with ``h_k = g_k + decay g_{k-1}`` runs
    as a scan over chunks of at most ``_SCAN_ROWS`` rows.  A chunk of ``n``
    rows is ``P[:n, :n] @ h + decay^{1..n} carry``, where
    ``P[i, j] = decay^{i-j}`` is the lower-triangular Toeplitz matrix built
    once per grid and ``carry`` is the last output before the chunk.  The
    block's outputs and a node-by-node loop agree within ``_SCAN_ROWS`` ulps
    of the largest output, not bit for bit.  From the first non-finite
    ``h_k`` on, the recurrence runs row by row, so a non-finite input never
    reaches an earlier output.  When ``C = c I`` (an exact test
    made once), ``g_k`` is the scalar product ``(dt/2 amplitude c) u_k``, bit
    for bit the matrix-vector product for finite inputs.

    General kernels sum the prefix, O(k) per node, node by node inside the
    block.  Their state after node ``k`` is one read-only array, the inputs
    at nodes ``0..k``; a step extends a copy of it, so a state never changes.
    The two half weights of the trapezoid rule are folded into the data:
    row 0 holds ``u_0 / 2`` and the kernel sample at lag 0 is halved, so
    ``out_k`` is one weighted sum over rows ``0..k``.
    """
    dt = grid.dt

    def stepper(weighted: np.ndarray, total: Callable, out_dim: int):
        weighted[0] *= 0.5

        def advance(prefix, first, inputs):
            if first:
                rows = np.concatenate((prefix, inputs))
            else:
                rows = np.array(inputs, dtype=float)
                rows[0] *= 0.5
            out = np.empty((len(inputs), out_dim))
            for j, k in enumerate(range(first, len(rows))):
                out[j] = total(weighted[k::-1], rows[:k + 1]) if k else 0.0
            rows.setflags(write=False)
            return rows, out

        return advance

    if kernel.scalar_profile is None:
        mats = kernel.on_grid(grid)
        advance = stepper(dt * mats, lambda w, U: np.einsum("jab,jb->a", w, U), mats.shape[1])
        return advance, mats

    C = np.asarray(kernel.matrix, dtype=float)
    profile = kernel.scalar_profile
    if isinstance(profile, ExponentialProfile):
        # I_k = e^{-r dt} I_{k-1} + dt/2 (e^{-r dt} u_{k-1} + u_k) is the composite
        # trapezoid sum of int_0^{t_k} e^{-r (t_k - s)} u(s) ds; with
        # out_k = c C I_k and g_k = c C dt/2 u_k this is the recurrence
        # out_k = e^{-r dt} out_{k-1} + h_k, h_k = g_k + e^{-r dt} g_{k-1}, and
        # the state after node k is (out_k, g_k), g_k as a one-row block
        G = (0.5 * dt * profile.amplitude) * C
        # G = g I exactly: each row of G @ u_k is g u_k plus zero terms, and
        # + 0.0 makes a -0 product the +0 of that sum
        g = float(G[0, 0]) if _identity_scale(C) is not None else None
        decay = float(np.exp(-profile.rate * dt))
        # P[i, j] = decay^{i-j}: a chunk is one product, and each output
        # carries at most one chunk's rounding on top of its carry
        powers = decay ** np.arange(_SCAN_ROWS + 1)
        lags = np.arange(_SCAN_ROWS)
        P = np.tril(powers[np.abs(lags[:, None] - lags)])
        carried = powers[1:, None]          # decay^{1..n}: the carry's weight in a chunk row

        def advance(state, first, inputs):
            if g is None:
                gs = inputs @ G.T
            elif inputs.shape[1:] != (len(G),):
                raise DimensionMismatchError(f"expected input rows of length {len(G)}, "
                                             f"got shape {inputs.shape}")
            else:
                gs = g * inputs
                gs += 0.0
            out = np.empty(gs.shape)
            if first == 0:                  # out_0 = 0, and node 1 steps from (0, g_0)
                out[0] = 0.0
                carry, j0, hs = out[0], 1, gs[1:] + decay * gs[:-1]
            else:                           # g_prev is the row g_{first-1}, shape (1, dim)
                carry, g_prev = state
                j0, hs = 0, gs + decay * np.concatenate((g_prev, gs[:-1]))
            # the zeros above P's diagonal times a non-finite row would poison
            # the rows before it: the products stop at the first such row
            stop = len(hs)
            finite = np.isfinite(hs)
            if np.count_nonzero(finite) < finite.size:
                stop = int(finite.all(axis=1).argmin())
            for lo in range(0, len(hs), _SCAN_ROWS):
                h = hs[lo:lo + _SCAN_ROWS]
                n = len(h)
                m = min(max(stop - lo, 0), n)
                rows = out[j0 + lo:j0 + lo + n]
                if m < n:       # zeroed, as a shorter product would round differently
                    h = np.concatenate((h[:m], np.zeros_like(h[m:])))
                np.dot(P[:n, :n], h, out=rows)     # np.matmul's product, bit for bit
                rows += carried[:n] * carry
                for i in range(m, n):
                    rows[i] = decay * (rows[i - 1] if i else carry) + hs[lo + i]
                carry = rows[-1]
            out.setflags(write=False)
            return (out[-1], gs[-1:]), out

        # |beta| is monotone in t, so its largest value on the grid is at an end
        return advance, np.array([float(profile(t)) for t in grid.nodes[[0, -1]]])

    beta = kernel.profile_on_grid(grid)
    advance = stepper(dt * beta, lambda w, U: C @ (w @ U), C.shape[0])
    return advance, beta


def _identity_scale(C: np.ndarray) -> float | None:
    """``c`` when ``C`` is exactly ``c I``, else ``None``."""
    if C.ndim != 2 or C.shape[0] != C.shape[1] or not C.size:
        return None
    c = float(C[0, 0])
    return c if np.array_equal(C, np.diag(np.full(len(C), c))) else None


def _metric_norm(B: np.ndarray, input_space: HilbertSpace, target: HilbertSpace) -> float:
    """Operator norm of ``B`` between the metric norms: ``sqrt(lambda_max(B^T M_out B, M_in))``.

    For ``B = c I`` into the input space itself that is ``|c|``.
    """
    c = _identity_scale(B)
    if c is not None and target is input_space:
        return abs(c)
    return float(np.sqrt(max(input_space.eigvalsh(target.apply_metric(B.T) @ B)[-1], 0.0)))


def volterra_operator(kernel: VolterraKernel, grid: TimeGrid, input_space: HilbertSpace,
                      out_space: HilbertSpace | None = None,
                      tag: str = "volterra") -> HistoryOperator:
    """Wrap a kernel as a :class:`HistoryOperator` with ``l = 0``.

    ``L`` is bounded by ``max_t ||B(t)||`` in the input space norm times the
    output norm distortion, measured on the grid nodes (exact for separable
    kernels with constant factor; an exponential profile is monotone, so
    its grid maximum is read at the grid's two ends).  Exponential profiles
    step in O(1) per node, as a chunked scan of their recurrence; other
    kernels sum the prefix, O(k).
    """
    advance, norms = _volterra_steps(kernel, grid)
    target = out_space or input_space
    if kernel.scalar_profile is not None:
        L = float(np.abs(norms).max()) * _metric_norm(
            np.asarray(kernel.matrix, dtype=float), input_space, target)
    else:
        L = max(_metric_norm(B, input_space, target) for B in norms)
    return HistoryOperator(None, advance, l=0.0, L=float(L), tag=tag,
                           out_space=out_space, grid=grid)


def identity_operator(tag: str = "identity") -> HistoryOperator:
    def advance(state, first, inputs):
        out = inputs.view()
        out.setflags(write=False)
        return None, out

    return HistoryOperator(None, advance, l=1.0, L=0.0, tag=tag)


def zero_operator(out_space: HilbertSpace, tag: str = "zero") -> HistoryOperator:
    dim = out_space.dim

    def advance(state, first, inputs):
        out = np.zeros((len(inputs), dim))
        out.setflags(write=False)
        return None, out

    return HistoryOperator(None, advance, l=0.0, L=0.0, tag=tag, out_space=out_space)


def exp_growth_memory_operator(grid: TimeGrid) -> HistoryOperator:
    """``(S u)(t) = e^t u(t) + int_0^t s u(s) ds`` (trapezoid rule) on ``grid``.

    The canonical operator whose instantaneous coefficient exceeds 1, so it
    falls outside the fixed-point-eligible class on horizons of length >= 1.
    Constants on ``[0, T]``: instantaneous ``e^T``, memory weight ``T``.
    """
    nodes, growth, dt = grid.nodes, np.exp(grid.nodes), grid.dt

    def advance(state, first, inputs):
        acc, prev = state
        window = slice(first, first + len(inputs))
        weighted = nodes[window, None] * inputs
        accs = continue_trapezoid(acc, prev, first, weighted, dt)
        return (accs[-1], weighted[-1]), growth[window, None] * inputs + accs

    T = grid.horizon
    return HistoryOperator((0.0, None), advance, l=float(np.exp(T)), L=float(T),
                           tag="exp_growth", grid=grid)


def _norm_history(space_in: HilbertSpace, traj_a: Trajectory, traj_b: Trajectory):
    """Pointwise norms of the difference and its running trapezoid integral."""
    p = space_in.norms_many(traj_a.samples - traj_b.samples)
    return p, running_trapezoid(p, traj_a.grid.dt)


def check_causality(op: Callable[[Trajectory], Trajectory], space: HilbertSpace,
                    grid: TimeGrid, trials: int = 8, seed: int = 0) -> float:
    """Largest change in past outputs caused by tail perturbations (0 if causal).

    ``op`` is any map of whole trajectories, so maps that are not built from
    a causal step can be audited too.
    """
    rng = np.random.default_rng(seed)
    n = grid.steps
    worst = 0.0
    for _ in range(trials):
        a = Trajectory(space, grid, rng.standard_normal((n + 1, space.dim)))
        k = int(rng.integers(0, n))
        bumped = a.samples.copy()
        bumped[k + 1 :] += rng.standard_normal((n - k, space.dim))
        b = Trajectory(space, grid, bumped)
        ya, yb = op(a), op(b)
        dev = np.abs(ya.samples[: k + 1] - yb.samples[: k + 1]).max(initial=0.0)
        worst = max(worst, float(dev))
    return worst


def check_declared_bound(op: HistoryOperator, space: HilbertSpace, grid: TimeGrid,
                         trials: int = 32, seed: int = 0) -> float:
    """Largest violation of the declared ``(l, L)`` bound on sampled pairs (<= 0 if honest)."""
    rng = np.random.default_rng(seed)
    n = grid.steps
    worst = -np.inf
    for _ in range(trials):
        a = Trajectory(space, grid, rng.standard_normal((n + 1, space.dim)))
        b = Trajectory(space, grid, rng.standard_normal((n + 1, space.dim)))
        out_a, out_b = op(a), op(b)
        p, q = _norm_history(space, a, b)
        d = out_a.space.norms_many(out_a.samples - out_b.samples)
        worst = max(worst, float(np.max(d - op.l * p - op.L * q)))
    return worst


def _stop_threshold(ratio: float, tol: float) -> float:
    """Largest change of a Picard iteration that certifies a fixed-point distance ``<= tol``.

    ``ratio`` is the largest ratio of successive changes seen, clipped to
    ``[1e-3, _MAX_RATIO]`` as ``q``; a change ``c`` then certifies the
    distance ``q / (1 - q) c``.  The threshold is never above ``tol`` itself.
    """
    r = min(max(ratio, 1e-3), _MAX_RATIO)
    return min(tol, tol * (1.0 - r) / r)


def picard_fixed_point(op: HistoryOperator, space: HilbertSpace, grid: TimeGrid,
                       tol: float = 1e-10, max_sweeps: int = 10000) -> Trajectory:
    """Unique fixed point of an operator with ``l < 1`` by repeated application.

    The sweep map contracts in an exponentially weighted sup norm whenever
    ``l < 1``, so plain iteration from zero converges.  It stops on the rule
    of :func:`~sweepvi.inclusion.solve_inclusion`'s windows: the sup-node
    displacement, with the largest sweep ratio seen so far, must certify a
    distance of at most ``tol``, and is never above ``tol`` itself.  The
    largest ratio, not the last, so one small ratio cannot loosen the test.
    """
    if not op.l < 1.0:
        raise IneligibleOperatorError(
            f"fixed point needs an instantaneous coefficient below 1, declared l={op.l}"
        )
    traj = Trajectory.zeros(space, grid)
    prev_disp = None
    ratio = 0.0
    for _ in range(max_sweeps):
        nxt = op(traj)
        disp = nxt.sup_distance(traj)
        traj = nxt
        if prev_disp is not None and prev_disp > 1e-300:
            ratio = max(ratio, disp / prev_disp)
        prev_disp = disp
        if disp <= _stop_threshold(ratio, tol):
            return traj
    raise IneligibleOperatorError(
        f"no fixed-point convergence in {max_sweeps} sweeps (last displacement {prev_disp:.3e})"
    )
