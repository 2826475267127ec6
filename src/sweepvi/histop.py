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

from .core import DimensionMismatchError, HilbertSpace, TimeGrid, Trajectory

__all__ = [
    "IneligibleOperatorError",
    "HistoryOperator",
    "ExponentialProfile",
    "VolterraKernel",
    "apply_volterra",
    "volterra_operator",
    "identity_operator",
    "zero_operator",
    "exp_growth_memory",
    "exp_growth_memory_operator",
    "trapezoid_weights",
    "running_trapezoid",
    "check_causality",
    "check_declared_bound",
    "picard_fixed_point",
]


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

    The sum of ``scipy.integrate.cumulative_trapezoid(y, dx=dt, axis=0,
    initial=0)``, in its order of operations, so the two agree bit for bit.
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    np.cumsum(dt * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def _zeros(dim: int) -> np.ndarray:
    """A read-only zero vector, safe to hand out as the output of many steps."""
    zero = np.zeros(dim)
    zero.flags.writeable = False
    return zero


@dataclass(frozen=True)
class HistoryOperator:
    """Causal trajectory-to-trajectory map with declared constants ``(l, L)``.

    Every operator is its causal step: ``start`` is the state before node 0
    and ``advance(state, k, u_k)`` consumes the input at node ``k`` and
    returns ``(state', out_k)``.  ``init_state(grid)`` hands out ``start``
    for inputs on ``grid`` and ``step`` is ``advance``.  States are values:
    a state is never changed by stepping from it, so the time-marching
    solver can try several guesses for ``u_k`` against the same committed
    state.  ``step`` may keep a reference to ``u_k``, which the caller must
    not change afterwards, and ``out_k`` may be shared with the state or
    with other steps, so the built-in memories hand it out read-only.

    Whole-trajectory evaluation (``__call__``) and :meth:`at_node` are loops
    over the step, so each memory has one implementation.  ``out_space=None``
    keeps the input space.  A memory built for a ``grid`` refuses inputs on
    any other grid, since its step bakes in that grid's spacing and kernel
    samples; ``grid=None`` accepts every grid.
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
        return self.advance(state, k, u_k)

    def run(self, state, first: int, inputs: np.ndarray) -> tuple[object, np.ndarray]:
        """Step from ``state`` over ``inputs``, the inputs at nodes ``first, first + 1, ...``.

        Returns the state after the last node and the outputs, one row per
        node.  The one loop over the step: whole-trajectory calls,
        :meth:`at_node` and the coupling solver's passes all run it.
        """
        advance = self.advance
        state, out0 = advance(state, first, inputs[0])
        out = np.empty((len(inputs), np.size(out0)))
        out[0] = out0
        for j in range(1, len(inputs)):
            state, out[j] = advance(state, first + j, inputs[j])
        return state, out

    def __call__(self, traj: Trajectory) -> Trajectory:
        """Whole-trajectory evaluation: one run of the step over the nodes."""
        _, out = self.run(self.init_state(traj.grid), 0, traj.samples)
        out_space = self.out_space
        if out_space is None:
            out_space = traj.space if out.shape[1] == traj.space.dim else HilbertSpace(out.shape[1])
        return Trajectory(out_space, traj.grid, out)

    def at_node(self, traj: Trajectory, k: int) -> np.ndarray:
        _, out = self.run(self.init_state(traj.grid), 0, traj.samples[:k + 1])
        return out[-1]


@dataclass(frozen=True)
class ExponentialProfile:
    """Kernel profile ``beta(t) = amplitude * exp(-rate * t)``; rate 0 is constant.

    Convolution memories recognise this profile and update recursively at
    O(1) work per node instead of re-summing the history.
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
    O(1) per node.  ``symmetric=True`` asserts symmetric kernel blocks and is
    audited on the grid nodes.
    """

    matrix_fn: Callable[[float], np.ndarray] | None = None
    scalar_profile: Callable[[float], float] | None = None
    matrix: np.ndarray | None = None
    symmetric: bool = False

    def __post_init__(self):
        if (self.matrix_fn is None) == (self.scalar_profile is None):
            raise ValueError("provide exactly one of matrix_fn or (scalar_profile, matrix)")
        if self.scalar_profile is not None and self.matrix is None:
            raise ValueError("scalar_profile needs a matrix factor")

    @classmethod
    def exponential(cls, amplitude: float, rate: float, matrix,
                    symmetric: bool = False) -> "VolterraKernel":
        """``B(t) = amplitude * exp(-rate * t) * matrix``."""
        return cls(scalar_profile=ExponentialProfile(float(amplitude), float(rate)),
                   matrix=np.asarray(matrix, dtype=float), symmetric=symmetric)

    def at(self, t: float) -> np.ndarray:
        if self.scalar_profile is not None:
            return float(self.scalar_profile(t)) * self.matrix
        return np.asarray(self.matrix_fn(t), dtype=float)

    def profile_on_grid(self, grid: TimeGrid) -> np.ndarray:
        """``beta`` at the grid nodes, one profile call per node."""
        return np.array([float(self.scalar_profile(t)) for t in grid.nodes])

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        mats = np.stack([self.at(t) for t in grid.nodes])
        self._audit_symmetry(mats)
        return mats

    def _audit_symmetry(self, mats: np.ndarray) -> None:
        if not self.symmetric:
            return
        dev = np.abs(mats - np.swapaxes(mats, -1, -2)).max()
        if dev > 1e-10 * max(np.abs(mats).max(), 1e-30):
            raise ValueError("kernel declared symmetric but grid samples are not")


class _Rows:
    """Append-only buffer of the inputs of one evaluation, shared by its states.

    Rows below ``filled`` are claimed: written once and never changed, so
    the states sharing the buffer stay values.  Row ``filled`` is scratch
    for the input being tried at the current node.  A state whose prefix a
    sibling state has already extended differently gets a fresh copy.
    """

    def __init__(self, capacity: int, dim: int):
        self.data = np.empty((capacity, dim))
        self.filled = 0

    def trial(self, k: int, last: np.ndarray, u: np.ndarray) -> "_Rows":
        """Rows ``0..k-2`` held here, then ``last`` claimed as row ``k - 1``
        and ``u`` written to scratch row ``k``."""
        rows = self
        if self.filled == k - 1:
            self.data[k - 1] = last
            self.filled = k
        elif self.filled > k or not np.array_equal(self.data[k - 1], last):
            rows = _Rows(*self.data.shape)
            rows.data[:k - 1] = self.data[:k - 1]
            rows.data[k - 1] = last
            rows.filled = k
        rows.data[k] = u
        return rows


def _volterra_steps(kernel: VolterraKernel, grid: TimeGrid):
    """``(start, advance, kernel norms)`` of the trapezoid convolution on ``grid``.

    The kernel norms are ``beta`` on the grid for separable kernels and the
    matrices ``B(t_k)`` otherwise; they bound the memory constant.

    General kernels sum the prefix, O(k) per node.  Their state after node
    ``k`` is ``(rows, u_k)``: the inputs before node ``k`` in a shared
    :class:`_Rows` buffer, and ``u_k``, claimed only when the next node steps
    from the state, so trial steps copy nothing.  The two half weights of the
    trapezoid rule are folded into the data: row 0 holds ``u_0 / 2`` and the
    kernel sample at lag 0 is halved, so ``out_k`` is one weighted sum over
    rows ``0..k``.
    """
    dt, capacity = grid.dt, grid.steps + 1

    def stepper(weighted: np.ndarray, total: Callable, out_dim: int):
        zero = _zeros(out_dim)
        weighted[0] *= 0.5

        def advance(state, k, u_k):
            if k == 0:
                return (_Rows(capacity, u_k.size), 0.5 * u_k), zero
            rows, last = state
            rows = rows.trial(k, last, u_k)
            return (rows, u_k), total(weighted[k::-1], rows.data[:k + 1])

        return advance

    if kernel.scalar_profile is None:
        mats = kernel.on_grid(grid)
        advance = stepper(dt * mats, lambda w, U: np.einsum("jab,jb->a", w, U), mats.shape[1])
        return None, advance, mats

    C = np.asarray(kernel.matrix, dtype=float)
    beta = kernel.profile_on_grid(grid)
    kernel._audit_symmetry(np.abs(beta).max() * C)
    profile = kernel.scalar_profile
    if isinstance(profile, ExponentialProfile):
        # I_k = e^{-r dt} I_{k-1} + dt/2 (e^{-r dt} u_{k-1} + u_k) is the composite
        # trapezoid sum of int_0^{t_k} e^{-r (t_k - s)} u(s) ds; the state keeps
        # out_{k-1} = c C I_{k-1} and g_{k-1} = c C dt/2 u_{k-1}, so that
        # out_k = e^{-r dt} (out_{k-1} + g_{k-1}) + g_k at O(1) per node
        G = (0.5 * dt * profile.amplitude) * C
        decay = float(np.exp(-profile.rate * dt))
        zero = _zeros(C.shape[0])

        def advance(state, k, u_k):
            g = G @ u_k
            if k == 0:
                return (zero, g), zero
            out, g_prev = state
            out = decay * (out + g_prev) + g
            out.flags.writeable = False
            return (out, g), out

        return None, advance, beta

    advance = stepper(dt * beta, lambda w, U: C @ (w @ U), C.shape[0])
    return None, advance, beta


def apply_volterra(kernel: VolterraKernel, traj: Trajectory,
                   out_space: HilbertSpace | None = None) -> Trajectory:
    """Trapezoid discretization of ``(S u)(t) = int_0^t B(t - s) u(s) ds``."""
    start, advance, _ = _volterra_steps(kernel, traj.grid)
    return HistoryOperator(start, advance, l=0.0, L=0.0, out_space=out_space)(traj)


def _metric_norm(B: np.ndarray, input_space: HilbertSpace, target: HilbertSpace) -> float:
    """Operator norm of ``B`` between the metric norms (a singular-value bound)."""
    A = np.linalg.cholesky(target.metric).T @ B @ np.linalg.inv(np.linalg.cholesky(input_space.metric).T)
    return float(np.linalg.norm(A, 2))


def volterra_operator(kernel: VolterraKernel, grid: TimeGrid, input_space: HilbertSpace,
                      out_space: HilbertSpace | None = None, L: float | None = None,
                      tag: str = "volterra") -> HistoryOperator:
    """Wrap a kernel as a :class:`HistoryOperator` with ``l = 0``.

    When ``L`` is omitted it is bounded by ``max_t ||B(t)||`` in the input
    space norm times the output norm distortion, measured on the grid nodes
    (exact for separable kernels with constant factor).  Exponential
    profiles step in O(1) per node; other kernels sum the prefix, O(k).
    """
    start, advance, norms = _volterra_steps(kernel, grid)
    if L is None:
        target = out_space or input_space
        if kernel.scalar_profile is not None:
            L = float(np.abs(norms).max()) * _metric_norm(
                np.asarray(kernel.matrix, dtype=float), input_space, target)
        else:
            L = max(_metric_norm(B, input_space, target) for B in norms)
    return HistoryOperator(start, advance, l=0.0, L=float(L), tag=tag,
                           out_space=out_space, grid=grid)


def identity_operator(l: float = 1.0, tag: str = "identity") -> HistoryOperator:
    return HistoryOperator(None, lambda state, k, u_k: (None, u_k), l=l, L=0.0, tag=tag)


def zero_operator(out_space: HilbertSpace, tag: str = "zero") -> HistoryOperator:
    zero = _zeros(out_space.dim)
    return HistoryOperator(None, lambda state, k, u_k: (None, zero), l=0.0, L=0.0,
                           tag=tag, out_space=out_space)


def exp_growth_memory(traj: Trajectory) -> Trajectory:
    """Apply ``(S u)(t) = e^t u(t) + int_0^t s u(s) ds`` (trapezoid rule).

    The canonical operator whose instantaneous coefficient exceeds 1, so it
    falls outside the fixed-point-eligible class on horizons of length >= 1.
    """
    return exp_growth_memory_operator(traj.grid)(traj)


def exp_growth_memory_operator(grid: TimeGrid, tag: str = "exp_growth") -> HistoryOperator:
    """Constants on ``[0, T]``: instantaneous ``e^T``, memory weight ``T``."""
    nodes, growth, dt = grid.nodes, np.exp(grid.nodes), grid.dt

    def advance(state, k, u_k):
        acc, prev = state
        weighted = nodes[k] * u_k
        if k:
            acc = acc + dt * (prev + weighted) / 2.0
        return (acc, weighted), growth[k] * u_k + acc

    T = grid.horizon
    return HistoryOperator((0.0, None), advance, l=float(np.exp(T)), L=float(T), tag=tag,
                           grid=grid)


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


def picard_fixed_point(op: HistoryOperator, space: HilbertSpace, grid: TimeGrid,
                       tol: float = 1e-10, max_sweeps: int = 10000,
                       start: Trajectory | None = None) -> Trajectory:
    """Unique fixed point of an operator with ``l < 1`` by repeated application.

    The sweep map contracts in an exponentially weighted sup norm whenever
    ``l < 1``, so plain iteration converges for any start; the stopping rule
    converts the sup-node displacement into a distance bound using the
    measured sweep ratio.
    """
    if not op.l < 1.0:
        raise IneligibleOperatorError(
            f"fixed point needs an instantaneous coefficient below 1, declared l={op.l}"
        )
    traj = start if start is not None else Trajectory.zeros(space, grid)
    prev_disp = None
    ratio = 0.5
    for _ in range(max_sweeps):
        nxt = op(traj)
        disp = nxt.sup_distance(traj)
        traj = nxt
        if prev_disp is not None and prev_disp > 1e-300:
            ratio = min(max(disp / prev_disp, 1e-3), 0.95)
        prev_disp = disp
        if disp <= tol * (1.0 - ratio) / ratio:
            return traj
    raise IneligibleOperatorError(
        f"no fixed-point convergence in {max_sweeps} sweeps (last displacement {prev_disp:.3e})"
    )
