"""Finite-dimensional Hilbert spaces, trajectories, cones and homogeneous functionals.

Everything downstream (variational-inequality solves, memory operators,
sweeping processes, contact assembly) is built on the primitives collected
here: metric inner products, piecewise-linear trajectories on a uniform time
grid, exact metric projections onto coordinate cones, closed-form constrained
proximal maps, and support-function membership tests for moving constraint
sets of the form ``f(t) - C(eta)``.

All objects are treated as immutable after construction and all operations
are pure functions of their arguments, so concurrent read-only use is safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "UnsupportedConfigurationError",
    "TimeRangeError",
    "AssumptionWarning",
    "HilbertSpace",
    "TimeGrid",
    "Trajectory",
    "ConstraintCone",
    "HomogeneousFunctional",
    "MovingSet",
    "membership_residuals",
    "sample_unit_directions",
]

_COUPLING_RTOL = 1e-10
# doubles in one block of the batched verification kernels: (directions x
# (dim + units)) of the lifted sample and (nodes x directions) of its product
# in the pairings, (directions x dim) in the direction sample
_BLOCK_DOUBLES = 2 ** 14


def _row_sums(p: np.ndarray) -> np.ndarray:
    """``np.add.reduce(p, 1)`` of a 2-D block, bit for bit.

    numpy adds fewer than 8 values left to right onto ``+0.0``, so on a
    block that narrow the sum of its columns, in order and from ``+0.0``, is
    the same, signed zeros included; from 64 rows on it also beats the
    reduce, whose loop runs once per row.  Wider blocks, which numpy sums
    pairwise, and shorter ones take the reduce.
    """
    rows, width = p.shape
    if width >= 8 or rows < 64:
        return np.add.reduce(p, 1)
    out = p[:, 0] + 0.0
    for j in range(1, width):
        out += p[:, j]
    return out


def _norms_from(mvs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """:meth:`HilbertSpace.norms_many` of the rows ``vs`` from their product ``mvs = vs M``, bit for bit,
    for a caller that has that product for another use."""
    return np.sqrt(np.maximum(_row_sums(mvs * vs), 0.0))


class DimensionMismatchError(ValueError):
    """Vector or matrix shape inconsistent with the declared space."""


class UnsupportedConfigurationError(ValueError):
    """No exact formula for the requested metric/cone/functional combination."""


class TimeRangeError(ValueError):
    """Query time lies outside the trajectory's grid."""


class AssumptionWarning(RuntimeWarning):
    """A structural assumption (sign, monotonicity, ...) failed an audit."""


def _vec(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatchError(f"expected vector of length {dim}, got shape {v.shape}")
    return v


def _stiffness_bands(h: np.ndarray, c: np.ndarray,
                     components: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of ``G^T diag(c h) G``, ``components`` copies along the diagonal.

    ``G`` is the strain matrix of P1 elements of lengths ``h`` on an
    interval clamped at its left end (``(G u)_e = (u_e - u_{e-1}) / h_e``,
    ``u_{-1} = 0``).  Element ``e`` adds ``t_e = c_e / h_e``, rounded as
    ``(1 / h_e) (c_e h_e) (1 / h_e)``, to the diagonal at nodes ``e - 1`` and
    ``e`` and ``-t_e`` between them; the superdiagonal is 0 where one copy
    meets the next.
    """
    inv_h = 1.0 / h
    t = inv_h * (c * h) * inv_h
    diag = t.copy()
    diag[:-1] += t[1:]
    off = np.append(-t[1:], 0.0)
    return np.tile(diag, components), np.tile(off, components)[:-1]


def _banded(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The dense symmetric tridiagonal matrix with bands ``diag`` and ``off``."""
    n = diag.size
    out = np.zeros((n, n))
    out.flat[::n + 1] = diag
    out.flat[1::n + 1] = off
    out.flat[n::n + 1] = off
    return out


def _stiffness(h: np.ndarray, c: np.ndarray, components: int = 1) -> np.ndarray:
    """``G^T diag(c h) G`` (see :func:`_stiffness_bands`) as a dense matrix; ``c >= 0``."""
    return _banded(*_stiffness_bands(h, c, components))


def _inverse_factor(metric: np.ndarray) -> np.ndarray:
    """``F^{-1}``, read-only, for the Cholesky factor ``M = F F^T``; ``ValueError``
    when ``M`` is not positive definite."""
    try:
        inv_factor = np.linalg.inv(np.linalg.cholesky(metric))
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric must be positive definite") from exc
    inv_factor.flags.writeable = False
    return inv_factor


class HilbertSpace:
    """Real inner-product space of fixed dimension with an SPD metric.

    ``HilbertSpace(dim, metric)`` factors the metric once, ``M = F F^T``
    (Cholesky), and reads the inverse metric ``F^{-T} F^{-1}`` from the
    inverse factor ``F^{-1}``.  :meth:`clamped` builds the energy space of a
    1-D body clamped at one end, whose metric is tridiagonal and whose
    inverse has a closed form, with no factorisation.  The inverse factor
    of such a space is formed only when :meth:`eigvalsh` first asks for
    it.  Other modules reach ``M`` and ``M^{-1}`` only through the methods
    here: the metric :meth:`apply_metric`, the Riesz map
    :meth:`solve_metric`, columns of the inverse (:meth:`inverse_columns`)
    and pencil eigenvalues (:meth:`eigvalsh`, :meth:`metric_eigvalsh`).  A
    block of vectors is a stack of rows: the metric methods take a vector or
    a matrix whose rows are vectors, and act on each row.

    Parameters
    ----------
    dim : int
        Dimension of the space.
    metric : array_like, optional
        Symmetric positive definite Gram matrix defining the inner product
        ``(u, v) = u^T M v``.  Defaults to the identity.
    """

    def __init__(self, dim: int, metric=None):
        if dim < 1:
            raise DimensionMismatchError("dim must be positive")
        self.dim = int(dim)
        if metric is None:
            metric = np.eye(self.dim)
        metric = np.array(metric, dtype=float)
        if metric.shape != (self.dim, self.dim):
            raise DimensionMismatchError("metric shape does not match dim")
        scale = np.abs(metric).max()
        if scale <= 0.0 or not np.all(np.isfinite(metric)):
            raise ValueError("metric must be finite and nonzero")
        if np.abs(metric - metric.T).max() > 1e-12 * scale:
            raise ValueError("metric must be symmetric")
        metric = 0.5 * (metric + metric.T)
        self._inv_factor = _inverse_factor(metric)
        inverse = self._inv_factor.T @ self._inv_factor
        off = metric - np.diag(np.diag(metric))
        self._keep(metric, 0.5 * (inverse + inverse.T), np.abs(off).max() <= 1e-14 * scale)

    @classmethod
    def clamped(cls, h, c, components: int = 1) -> "HilbertSpace":
        """Energy space of ``int c u' v'`` on P1 elements of lengths ``h``, clamped at the left end.

        The free nodes of each of ``components`` copies are the coordinates;
        the metric is ``G^T diag(c h) G`` per copy, tridiagonal, and its
        inverse is the discrete Green's function ``(M^{-1})_ij = s_min(i,j)``
        with ``s = cumsum(h / c)``, both built here in closed form from
        ``h > 0`` and ``c > 0``.  ``ValueError`` when ``s`` is not strictly
        increasing in floating point, where that inverse is singular.
        """
        h = np.asarray(h, dtype=float)
        c = np.asarray(c, dtype=float)
        if h.ndim != 1 or not h.size or c.shape != h.shape or components < 1:
            raise DimensionMismatchError("need one length and one coefficient per element "
                                         "and at least one component")
        if not (np.isfinite(h).all() and np.isfinite(c).all() and (h > 0).all()
                and (c > 0).all()):
            raise ValueError("element lengths and coefficients must be finite and positive")
        diag, off = _stiffness_bands(h, c, components)
        green = np.cumsum(h / c)
        if not (np.isfinite(diag).all() and np.isfinite(green).all()):
            raise ValueError("metric must be finite and nonzero")
        if not (np.diff(green, prepend=0.0) > 0.0).all():
            raise ValueError("metric must be positive definite: its inverse cumsum(h / c) "
                             "does not increase in floating point")
        space = cls.__new__(cls)
        space.dim = h.size * components
        inverse = np.zeros((space.dim, space.dim))
        block = np.minimum.outer(green, green)          # s_min(i,j), as s increases
        for lo in range(0, space.dim, h.size):
            inverse[lo:lo + h.size, lo:lo + h.size] = block
        space._keep(_banded(diag, off), inverse,
                    np.abs(off).max(initial=0.0) <= 1e-14 * diag.max())
        space._inv_factor = None
        return space

    def _keep(self, metric: np.ndarray, inverse: np.ndarray, diagonal) -> None:
        self.metric = metric
        self._inv_metric = inverse
        self.is_diagonal = bool(diagonal) if self.dim > 1 else True
        self.metric.flags.writeable = False
        self._inv_metric.flags.writeable = False

    def inner(self, u, v) -> float:
        u = _vec(u, self.dim)
        v = _vec(v, self.dim)
        return float(u @ (self.metric @ v))

    def norm(self, v) -> float:
        v = _vec(v, self.dim)
        return float(np.sqrt(max(v @ (self.metric @ v), 0.0)))

    def distance(self, u, v) -> float:
        return self.norm(np.asarray(u, dtype=float) - np.asarray(v, dtype=float))

    def norms_many(self, vs: np.ndarray) -> np.ndarray:
        """The norm of each row of ``vs``."""
        vs = np.asarray(vs, dtype=float)
        # ndarray.dot is the BLAS product of @, bit for bit, and np.add.reduce
        # the sum of ndarray.sum, each without the call overhead that
        # dominates on a few rows
        return _norms_from(vs.dot(self.metric), vs)

    def solve_metric(self, bs) -> np.ndarray:
        """Riesz map: ``M^{-1} b`` for a vector ``b`` or for each row of ``bs``."""
        bs = np.asarray(bs, dtype=float)
        if bs.ndim not in (1, 2) or bs.shape[-1] != self.dim:
            raise DimensionMismatchError(f"expected rows of length {self.dim}, got shape {bs.shape}")
        if not np.isfinite(bs).all():
            raise ValueError("right-hand side must be finite")
        return self._riesz(bs)

    def _riesz(self, bs: np.ndarray) -> np.ndarray:
        """:meth:`solve_metric` of a block of rows, without its shape and finiteness checks.

        For the EVI step, which tests its step and iterates for finiteness
        itself: a non-finite row here gives a non-finite result, which that
        test reports.
        """
        return bs.dot(self._inv_metric)        # @, bit for bit (see norms_many)

    def apply_metric(self, xs) -> np.ndarray:
        """``M x`` for a vector ``x`` or for each row of ``xs``; :meth:`solve_metric` inverts it."""
        return np.dot(xs, self.metric)         # @, bit for bit (see norms_many)

    def inverse_columns(self, idx) -> np.ndarray:
        """Columns ``idx`` of ``M^{-1}``, shape ``(dim, len(idx))``, for indices in ``[0, dim)``."""
        idx = np.asarray(idx, dtype=int)
        if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= self.dim)):
            raise DimensionMismatchError(f"inverse-metric indices outside [0, {self.dim})")
        return self._inv_metric[:, idx]

    def eigvalsh(self, A) -> np.ndarray:
        """Ascending eigenvalues of the symmetric pencil ``(A, M)``: ``A x = lambda M x``.

        Computed as the eigenvalues of ``F^{-1} A F^{-T}``; their extremes are
        the sup and inf of ``(x^T A x) / ||x||^2`` over X.  A :meth:`clamped`
        space forms its inverse factor on the first call.
        """
        if self._inv_factor is None:
            self._inv_factor = _inverse_factor(self.metric)
        return np.linalg.eigvalsh(self._inv_factor @ A @ self._inv_factor.T)

    def metric_eigvalsh(self, other: "HilbertSpace") -> np.ndarray:
        """:meth:`eigvalsh` of ``other``'s metric: squared extreme ratios ``||x||_other / ||x||``."""
        return self.eigvalsh(other.metric)

    def __repr__(self) -> str:
        tag = "diag" if self.is_diagonal else "full"
        return f"HilbertSpace(dim={self.dim}, metric={tag})"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_k = k * horizon / steps`` on ``[0, horizon]``."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        object.__setattr__(self, "_nodes", np.linspace(0.0, self.horizon, self.steps + 1))
        self._nodes.flags.writeable = False

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


class Trajectory:
    """Grid samples of a function ``[0, T] -> X`` with linear interpolation."""

    def __init__(self, space: HilbertSpace, grid: TimeGrid, samples):
        samples = np.array(samples, dtype=float)
        if samples.shape != (grid.steps + 1, space.dim):
            raise DimensionMismatchError(
                f"expected samples of shape {(grid.steps + 1, space.dim)}, got {samples.shape}"
            )
        self.space = space
        self.grid = grid
        self.samples = samples
        self.samples.flags.writeable = False

    @classmethod
    def zeros(cls, space: HilbertSpace, grid: TimeGrid) -> "Trajectory":
        return cls(space, grid, np.zeros((grid.steps + 1, space.dim)))

    @classmethod
    def constant(cls, space: HilbertSpace, grid: TimeGrid, value) -> "Trajectory":
        value = _vec(value, space.dim)
        return cls(space, grid, np.tile(value, (grid.steps + 1, 1)))

    @classmethod
    def from_function(cls, space: HilbertSpace, grid: TimeGrid, fn: Callable[[float], Sequence[float]]) -> "Trajectory":
        rows = [_vec(fn(t), space.dim) for t in grid.nodes]
        return cls(space, grid, np.vstack(rows))

    def node(self, k: int) -> np.ndarray:
        return self.samples[k]

    def at(self, t: float) -> np.ndarray:
        """Piecewise-linear value at time ``t``; exact at grid nodes."""
        nodes = self.grid.nodes
        if not nodes[0] <= t <= nodes[-1]:
            raise TimeRangeError(f"t={t} outside [0, {self.grid.horizon}]")
        k = int(np.searchsorted(nodes, t, side="right")) - 1
        k = min(max(k, 0), self.grid.steps - 1)
        span = nodes[k + 1] - nodes[k]
        w = (t - nodes[k]) / span
        if w == 0.0:
            return self.samples[k].copy()
        return (1.0 - w) * self.samples[k] + w * self.samples[k + 1]

    def sup_distance(self, other: "Trajectory") -> float:
        if other.grid.steps != self.grid.steps or other.space.dim != self.space.dim:
            raise DimensionMismatchError("trajectories live on different grids or spaces")
        return float(self.space.norms_many(self.samples - other.samples).max())

    def __repr__(self) -> str:
        return f"Trajectory(dim={self.space.dim}, steps={self.grid.steps})"


_CONE_KINDS = ("whole", "nonpositive", "nonnegative", "zero")


class ConstraintCone:
    """Closed convex cone given by coordinate sign or equality constraints.

    Supported kinds: the whole space, ``x_i <= 0`` on an index set,
    ``x_i >= 0`` on an index set, and ``x_i = 0`` on an index set.  Metric
    projections are exact: coordinate clamps when the metric is diagonal,
    otherwise a small dual solve (nonnegative least squares for inequality
    constraints, a linear solve for equality constraints).
    """

    def __init__(self, space: HilbertSpace, kind: str, indices: Sequence[int] = ()):
        if kind not in _CONE_KINDS:
            raise ValueError(f"unknown cone kind {kind!r}")
        idx = np.array(sorted(set(int(i) for i in indices)), dtype=int)
        if kind == "whole":
            if idx.size:
                raise ValueError(f"cone kind 'whole' takes no indices, got {idx.tolist()}")
        else:
            if idx.size == 0:
                raise ValueError(f"cone kind {kind!r} needs at least one index")
            if idx.min() < 0 or idx.max() >= space.dim:
                raise DimensionMismatchError("cone indices out of range")
        self.space = space
        self.kind = kind
        self.indices = idx
        self.indices.flags.writeable = False
        self._gram_chol = self._gram_chol_inv = self._inv_cols = None
        if kind != "whole" and not space.is_diagonal:
            # the Gram matrix of the constraints in the inverse metric, by its
            # Cholesky factor and that factor's inverse
            self._inv_cols = space.inverse_columns(idx)
            self._gram_chol = np.linalg.cholesky(self._inv_cols[idx])
            self._gram_chol_inv = np.linalg.inv(self._gram_chol)

    @classmethod
    def whole_space(cls, space: HilbertSpace) -> "ConstraintCone":
        return cls(space, "whole")

    @classmethod
    def nonpositive(cls, space: HilbertSpace, indices: Sequence[int]) -> "ConstraintCone":
        return cls(space, "nonpositive", indices)

    @classmethod
    def nonnegative(cls, space: HilbertSpace, indices: Sequence[int]) -> "ConstraintCone":
        return cls(space, "nonnegative", indices)

    @classmethod
    def zero(cls, space: HilbertSpace, indices: Sequence[int]) -> "ConstraintCone":
        return cls(space, "zero", indices)

    def in_space(self, space: HilbertSpace) -> "ConstraintCone":
        """The same cone, with projections taken in the metric of ``space``."""
        return ConstraintCone(space, self.kind, self.indices)

    def violation(self, x) -> float:
        """Largest coordinate-wise constraint violation (0 inside the cone)."""
        return float(self.violations(_vec(x, self.space.dim)[None, :])[0])

    def violations(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`violation` of each row of ``xs``."""
        xs = np.asarray(xs, dtype=float)
        vals = xs[:, self.indices]
        if self.kind == "nonnegative":
            vals = -vals
        elif self.kind == "zero":
            vals = np.abs(vals)
        return np.maximum(vals.max(axis=1, initial=0.0), 0.0)

    def contains(self, x, tol: float = 1e-12) -> bool:
        return self.violation(x) <= tol

    def distance(self, x) -> float:
        """Metric distance from ``x`` to the cone."""
        x = _vec(x, self.space.dim)
        return self.space.distance(x, self.project(x))

    def project(self, x) -> np.ndarray:
        """Metric-nearest point of the cone; idempotent and firmly nonexpansive."""
        return self.project_many(_vec(x, self.space.dim)[None, :])[0]

    def project_many(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`project` of each row of ``xs``; vectorized whenever a clamp formula applies."""
        ys = np.asarray(xs, dtype=float).copy()
        self._project_rows(ys)
        return ys

    def _project_rows(self, ys: np.ndarray) -> None:
        """Overwrite each row of the 2-D array ``ys`` with its projection."""
        if self.kind == "whole":
            return
        idx = self.indices
        if self.space.is_diagonal:
            if self.kind == "nonpositive":
                ys[:, idx] = np.minimum(ys[:, idx], 0.0)
            elif self.kind == "nonnegative":
                ys[:, idx] = np.maximum(ys[:, idx], 0.0)
            else:
                ys[:, idx] = 0.0
            return
        if self.kind == "zero":
            R = self._gram_chol_inv
            mu = (R.T @ (R @ ys[:, idx].T)).T
            ys -= mu @ self._inv_cols.T
            ys[:, idx] = 0.0
            return
        # inequalities under a coupled metric: the nonpositive cone by its dual
        # nonnegative least squares, the nonnegative one as -P(-x)
        if self.kind == "nonnegative":
            ys *= -1.0
        if idx.size == 1:
            mu = np.maximum(ys[:, idx[0]] / self._inv_cols[idx[0], 0], 0.0)
            ys -= np.outer(mu, self._inv_cols[:, 0])
        else:
            from scipy.optimize import nnls     # deferred: the one use of scipy

            for y in ys:
                y -= self._inv_cols @ nnls(self._gram_chol.T, self._gram_chol_inv @ y[idx])[0]
        ys[:, idx] = np.minimum(ys[:, idx], 0.0)
        if self.kind == "nonnegative":
            ys *= -1.0

    def __repr__(self) -> str:
        return f"ConstraintCone({self.kind}, indices={list(self.indices)})"


def sample_unit_directions(cone: ConstraintCone, count: int, seed: int) -> np.ndarray:
    """Deterministic unit-norm directions inside the cone.

    ``count`` random sphere points are projected onto the cone and
    renormalized in the metric, and the signed coordinate axes are projected
    after them, so low-dimensional corners are never missed.  Points whose
    projection is (numerically) zero are dropped.

    The rows are the ``(count, dim)`` draw of ``default_rng(seed)
    .standard_normal``, then the axes; they fill one buffer, which is
    projected and measured in blocks of about ``_BLOCK_DOUBLES`` values (at
    least 128 rows) and then divided by its norms, so the call holds the
    sample and one block; only a sample with null rows is copied once, to
    drop them.
    """
    space, dim = cone.space, cone.space.dim
    count = max(count, 0)
    pts = np.empty((count + 2 * dim, dim))
    np.random.default_rng(seed).standard_normal(out=pts[:count])
    axes = pts[count:]
    axes[:dim] = 0.0
    axes[dim:] = -0.0
    np.fill_diagonal(axes[:dim], 1.0)
    np.fill_diagonal(axes[dim:], -1.0)
    norms = np.empty(len(pts))
    # at least 128 rows a block, since each block's product packs the whole
    # dim x dim metric; near-equal blocks, so that none is a single row, which
    # numpy multiplies through gemv, whose sums round unlike a gemm's rows
    blocks = -(-len(pts) // max(128, _BLOCK_DOUBLES // dim))
    for block, out in zip(np.array_split(pts, blocks), np.array_split(norms, blocks)):
        cone._project_rows(block)
        out[:] = space.norms_many(block)
    keep = norms > 1e-12
    if not keep.all():
        pts, norms = pts[keep], norms[keep]
    pts /= norms[:, None]
    return pts


def _reading_norm(space: HilbertSpace, units, weights) -> float:
    """``sup sqrt(sum_u d_u |v on u|^2)`` over ``||v|| = 1``, disjoint units ``u``, ``d = weights``:
    ``sqrt(lambda_max(D^1/2 (M^-1)_SS D^1/2))`` on their coordinates ``S``, 0 for none."""
    coords = np.concatenate([np.zeros(0, int), *units])
    s = np.repeat(np.sqrt(weights), [len(u) for u in units])
    block = s[:, None] * space.inverse_columns(coords)[coords] * s
    return float(np.sqrt(np.linalg.eigvalsh(block).max(initial=0.0)))


_FUNC_KINDS = ("zero", "positive_part", "block_norm", "separable")


class HomogeneousFunctional:
    """Convex, positively homogeneous integrand ``j(eta, v)`` with cheap proxes.

    Kinds
    -----
    zero
        ``j = 0``; the constrained prox reduces to the cone projection.
    positive_part
        ``j(eta, v) = sum_i w_i eta_i max(v[c_i], 0)``.
    block_norm
        ``j(eta, v) = sum_b w_b eta_b ||v[B_b]||_2``.
    separable
        ``j(eta, v) = p(eta) q(v)`` for a scalar Lipschitz map ``p`` and a
        parameter-free base functional ``q``.

    Every kind is a sum over ``units``, built once: single coordinates
    (positive parts) or blocks (Euclidean norms), none for ``zero``, and the
    base's units and weights for ``separable``, whose only difference is the
    coefficient ``p(eta) w`` of a unit in place of ``eta w``.

    Each instance declares ``alpha``: the best constant with
    ``j(e1,v2)-j(e1,v1)+j(e2,v1)-j(e2,v2) <= alpha ||e1-e2||_Y ||v1-v2||_X``,
    computed exactly from the metrics (by :func:`_reading_norm`).
    """

    def __init__(self, kind, x_space, y_space, weights=None, indices=None, blocks=None,
                 p=None, p_lipschitz=None, base=None, eta_free=False):
        if kind not in _FUNC_KINDS:
            raise ValueError(f"unknown functional kind {kind!r}")
        self.kind = kind
        self.x_space = x_space
        self.y_space = y_space
        self.eta_free = bool(eta_free) or kind == "zero"
        self.weights = np.zeros(0)
        self.indices = None
        self.blocks = None
        self.p = p
        self.p_lipschitz = p_lipschitz
        self.base = base
        self.units = ()
        # units are Euclidean norms of blocks, else positive parts of coordinates
        self._norms = kind == "block_norm"
        if kind == "positive_part":
            self.indices = np.array([int(i) for i in indices], dtype=int)
            self.weights = np.array([float(w) for w in weights], dtype=float)
            if self.indices.size != self.weights.size or self.indices.size == 0:
                raise DimensionMismatchError("need one weight per index")
            if self.indices.min() < 0 or self.indices.max() >= x_space.dim:
                raise DimensionMismatchError("functional indices out of range")
            if len(set(self.indices.tolist())) != self.indices.size:
                raise ValueError("functional indices must be distinct")
            self.units = tuple(self.indices[:, None])
        elif kind == "block_norm":
            self.blocks = tuple(np.array([int(i) for i in b], dtype=int) for b in blocks)
            self.weights = np.array([float(w) for w in weights], dtype=float)
            if any(b.size == 0 for b in self.blocks):
                raise ValueError("blocks must not be empty")
            if len(self.blocks) != self.weights.size or not self.blocks:
                raise DimensionMismatchError("need one weight per block")
            flat = np.concatenate(self.blocks)
            if flat.min() < 0 or flat.max() >= x_space.dim:
                raise DimensionMismatchError("block indices out of range")
            if len(set(flat.tolist())) != flat.size:
                raise ValueError("blocks must be disjoint")
            self.units = self.blocks
        elif kind == "separable":
            if base is None or p is None or p_lipschitz is None:
                raise ValueError("separable kind needs p, p_lipschitz and base")
            if not base.eta_free:
                raise UnsupportedConfigurationError("separable base must ignore its parameter")
            self.eta_free = False
            self.units, self.weights, self._norms = base.units, base.weights, base._norms
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        # the first coordinate of each unit: a positive part's coordinate
        self._coords = np.array([u[0] for u in self.units], dtype=int)
        if not self.eta_free and kind != "separable":
            if y_space.dim != len(self.units):
                raise DimensionMismatchError("parameter space dimension must match the number of weights")
            if not y_space.is_diagonal:
                raise UnsupportedConfigurationError("parameter-space metric must be diagonal for this kind")
        self.alpha = self._compute_alpha()

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, x_space: HilbertSpace, y_space: HilbertSpace | None = None) -> "HomogeneousFunctional":
        return cls("zero", x_space, y_space or HilbertSpace(1))

    @classmethod
    def positive_part(cls, x_space, y_space, weights, indices, eta_free=False) -> "HomogeneousFunctional":
        return cls("positive_part", x_space, y_space, weights=weights, indices=indices, eta_free=eta_free)

    @classmethod
    def block_norm(cls, x_space, y_space, weights, blocks, eta_free=False) -> "HomogeneousFunctional":
        return cls("block_norm", x_space, y_space, weights=weights, blocks=blocks, eta_free=eta_free)

    @classmethod
    def separable(cls, y_space, p, p_lipschitz, base) -> "HomogeneousFunctional":
        return cls("separable", base.x_space, y_space, p=p, p_lipschitz=p_lipschitz, base=base)

    # -- structure ----------------------------------------------------------

    def _compute_alpha(self) -> float:
        if self.eta_free:
            return 0.0
        if self.kind == "separable":
            return float(self.p_lipschitz) * self.v_lipschitz()
        # the metric's diagonal, as its products with the coordinate axes
        my = np.diag(self.y_space.apply_metric(np.eye(self.y_space.dim)))
        return _reading_norm(self.x_space, self.units, self.weights**2 / my)

    def v_lipschitz(self) -> float:
        """Lipschitz constant of ``v -> j(eta, v)`` at unit parameter values (``p(eta) = 1``)."""
        return _reading_norm(self.x_space, self.units, self.weights**2)

    def _param_rows(self, etas) -> np.ndarray:
        etas = np.asarray(etas, dtype=float)
        if etas.ndim != 2 or etas.shape[1] != self.y_space.dim:
            raise DimensionMismatchError(
                f"expected parameter rows of length {self.y_space.dim}, got shape {etas.shape}")
        return etas

    def _effective_etas(self, etas) -> tuple[np.ndarray, int]:
        """Parameter rows as the unit weights see them (ones when ``j`` ignores them).

        Returns them with the count of their negative entries, which raise
        :class:`AssumptionWarning`.
        """
        if self.eta_free:
            return np.ones((1 if etas is None else len(etas), len(self.units))), 0
        etas = self._param_rows(etas)
        negative = np.count_nonzero(etas < 0)
        if negative:
            warnings.warn("negative parameter entries break convexity of j", AssumptionWarning, stacklevel=4)
        return etas, negative

    def _scales(self, etas) -> np.ndarray:
        """``p(eta)`` for each parameter row of a separable functional."""
        return np.array([float(self.p(eta)) for eta in self._param_rows(etas)])

    # -- evaluation ---------------------------------------------------------
    #
    # j(eta, v) = unit_values(v) @ unit_weights(eta): one value per unit (the
    # positive part of an indexed coordinate, or the Euclidean norm of a
    # block) times one coefficient per unit (weight times parameter).

    def unit_values(self, vs: np.ndarray) -> np.ndarray:
        """``Phi(v)`` for each row ``v`` of ``vs``: shape ``(rows, units)``."""
        vs = np.asarray(vs, dtype=float)
        if self._norms:
            return np.column_stack([np.linalg.norm(vs[:, unit], axis=1) for unit in self.units])
        return np.maximum(vs[:, self._coords], 0.0)

    def unit_weights(self, etas) -> np.ndarray:
        """``c(eta)`` for each parameter row of ``etas``: shape ``(rows, units)``.

        The unit weights times the parameter, times 1 when ``j`` ignores its
        parameter and times ``p(eta)`` for the separable kind.  ``None`` is
        one row for a functional that ignores its parameter.  Negative
        parameter entries raise :class:`AssumptionWarning`.
        """
        if self.kind == "separable":
            return self._scales(etas)[:, None] * self.weights
        return self._effective_etas(etas)[0] * self.weights

    def eval(self, eta, v) -> float:
        return float(self.eval_many(eta, _vec(v, self.x_space.dim)[None, :])[0])

    def eval_many(self, eta, vs: np.ndarray) -> np.ndarray:
        eta = None if self.eta_free else _vec(eta, self.y_space.dim)[None, :]
        return self.unit_values(vs) @ self.unit_weights(eta)[0]

    # -- proximal map -------------------------------------------------------

    def prox_layout(self, cone: ConstraintCone) -> tuple[list, list, list]:
        """How the closed-form prox, in the metric of ``cone.space``, treats each unit of ``j``.

        Returns ``(free, mixed, zeroed)``: units away from the cone's
        constraints as ``(unit, coords, d)``, single coordinates carrying both
        a constraint and a term as ``(unit, index, d)``, and blocks the zero
        cone annihilates as ``coords``; ``d`` is the unit's diagonal entry of
        the inverse metric.  The closed form is exact when the
        coordinates the functional touches are mutually uncoupled in the
        inverse metric and uncoupled from the constrained coordinates (always
        true for diagonal metrics and for the block metrics produced by the
        contact assembly); otherwise an :class:`UnsupportedConfigurationError`
        is raised.  The layout depends only on the metric, the cone and the
        functional's structure, never on ``eta`` or ``rho``.
        """
        space = cone.space
        constrained = set(cone.indices.tolist())
        free_units, mixed_units, zeroed_units = [], [], []
        for unit, coords in enumerate(self.units):
            inter = [c for c in coords if c in constrained]
            if not inter:
                free_units.append((unit, coords))
            elif len(coords) == 1:
                mixed_units.append((unit, int(coords[0])))
            elif cone.kind == "zero" and len(inter) == len(coords):
                zeroed_units.append(coords)
            else:
                raise UnsupportedConfigurationError(
                    "functional block partially overlaps the cone constraints"
                )

        mixed = [i for _, i in mixed_units]
        # the metric's rows at the mixed coordinates, as its products with those axes
        axes = np.zeros((len(mixed), space.dim))
        axes[np.arange(len(mixed)), mixed] = 1.0
        for row, i in zip(np.abs(space.apply_metric(axes)), mixed):
            diag_i, row[i] = row[i], 0.0
            if row.max(initial=0.0) > _COUPLING_RTOL * diag_i:
                raise UnsupportedConfigurationError(
                    f"coordinate {i} carries both a constraint and a functional term "
                    "but is coupled through the metric"
                )
        # the free coordinates against each other and the constraints outside
        # them, then the mixed ones, in one read of inverse-metric columns
        rows = np.array([c for _, coords in free_units for c in coords], dtype=int)
        cols = np.concatenate([rows, sorted(constrained - set(mixed))]).astype(int)
        touched = np.concatenate([cols, mixed]).astype(int)
        G = space.inverse_columns(touched)
        diag = G[touched, np.arange(touched.size)]
        free, at = [], 0
        for unit, coords in free_units:
            block, at = diag[at:at + len(coords)], at + len(coords)
            if np.any(np.abs(block - block[0]) > _COUPLING_RTOL * abs(block[0])):
                raise UnsupportedConfigurationError("inverse metric not scalar on a norm block")
            free.append((unit, coords, block[0]))
        scale = np.sqrt(np.outer(np.abs(diag[:rows.size]), np.abs(diag[:cols.size])))
        coupled = np.abs(G[rows, :cols.size]) > _COUPLING_RTOL * scale
        coupled[:, :rows.size] &= ~np.eye(rows.size, dtype=bool)
        if coupled.any():
            r, c = np.argwhere(coupled)[0]
            raise UnsupportedConfigurationError(
                f"inverse-metric coupling between coordinates {rows[r]} and {cols[c]} "
                "prevents a closed-form prox"
            )
        mixed_units = [(unit, i, d) for (unit, i), d in zip(mixed_units, diag[cols.size:])]
        return free, mixed_units, zeroed_units

    def prox_thresholds(self, etas, rho: float) -> np.ndarray:
        """The prox thresholds ``rho c(eta)`` for each parameter row: shape ``(rows, units)``.

        ``rho`` times the unit weights times the parameter (times 1 when ``j``
        ignores it, and ``(rho p(eta))`` times the weights for the separable
        kind); ``None`` is one row for a functional that ignores its
        parameter.  Callers that apply one prox many times compute these once.
        """
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.kind == "separable":
            scales = self._scales(etas)
            if np.count_nonzero(scales < 0):
                raise UnsupportedConfigurationError("separable scale p(eta) is negative; prox undefined")
            return (rho * scales)[:, None] * self.weights
        etas, negative = self._effective_etas(etas)
        taus = rho * self.weights * etas
        # rho and the weights are nonnegative, so a threshold can be negative
        # only where a parameter entry is
        if negative and np.count_nonzero(taus < 0):
            raise UnsupportedConfigurationError("negative effective weight; prox undefined")
        return taus

    def admits(self, etas) -> bool:
        """Whether the prox is defined, without a warning, at every parameter row of ``etas``.

        The test of :meth:`prox_thresholds`: a scale ``p(eta) >= 0`` for
        the separable kind and no negative entry for the kinds that weight
        by the parameter itself; always true when ``j`` ignores its
        parameter.  A non-finite value fails.
        """
        if self.eta_free:
            return True
        values = self._scales(etas) if self.kind == "separable" else self._param_rows(etas)
        return np.count_nonzero(values >= 0.0) == values.size

    def prox(self, eta, cone: ConstraintCone, rho: float, w, layout=None) -> np.ndarray:
        """argmin over ``v`` in the cone of ``0.5 ||v - w||^2 + rho j(eta, v)``.

        The norm is the cone's, ``cone.space``.  The one-row case of :meth:`prox_many`.  Exact under the structural
        conditions of :meth:`prox_layout`, which raises
        :class:`UnsupportedConfigurationError` where they fail.  ``layout`` is
        ``prox_layout(cone)`` for callers that apply the same prox many times;
        it is computed when not given.  A non-finite ``w`` raises
        :class:`ValueError`.
        """
        w = _vec(w, self.x_space.dim)
        if not np.isfinite(w).all():
            raise ValueError("w must be finite")
        etas = None if self.eta_free else _vec(eta, self.y_space.dim)[None, :]
        return self.prox_many(self.prox_thresholds(etas, rho), cone, w[None, :], layout)[0]

    def prox_many(self, taus: np.ndarray, cone: ConstraintCone, ws: np.ndarray,
                  layout=None) -> np.ndarray:
        """:meth:`prox` of each row of ``ws`` with the thresholds ``taus`` of its row.

        ``taus`` comes from :meth:`prox_thresholds` (one row for all rows of
        ``ws``, or one per row).  Each row gets the arithmetic of the one-row
        prox: the cone projection, a subgradient step through the inverse
        metric of ``cone.space`` on the units away from the constraints, then
        the one-dimensional formulas where a constraint and a term share a
        coordinate.  The rows of ``ws`` must be finite, and nothing here
        tests them: :meth:`prox` and the EVI step test them before the call.
        """
        ws = np.asarray(ws, dtype=float)
        if cone.space.dim != self.x_space.dim:
            raise DimensionMismatchError("cone lives in a different space")
        free_units, mixed_units, zeroed_units = layout or self.prox_layout(cone)

        vs = cone.project_many(ws)
        # subgradient step through the inverse metric for unconstrained units
        s = np.zeros(ws.shape)
        for unit, coords, d in free_units:
            tau = taus[:, unit]
            if self._norms:
                # norm blocks shrink symmetrically, including singletons
                wb = ws[:, coords]
                # np.linalg.norm(wb, axis=1), bit for bit, without its wrapper
                nb = np.sqrt(np.add.reduce(wb * wb, 1))
                big = nb > d * tau
                s[:, coords] = np.where(big[:, None],
                                        tau[:, None] * wb / np.where(big, nb, 1.0)[:, None],
                                        wb / d)
            else:
                # tau past the kink, else w / d clamped at 0 from below
                wi = ws[:, coords[0]]
                s[:, coords[0]] = np.where(wi > d * tau, tau, np.maximum(wi, 0.0) / d)
        if np.count_nonzero(s):
            # a row without a step subtracts an exact zero; s is finite where
            # ws is, and the EVI step tests its iterates for finiteness
            vs -= cone.space._riesz(s)
        # combined one-dimensional formulas where constraint and term share a coordinate
        for unit, i, d in mixed_units:
            tau = taus[:, unit]
            if cone.kind == "zero":
                vs[:, i] = 0.0
            elif cone.kind == "nonnegative":
                vs[:, i] = np.maximum(ws[:, i] - d * tau, 0.0)
            elif self._norms:
                # |v| is active on the feasible side, so it pushes upward
                vs[:, i] = np.minimum(ws[:, i] + d * tau, 0.0)
            else:  # nonpositive: the positive part vanishes on the feasible side
                vs[:, i] = np.minimum(ws[:, i], 0.0)
        for coords in zeroed_units:
            vs[:, coords] = 0.0
        return vs

    def __repr__(self) -> str:
        return f"HomogeneousFunctional({self.kind}, alpha={self.alpha:.6g})"


class MovingSet:
    """Time-sliced constraint set ``C(eta, t) = shift - C(eta)``.

    ``C(eta)`` is the subgradient set at zero of the functional extended by
    the cone's indicator, so membership of a normal vector is tested through
    the support inequalities of the functional rather than by constructing
    the set itself.
    """

    def __init__(self, functional: HomogeneousFunctional, cone: ConstraintCone, eta, shift):
        self.functional = functional
        self.cone = cone
        self.eta = None if functional.eta_free else _vec(eta, functional.y_space.dim)
        self.shift = _vec(shift, cone.space.dim)

    def membership_residual(self, z, xi, sampler_budget: int = 2048, seed: int = 0,
                            extra_dirs: np.ndarray | None = None) -> float:
        """Violation of ``xi in N_{C(eta,t)}(z)``; accept iff <= tolerance.

        The one-node case of :func:`membership_residuals`, on
        ``sampler_budget`` cone directions drawn from ``seed`` plus
        ``extra_dirs``.
        """
        space = self.cone.space
        dirs = sample_unit_directions(self.cone, sampler_budget, seed)
        if extra_dirs is not None and len(extra_dirs):
            dirs = np.vstack([dirs, np.asarray(extra_dirs, dtype=float)])
        eta = None if self.eta is None else self.eta[None, :]
        w = self.shift - _vec(z, space.dim)
        u = -_vec(xi, space.dim)
        return float(membership_residuals(self.functional, self.cone, eta, w[None, :],
                                          u[None, :], dirs)[0])


def _lowest_pairings(space: HilbertSpace, functional: HomogeneousFunctional, dirs: np.ndarray,
                     xs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``min over rows d of dirs of (d, x_k) + j_k(d)`` for every row ``x_k`` of ``xs``.

    ``j_k(d) = unit_values(d) @ weights[k]``.  This is one lifted product,
    ``[X M | C] @ [D | Phi(D)]^T``, one row per node, reduced along its rows.
    The node side ``[X M | C]`` and ``Phi(D)`` are built once; the
    directions are lifted a block of about ``_BLOCK_DOUBLES`` values at a
    time, and each block's product is taken over chunks of nodes of about
    ``_BLOCK_DOUBLES`` values, so the call holds those two and two blocks,
    never a lifted copy of the whole sample.  ``+inf`` where ``dirs`` is
    empty.
    """
    out = np.full(len(xs), np.inf)
    if len(dirs) == 0:
        return out
    dim = space.dim
    lhs = np.empty((len(xs), dim + weights.shape[1]))
    lhs[:, :dim] = space.apply_metric(xs)
    lhs[:, dim:] = weights
    phi = functional.unit_values(dirs)
    rows = max(1, _BLOCK_DOUBLES // lhs.shape[1])
    lifted = np.empty((min(rows, len(dirs)), lhs.shape[1]))
    chunk = max(1, _BLOCK_DOUBLES // len(lifted))
    for lo in range(0, len(dirs), rows):
        block = dirs[lo:lo + rows]
        lift = lifted[:len(block)]
        lift[:, :dim] = block
        lift[:, dim:] = phi[lo:lo + rows]
        for k in range(0, len(xs), chunk):
            low = out[k:k + chunk]
            np.minimum(low, (lhs[k:k + chunk] @ lift.T).min(axis=1), out=low)
    return out


def _direction_support(functional: HomogeneousFunctional, cone: ConstraintCone, dirs,
                       distances, xs: np.ndarray, etas, weights: np.ndarray) -> np.ndarray:
    """``sup over v of -(x_k, v) - j_k(v)``: exact over the unit sphere of the cone by
    ``distances`` (from :func:`~sweepvi.certificate.direction_terms` when not given) without
    ``dirs``, else over the rows of ``dirs``."""
    if dirs is not None:
        return -_lowest_pairings(cone.space, functional, dirs, xs, weights)
    if distances is None:
        # deferred, as in the node checks: a process that checks no node
        # need not load the certificate
        from .certificate import DirectionBlock, direction_terms

        distances = direction_terms(DirectionBlock(cone, functional), xs, etas)
    return np.asarray(distances, dtype=float)


def membership_residuals(functional: HomogeneousFunctional, cone: ConstraintCone, etas,
                         ws: np.ndarray, us: np.ndarray, dirs: np.ndarray | None = None,
                         distances: np.ndarray | None = None) -> np.ndarray:
    """Violation of ``-u_k in N_{C(eta_k, t_k)}(z_k)`` at every node ``k``.

    ``ws[k] = shift_k - z_k`` and ``etas[k]`` is the node's parameter
    (``None`` for a functional that ignores it).  The test works through the
    equivalent variational statement for ``u_k``: its distance to the cone,
    the support inequalities ``(w_k, v) <= j(eta_k, v)`` over the unit
    directions ``v`` of the cone and ``u_k / ||u_k||``, and the
    complementarity ``j(eta_k, u_k) - (w_k, u_k)``; the residual is the
    largest violation, 0 when all hold.  The support term is the exact
    direction term at ``-w_k`` (:func:`~sweepvi.certificate.direction_terms`; ``distances`` when
    the caller has it), or, with ``dirs``, its largest value over those
    directions (shared by all nodes), a lower bound.
    """
    space = cone.space
    ws = np.asarray(ws, dtype=float)
    us = np.asarray(us, dtype=float)
    weights = functional.unit_weights(etas)
    weights = np.broadcast_to(weights, (len(us), weights.shape[1]))
    support = _direction_support(functional, cone, dirs, distances, -ws, etas, weights)
    ju = (functional.unit_values(us) * weights).sum(1)
    mus = space.apply_metric(us)
    compl = ju - (mus * ws).sum(1)
    # the direction u_k / ||u_k||, by homogeneity of j, where u_k is not zero
    un = _norms_from(mus, us)
    along_u = np.divide(-compl, un, out=np.zeros_like(un), where=un > 1e-12)
    # the whole space projects each row onto itself
    cone_gap = (np.zeros(len(us)) if cone.kind == "whole"
                else space.norms_many(us - cone.project_many(us)))
    return np.maximum.reduce([np.maximum(support, 0.0), along_u, compl, cone_gap])
