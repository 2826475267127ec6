"""Exact node certificates: the direction term of the solution checks as a distance.

Both post-solve checks of a node (the variational residual and the
normal-cone membership) pair the unit directions ``v`` of the cone ``K`` with
one vector through the direction term ``sup over unit v in K of -(g, v) -
j(v)``.  Where that term is positive it equals a distance, which
:func:`direction_terms` computes exactly on the few coordinates the cone and
the functional constrain; :class:`DirectionBlock` is what it reads of them,
built once.  The module is loaded at the first node check, not with the
package, since a process that checks no node does not need it.
"""

from __future__ import annotations

import numpy as np

from .core import ConstraintCone, HomogeneousFunctional, UnsupportedConfigurationError

__all__ = ["DirectionBlock", "direction_terms"]

_MAX_FACES = 4096           # faces of one coupled group the exact direction term enumerates
_SECULAR_STEPS = 64         # Newton steps of a ball's secular equation, at most


def _sphere_points(e: np.ndarray, eig: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """``e / (eig + lam)`` for each row, with the least ``lam >= 0`` that puts it in the ball.

    ``eig > 0``; where ``||e / eig|| <= radius`` that is ``lam = 0``, else the
    root of ``1 / radius - 1 / ||e / (eig + lam)||``, found by Newton's
    method from 0 (Moré & Sorensen, 1983): the function is concave and
    increasing, so the steps rise to the root without passing it.  A zero
    radius keeps ``lam = 0``; the caller scales such a point to the origin.
    """
    lam = np.zeros((len(e), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SECULAR_STEPS):
            w = e / (eig + lam)
            norm = np.sqrt((w * w).sum(1))
            outside = (norm > radius) & (radius > 0.0)
            step = (norm / radius - 1.0) * norm * norm / (w * w / (eig + lam)).sum(1)
            new = np.where(outside, lam[:, 0] + step, lam[:, 0])[:, None]
            if np.array_equal(new, lam):
                break
            lam = new
    return e / (eig + lam)


class _FaceGroup:
    """Coordinates of a :class:`DirectionBlock` coupled through its Gram matrix.

    ``pos`` are the group's positions in the block and ``gram`` its part of
    the Gram matrix; ``ball`` lists the positions of its norm block, if it
    has one, and the other positions carry intervals.  A face holds each
    interval coordinate free or at a finite bound and the ball inside or on
    its sphere; the group has at most ``_MAX_FACES`` of them, each factored
    here, once.
    """

    def __init__(self, pos: np.ndarray, gram: np.ndarray, lo_free: np.ndarray,
                 hi_free: np.ndarray, ball: list[int]):
        m = len(pos)
        self.pos, self.gram, self.inv = pos, gram, np.linalg.inv(gram)
        self.ball = np.array(ball, dtype=int)
        self.intervals = np.array([i for i in range(m) if i not in ball], dtype=int)
        # each interval coordinate: free (0), at its lower (-1) or its upper (1) bound
        options = [[0] + [-1] * (not lo_free[i]) + [1] * (not hi_free[i])
                   for i in self.intervals]
        spheres = [False, True] if ball else [False]
        count = len(spheres) * int(np.prod([len(o) for o in options]))
        if count > _MAX_FACES:
            raise UnsupportedConfigurationError(
                f"{m} coupled contact coordinates have {count} faces, more than "
                f"{_MAX_FACES}: no exact direction term")
        self.faces = []
        for sphere in spheres:
            for picks in np.ndindex(*map(len, options)):
                held = [(i, o[p]) for i, o, p in zip(self.intervals, options, picks) if o[p]]
                fixed = np.array([i for i, _ in held], dtype=int)
                upper = np.array([c > 0 for _, c in held], dtype=bool)
                free = np.array([i for i in range(m) if i not in fixed], dtype=int)
                if not sphere:
                    # the free coordinates fitted to the held ones
                    fit = gram[np.ix_(fixed, free)] @ np.linalg.inv(gram[np.ix_(free, free)])
                    self.faces.append((fixed, upper, free, fit, None))
                    continue
                rest = np.array([i for i in free if i not in ball], dtype=int)
                rest_inv = np.linalg.inv(gram[np.ix_(rest, rest)])
                fit = gram[np.ix_(fixed, rest)] @ rest_inv
                fit_ball = gram[np.ix_(self.ball, rest)] @ rest_inv
                # the ball's Schur complement, its coupling to the held
                # coordinates, and its eigenvectors
                schur = gram[np.ix_(self.ball, self.ball)] - fit_ball @ gram[np.ix_(rest, self.ball)]
                cross = gram[np.ix_(fixed, self.ball)] - fit @ gram[np.ix_(rest, self.ball)]
                eig, vecs = np.linalg.eigh(schur)
                self.faces.append((fixed, upper, rest, fit, (fit_ball, schur, cross, eig, vecs)))

    def solve(self, b: np.ndarray, lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The group's part of the minimiser, for rows ``b`` of ``g`` and their bounds.

        It minimises ``(y - y_u)^T G (y - y_u)``, with ``y_u = -G^-1 b`` the
        unconstrained minimiser, over the set: each face's point is the
        minimiser over that face's affine set or sphere, taken to the
        nearest point of the set, so every candidate is feasible; the
        least of them is the minimiser, up to rounding.
        """
        yu = -b @ self.inv
        best, best_q = yu, np.full(len(b), np.inf)
        ball, iv = self.ball, self.intervals
        for fixed, upper, free, fit, sphere in self.faces:
            y = yu.copy()
            held = np.where(upper, hi[:, fixed], lo[:, fixed])
            dx = held - yu[:, fixed]
            y[:, fixed] = held
            if sphere is None:
                y[:, free] -= dx @ fit
            else:
                fit_ball, schur, cross, eig, vecs = sphere
                d = yu[:, ball] @ schur - dx @ cross
                y[:, ball] = _sphere_points(d @ vecs, eig, c[:, ball[0]]) @ vecs.T
                y[:, free] -= dx @ fit + (y[:, ball] - yu[:, ball]) @ fit_ball
            # the nearest point of the set, so that every candidate is feasible
            y[:, iv] = np.minimum(np.maximum(y[:, iv], lo[:, iv]), hi[:, iv])
            if ball.size:
                norm = np.sqrt((y[:, ball] ** 2).sum(1))
                radius = c[:, ball[0]]
                y[:, ball] *= np.divide(radius, norm, out=np.ones_like(norm),
                                        where=norm > radius)[:, None]
            delta = y - yu
            q = ((delta @ self.gram) * delta).sum(1)
            better = q < best_q
            best = np.where(better[:, None], y, best)
            best_q = np.where(better, q, best_q)
        return best


class DirectionBlock:
    """What the exact direction term reads of a cone and a functional, built once.

    The direction term at a gradient ``g`` is ``sup over unit v in K of
    -(g, v) - j(v)``.  Where it is positive it equals
    ``dist_{M^-1}(-M g, D)``, ``D = dj(0) + K°`` (R. T. Rockafellar, *Convex
    Analysis*, 1970, §13 and §16; H. H. Bauschke & P. L. Combettes, 2011,
    Thm 6.30).  ``D`` lives on ``coords``, the coordinates ``S`` of j's units
    and the cone's indices: ``D = E_S Y`` with ``Y`` the product of

    - an interval at each coordinate: ``[0, c]`` for a positive part,
      ``[-c, c]`` for a one-coordinate norm block, ``[0, inf)``, ``(-inf, 0]``
      or the line for a nonpositive, nonnegative or zero cone index, and
      their Minkowski sum where a unit and an index share the coordinate;
    - a Euclidean ball of radius ``c`` on each norm block of more
      coordinates, less those a zero-cone index frees (a block that meets a
      sign constraint raises :class:`UnsupportedConfigurationError`).

    ``c`` is the unit's coefficient at the node.  The squared distance is
    ``||g + M^-1 E_S y||^2`` at the best ``y`` in ``Y``, a least-squares
    problem on ``S`` whose Gram matrix is ``(M^-1)_SS``, the block
    :func:`~sweepvi.core._reading_norm` reads.  The block keeps ``columns = M^-1 E_S``, the
    interval scales, and the coordinates coupled through the Gram matrix, as
    :class:`_FaceGroup` s; an uncoupled interval coordinate is a clip.
    """

    def __init__(self, cone: ConstraintCone, functional: HomogeneousFunctional):
        self.space, self.functional = cone.space, functional
        units, norms = functional.units, functional._norms
        indices = cone.indices.tolist()
        freed = set(indices) if cone.kind == "zero" else set()
        coords = sorted(set(indices).union(*(u.tolist() for u in units)))
        at = {c: i for i, c in enumerate(coords)}
        k = len(coords)
        # coordinate i carries the coefficient of unit unit_of[i] (the last,
        # zero column for none) times lo[i] and hi[i], or its free bounds
        self.unit_of = np.full(k, len(units))
        lo, hi = np.zeros(k), np.zeros(k)
        balls = []
        for u, unit in enumerate(units):
            if len(unit) > 1 and cone.kind in ("nonpositive", "nonnegative") \
                    and set(unit.tolist()) & set(indices):
                raise UnsupportedConfigurationError(
                    "a functional block meets a sign constraint: no exact direction term")
            rest = [at[c] for c in unit.tolist() if c not in freed]
            self.unit_of[rest] = u
            if len(rest) > 1:
                balls.append(rest)
            elif rest:
                lo[rest], hi[rest] = (-1.0 if norms else 0.0), 1.0
        # the cone's polar adds a half-line, or the line, at each index
        idx = [at[c] for c in indices]
        self.lo_free = np.zeros(k, dtype=bool)
        self.hi_free = np.zeros(k, dtype=bool)
        self.hi_free[idx] = cone.kind in ("nonpositive", "zero")
        self.lo_free[idx] = cone.kind in ("nonnegative", "zero")
        self.lo, self.hi = lo, hi
        self.coords = np.array(coords, dtype=int)
        self.columns = cone.space.inverse_columns(self.coords)
        gram = self.columns[self.coords]
        # coupled coordinates, and a ball's, form one group
        root = list(range(k))

        def find(i):
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        pairs = [(b[0], i) for b in balls for i in b[1:]]
        for i, j in pairs + list(zip(*np.nonzero(np.triu(gram, 1)))):
            root[find(int(i))] = find(int(j))
        groups: dict[int, list[int]] = {}
        for i in range(k):
            groups.setdefault(find(i), []).append(i)
        self.solo = np.array([g[0] for g in groups.values() if len(g) == 1], dtype=int)
        self.solo_diag = gram[self.solo, self.solo]
        self.groups = []
        for g in (g for g in groups.values() if len(g) > 1):
            in_group = [b for b in balls if b[0] in g]
            if len(in_group) > 1:
                raise UnsupportedConfigurationError(
                    "functional blocks coupled through the inverse metric: "
                    "no exact direction term")
            pos = np.array(g, dtype=int)
            local = [g.index(i) for i in in_group[0]] if in_group else []
            self.groups.append(_FaceGroup(pos, gram[np.ix_(pos, pos)], self.lo_free[pos],
                                          self.hi_free[pos], local))


def direction_terms(block: DirectionBlock, gs: np.ndarray, etas) -> np.ndarray:
    """The exact direction term ``dist_{M^-1}(-M g_k, dj(eta_k, 0) + K°)`` at every node.

    ``gs[k]`` is the node's gradient and ``etas[k]`` its parameter (``None``
    for a functional that ignores it); see :class:`DirectionBlock`.  Where
    ``sup over unit v in K of -(g_k, v) - j(eta_k, v)`` is positive this is
    its value, and it is 0 where that sup is not.  The value is the M-norm
    of the residual ``r = g_k + M^-1 E_S y*`` itself, not the form
    ``g^T M g - ...``, which cancels.  ``y*`` is feasible, so the value can
    only over-state the distance, and it is the exact minimiser, up to
    rounding, so the value is tight.
    """
    return block.space.norms_many(_direction_residuals(block, np.asarray(gs, dtype=float), etas))


def _direction_residuals(block: DirectionBlock, gs: np.ndarray, etas) -> np.ndarray:
    """The residual ``g_k + M^-1 E_S y*`` of each node, whose norm :func:`direction_terms` is."""
    if not block.coords.size:
        return gs
    weights = block.functional.unit_weights(etas)
    c = np.zeros((len(gs), weights.shape[1] + 1))
    c[:, :-1] = weights
    c = c[:, block.unit_of]
    lo = np.where(block.lo_free, -np.inf, block.lo * c)
    hi = np.where(block.hi_free, np.inf, block.hi * c)
    b = gs[:, block.coords]
    y = np.empty_like(b)
    s = block.solo
    y[:, s] = np.minimum(np.maximum(-b[:, s] / block.solo_diag, lo[:, s]), hi[:, s])
    for group in block.groups:
        p = group.pos
        y[:, p] = group.solve(b[:, p], lo[:, p], hi[:, p], c[:, p])
    return gs + y @ block.columns.T
