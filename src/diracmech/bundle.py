"""Coordinate model of the discrete Pontryagin bundle T*Q x Q.

Q is a plain R^n in one global chart. A point is x = (q, p, q+); tangent and
cotangent vectors split into matching (dq, dp, dq+) blocks. The two-form is
the negated pullback of the canonical form of T*Q, in blocks
-(u.dq . w.dp - u.dp . w.dq), so dq+ blocks never enter it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateConstraintError, DimensionMismatchError, EvaluationError
from .linalg import _blocks, orthonormal_columns


@dataclass(frozen=True)
class PontryaginPoint:
    """A point (q, p, q+): a covector (q, p) of T*Q plus a second configuration."""

    q: np.ndarray
    p: np.ndarray
    qplus: np.ndarray

    def __post_init__(self):
        if not all(np.isfinite(b).all() for b in _blocks(self, ("q", "p", "qplus"))):
            raise ValueError("point entries must all be finite")

    @classmethod
    def _trusted(cls, q: np.ndarray, p: np.ndarray, qplus: np.ndarray) -> "PontryaginPoint":
        # Internal fast path for freshly solved blocks and curve rows: the
        # caller guarantees float64 1-d arrays of one dimension, finite
        # entries, and that the arrays are never mutated afterwards.
        self = object.__new__(cls)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "qplus", qplus)
        return self

    @property
    def dim(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class TangentPd:
    """A tangent vector (dq, dp, dq+) at a point of the bundle."""

    dq: np.ndarray
    dp: np.ndarray
    dqplus: np.ndarray

    def __post_init__(self):
        _blocks(self, ("dq", "dp", "dqplus"))

    @property
    def dim(self) -> int:
        return self.dq.shape[0]


@dataclass(frozen=True)
class CotangentPd:
    """A covector with blocks (bq, bp, bq+) dual to the tangent blocks."""

    bq: np.ndarray
    bp: np.ndarray
    bqplus: np.ndarray

    def __post_init__(self):
        _blocks(self, ("bq", "bp", "bqplus"))

    @property
    def dim(self) -> int:
        return self.bq.shape[0]

    def __call__(self, w: TangentPd) -> float:
        if w.dim != self.dim:
            raise DimensionMismatchError("covector dim %d, tangent dim %d" % (self.dim, w.dim))
        return float(self.bq @ w.dq + self.bp @ w.dp + self.bqplus @ w.dqplus)


class DiscreteCurve:
    """A finite sequence of bundle points with one common dimension, stored as columns.

    Point k is (q[k], p[k], qplus[k]), rows of three (len, n) float64
    arrays. A stepped curve keeps its configurations in one (len + 1, n)
    array, so its q+ column is the q column shifted by one row. Points are
    built on demand over row views made once, on first access: in a stepped
    curve x_k.qplus is x_{k+1}.q, one array.
    """

    def __init__(self, points: Sequence[PontryaginPoint]):
        points = tuple(points)
        if not points:
            raise DimensionMismatchError("a discrete curve needs at least one point")
        n = points[0].dim
        for k, pt in enumerate(points):
            if pt.dim != n:
                raise DimensionMismatchError(
                    "point %d has dimension %d, expected %d" % (k, pt.dim, n)
                )
        self._init(np.array([pt.q for pt in points]), np.array([pt.p for pt in points]),
                   np.array([pt.qplus for pt in points]), None)

    @classmethod
    def _stepped(cls, configurations: np.ndarray, momenta: np.ndarray) -> "DiscreteCurve":
        # internal: point k is (configurations[k], momenta[k], configurations[k + 1]);
        # the caller hands over float64 arrays of len(momenta) + 1 and len(momenta) rows
        self = object.__new__(cls)
        self._init(configurations[:-1], momenta, configurations[1:], configurations)
        return self

    def _init(self, q, p, qplus, chain):
        self.q, self.p, self.qplus = q, p, qplus
        self.dim = q.shape[1]
        self._chain = chain
        self._rows = None

    def _row_views(self):
        rows = self._rows
        if rows is None:
            if self._chain is None:
                qs, plus = list(self.q), list(self.qplus)
            else:
                chain = list(self._chain)
                qs, plus = chain[:-1], chain[1:]
            rows = self._rows = (qs, list(self.p), plus)
        return rows

    @property
    def points(self) -> Tuple[PontryaginPoint, ...]:
        return self[:]

    def __len__(self) -> int:
        return self.p.shape[0]

    def __getitem__(self, k):
        qs, ps, plus = self._row_views()
        if isinstance(k, slice):
            return tuple(map(PontryaginPoint._trusted, qs[k], ps[k], plus[k]))
        return PontryaginPoint._trusted(qs[k], ps[k], plus[k])

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class KinematicDistribution:
    """A velocity-constraint distribution given by its annihilator rows.

    ``annihilator(q)`` must be a pure function of q returning an m x n matrix
    of full row rank whose rows span the annihilator of the allowed
    velocities at q. m = 0 means no constraint.

    A(q) is evaluated and validated once per base point: the last validated
    q (by value), its A(q) and the orthonormal basis of its rows are kept in
    a one-slot memo that ``matrix``, ``project_ker`` and the inclusion
    certificate share. Both arrays are private read-only copies.
    """

    n: int
    m: int
    annihilator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or self.m > self.n:
            raise DimensionMismatchError("need 0 <= m <= n with n >= 1, got m=%d n=%d"
                                         % (self.m, self.n))
        if self.m > 0 and self.annihilator is None:
            raise ValueError("an annihilator function is required when m > 0")
        object.__setattr__(self, "_empty", np.zeros((0, self.n)))
        # (q bytes, A(q), row basis); replaced as one tuple, so a concurrent
        # reader sees either the old entry or the new one, never a mix
        object.__setattr__(self, "_memo", None)

    @classmethod
    def unconstrained(cls, n: int) -> "KinematicDistribution":
        return cls(n, 0, None)

    def _validated(self, q) -> tuple:
        """The memo entry for q, evaluating and validating A(q) on a miss."""
        q = np.asarray(q, dtype=float)
        key = q.tobytes()
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo
        try:
            a = np.array(self.annihilator(q), dtype=float, ndmin=2)
        except Exception as exc:
            raise EvaluationError("annihilator evaluation failed at q=%s: %s"
                                  % (np.array2string(q), exc)) from exc
        if a.shape != (self.m, self.n):
            raise DimensionMismatchError(
                "annihilator returned shape %r, expected (%d, %d)" % (a.shape, self.m, self.n)
            )
        if not np.isfinite(a).all():
            raise EvaluationError("annihilator returned non-finite entries at q=%s"
                                  % np.array2string(q))
        # the rank of the row basis is the count of singular values above
        # RANK_CUTOFF relative to the largest, so rank < m is exactly
        # s[0] == 0 or s[-1] <= RANK_CUTOFF * s[0]
        rows = orthonormal_columns(a.T)
        if rows.shape[1] < self.m:
            s = np.linalg.svd(a, compute_uv=False)
            raise DegenerateConstraintError(
                "annihilator loses row rank at q=%s (singular values %s)"
                % (np.array2string(q), np.array2string(s))
            )
        a.flags.writeable = False
        rows.flags.writeable = False
        memo = (key, a, rows)
        object.__setattr__(self, "_memo", memo)
        return memo

    def matrix(self, q: np.ndarray) -> np.ndarray:
        """A(q), validated for shape, finiteness and row rank; read-only."""
        if self.m == 0:
            return self._empty
        return self._validated(q)[1]

    def project_ker(self, q: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Orthogonal projection of the covector ``w`` onto ker A(q)."""
        if self.m == 0:
            return np.asarray(w, dtype=float)
        rows = self._validated(q)[2]
        return w - rows @ (rows.T @ w)


def pontryagin_two_form(u: TangentPd, w: TangentPd) -> float:
    """Value of the bundle two-form on two tangent vectors; ignores dq+ blocks."""
    if u.dim != w.dim:
        raise DimensionMismatchError("tangent vectors of dimension %d and %d" % (u.dim, w.dim))
    return float(u.dp @ w.dq - u.dq @ w.dp)


def vertical_lift(x: PontryaginPoint, beta: np.ndarray) -> TangentPd:
    """Vertical lift of the covector beta at x: the tangent vector (0, beta, 0)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (x.dim,):
        raise DimensionMismatchError("covector has shape %r, point dimension is %d"
                                     % (beta.shape, x.dim))
    zeros = np.zeros(x.dim)
    return TangentPd(zeros, beta, zeros)


def interior_product(v: TangentPd) -> CotangentPd:
    """The covector two_form(v, .) in blocks: (v.dp, -v.dq, 0)."""
    return CotangentPd(v.dp, -v.dq, np.zeros(v.dim))


def lift_annihilator(dist: KinematicDistribution, x: PontryaginPoint) -> np.ndarray:
    """Annihilator rows [A(q) | 0 | 0] of the lifted distribution at x.

    A tangent vector (dq, dp, dq+) lies in the lifted distribution exactly
    when A(q) dq = 0; the dp and dq+ blocks are unconstrained.
    """
    if x.dim != dist.n:
        raise DimensionMismatchError("point dimension %d, distribution dimension %d"
                                     % (x.dim, dist.n))
    a = dist.matrix(x.q)
    return np.hstack([a, np.zeros((a.shape[0], 2 * dist.n))])


def check_admissibility(curve: DiscreteCurve, tol: float = 1e-12) -> Optional[int]:
    """First index k with ||x_k.qplus - x_{k+1}.q||_inf > tol, or None if none.

    None means the curve satisfies the discrete second-order condition.
    """
    if len(curve) == 0:
        raise DimensionMismatchError("empty curve")
    gaps = np.abs(curve.qplus[:-1] - curve.q[1:]).max(axis=1)
    bad = np.flatnonzero(gaps > tol)
    return int(bad[0]) if bad.size else None
