"""Coordinate model of the discrete Pontryagin bundle T*Q x Q.

Q is a plain R^n in one global chart. A point is x = (q, p, q+); tangent
vectors and covectors at x split into matching (dq, dp, dq+) blocks. The
bundle two-form is the negated pullback of the canonical form of T*Q, in
blocks -(u.dq . w.dp - u.dp . w.dq), so dq+ blocks never enter it. A
kinematic distribution lifts to the tangent vectors with A(q) dq = 0; their
dp and dq+ blocks are free. The per-step inclusion on these pieces is
certified by ``systems.dirac_inclusion_residual``, which computes its blocks
directly.
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


def check_admissibility(curve: DiscreteCurve, tol: float = 1e-12) -> Optional[int]:
    """First index k with ||x_k.qplus - x_{k+1}.q||_inf > tol, or None if none.

    None means the curve satisfies the discrete second-order condition.
    """
    if len(curve) == 0:
        raise DimensionMismatchError("empty curve")
    gaps = np.abs(curve.qplus[:-1] - curve.q[1:]).max(axis=1)
    bad = np.flatnonzero(gaps > tol)
    return int(bad[0]) if bad.size else None
