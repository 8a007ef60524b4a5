"""Dirac-structure linear algebra on a finite-dimensional space V and its dual.

Subspaces of V and of V + V* are explicit basis matrices; every rank decision
counts singular values above a relative cutoff so that near-degenerate inputs
fail loudly instead of silently dropping dimensions. They come from an SVD,
except for a single column, whose one singular value is its norm. A two-form
is a skew matrix ``mat`` acting through its flat map v -> mat @ v, so the
scalar value of the form is value(v, w) = (mat @ v) . w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, RankDeficiencyError

# Relative singular-value threshold shared by all rank decisions.
RANK_CUTOFF = 1e-10

_F64 = np.dtype(float)

# Arrays of up to this many entries take the pure-Python paths of _norm_inf
# and _all_finite.
_SMALL = 8


def _vector(x, name: str, n: Optional[int] = None) -> np.ndarray:
    """``x`` as a float64 vector (of length ``n`` when given); ``x`` itself if it is one."""
    if type(x) is np.ndarray and x.dtype == _F64 and x.ndim == 1 and (n is None or x.shape[0] == n):
        return x
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or (n is not None and arr.shape[0] != n):
        raise DimensionMismatchError("%s has shape %r, expected %s"
                                     % (name, arr.shape, "a 1-d vector" if n is None else (n,)))
    return arr


def _norm_inf(v: np.ndarray) -> float:
    if v.shape[0] <= _SMALL:
        # a Python loop beats two ufunc calls on a few entries; a NaN
        # entry sticks, as it does in np.max
        worst = 0.0
        for t in v.tolist():
            t = abs(t)
            if t > worst or t != t:
                worst = t
        return worst
    return float(np.abs(v).max())


def _all_finite(x: np.ndarray) -> bool:
    """True iff every entry of the float array ``x``, of any shape, is finite."""
    if x.size <= _SMALL:
        return all(map(math.isfinite, x.ravel().tolist()))
    return bool(np.isfinite(x).all())


def _blocks(obj, names: Sequence[str]) -> list:
    """Replace the named fields of a frozen dataclass by float64 vector copies of one length.

    Returns the copies; raises DimensionMismatchError when they are not
    1-d or their lengths differ.
    """
    blocks = [_vector(getattr(obj, name), name).copy() for name in names]
    if len({b.shape[0] for b in blocks}) > 1:
        raise DimensionMismatchError("blocks %s must share one dimension, got %s"
                                     % (" / ".join(names),
                                        " / ".join(str(b.shape[0]) for b in blocks)))
    for name, b in zip(names, blocks):
        object.__setattr__(obj, name, b)
    return blocks


def _rank(s: list) -> int:
    """The rank from singular values s, largest first, as Python floats: the
    number above RANK_CUTOFF relative to the largest."""
    cutoff = RANK_CUTOFF * s[0]
    return sum(t > cutoff for t in s)


def orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of ``mat`` (may have zero columns).

    The rank is ``_rank`` of the singular values. A single column a has one,
    sigma_1 = ||a||_2 (Golub and Van Loan, Matrix Computations, 2.4), taken
    by ``math.hypot``, which does not square, so a subnormal column keeps
    rank 1; its basis is a / ||a||_2. A finite column whose norm overflows
    is first divided by its largest absolute entry, which keeps its span. A
    column with a NaN or infinite entry, and every wider matrix, goes
    through the SVD.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise DimensionMismatchError("expected a 2-d matrix, got shape %r" % (mat.shape,))
    if mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0))
    if mat.shape[1] == 1:
        norm = math.hypot(*mat.ravel().tolist())
        if norm == math.inf and math.isfinite(top := float(np.abs(mat).max())):
            return orthonormal_columns(mat / top)
        if math.isfinite(norm):
            return mat / norm if _rank([norm]) else np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    s = s.tolist()
    if s[0] == 0.0:
        return np.zeros((mat.shape[0], 0))
    return u[:, :_rank(s)]


@dataclass(frozen=True)
class LinSubspace:
    """A linear subspace stored as a basis matrix whose columns span it.

    The basis must have finite entries (ValueError otherwise) and full
    column rank, as ``orthonormal_columns`` decides it (smallest singular
    value above RANK_CUTOFF relative to the largest); that orthonormalized
    copy is kept in ``onb`` for projections.
    """

    ambient_dim: int
    basis: np.ndarray
    onb: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise DimensionMismatchError("ambient dimension must be positive")
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                "basis shape %r does not match ambient dimension %d"
                % (basis.shape, self.ambient_dim)
            )
        if not _all_finite(basis):
            raise ValueError("basis entries must all be finite")
        onb = orthonormal_columns(basis)
        if onb.shape[1] < basis.shape[1]:
            raise RankDeficiencyError("basis of %d vectors in dimension %d is rank deficient "
                                      "(singular values %s)"
                                      % (basis.shape[1], self.ambient_dim,
                                         np.array2string(np.linalg.svd(basis, compute_uv=False))))
        object.__setattr__(self, "basis", basis.copy())
        object.__setattr__(self, "onb", onb)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "LinSubspace":
        return cls(n, np.eye(n))

    @classmethod
    def trivial(cls, n: int) -> "LinSubspace":
        return cls(n, np.zeros((n, 0)))


@dataclass(frozen=True)
class PairedVector:
    """An element (v, a) of V + V*: a vector and a covector of equal dimension."""

    v: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        _blocks(self, ("v", "a"))

    @property
    def dim(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True)
class SkewForm:
    """A two-form as a finite skew-symmetric matrix; value(v, w) = (mat @ v) . w."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("two-form matrix must be square, got %r" % (mat.shape,))
        if not _all_finite(mat):
            raise ValueError("two-form matrix entries must all be finite")
        if mat.size and np.max(np.abs(mat + mat.T)) >= 1e-12:
            raise ValueError("matrix is not skew-symmetric (max |mat + mat^T| = %g)"
                             % np.max(np.abs(mat + mat.T)))
        object.__setattr__(self, "mat", mat.copy())

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def zero(cls, n: int) -> "SkewForm":
        return cls(np.zeros((n, n)))

    def flat(self, v: np.ndarray) -> np.ndarray:
        """The covector value(v, .) as a plain array."""
        return self.mat @ np.asarray(v, dtype=float)

    def value(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(self.flat(v) @ np.asarray(w, dtype=float))


def pairing(x: PairedVector, y: PairedVector) -> float:
    """Symmetric pairing <<(v,a),(w,b)>> = a(w) + b(v) on V + V*."""
    if x.dim != y.dim:
        raise DimensionMismatchError("paired vectors of dimension %d and %d" % (x.dim, y.dim))
    return float(x.a @ y.v + y.a @ x.v)


def induced_dirac(delta: LinSubspace, omega: SkewForm) -> LinSubspace:
    """Structure induced by a subspace and a skew form.

    Returns a basis of D = {(v, a) : v in delta, (a - omega.flat(v)) kills
    delta}, computed as the kernel of the stacked linear map
    (v, a) -> (P_off v, B^T (a - omega.flat(v))) where P_off projects off
    delta and B is an orthonormal delta-basis: the right singular vectors
    past its rank. The map is never zero (P_off or B is not), so its largest
    singular value sets the relative cutoff. The result always has
    dimension equal to the ambient dimension of V.
    """
    n = delta.ambient_dim
    if omega.dim != n:
        raise DimensionMismatchError("subspace lives in dim %d, form in dim %d" % (n, omega.dim))
    b = delta.onb
    p_off = np.eye(n) - b @ b.T
    rows_v = np.hstack([p_off, np.zeros((n, n))])
    rows_a = np.hstack([-(b.T @ omega.mat), b.T])
    _, s, vh = np.linalg.svd(np.vstack([rows_v, rows_a]))
    ker = vh[_rank(s.tolist()):].T
    if ker.shape[1] != n:
        raise RankDeficiencyError(
            "induced structure came out with dimension %d, expected %d" % (ker.shape[1], n)
        )
    return LinSubspace(2 * n, ker)


def is_dirac(d: LinSubspace, n: int, tol: float = 1e-10) -> bool:
    """True iff ``d`` is maximally isotropic in dimension 2n.

    Checks dim d == n and that the symmetric pairing vanishes (below ``tol``)
    on all pairs of orthonormalized basis vectors, which in finite dimensions
    is equivalent to d equaling its own pairing-orthogonal complement.
    """
    if n < 1:
        raise DimensionMismatchError("n must be positive")
    if d.ambient_dim % 2 != 0:
        raise DimensionMismatchError("ambient dimension %d is odd; expected 2n" % d.ambient_dim)
    if d.ambient_dim != 2 * n:
        raise DimensionMismatchError(
            "ambient dimension %d does not match 2n = %d" % (d.ambient_dim, 2 * n)
        )
    if d.dim != n:
        return False
    v_part = d.onb[:n, :]
    a_part = d.onb[n:, :]
    gram = a_part.T @ v_part
    pair = gram + gram.T
    return bool(pair.size == 0 or np.max(np.abs(pair)) < tol)


def membership_residual(x: PairedVector, delta: LinSubspace, omega: SkewForm) -> float:
    """How far (v, a) is from the structure induced by (delta, omega).

    Maximum of the distance from v to delta and the norm of the defect
    covector a - value(v, .) restricted to delta (its projection onto the
    subspace, a basis-independent quantity). Zero exactly on members.
    """
    n = delta.ambient_dim
    if x.dim != n or omega.dim != n:
        raise DimensionMismatchError(
            "paired vector dim %d, subspace dim %d, form dim %d" % (x.dim, n, omega.dim)
        )
    b = delta.onb
    v_off = x.v - b @ (b.T @ x.v)
    dist = float(np.linalg.norm(v_off))
    if b.shape[1]:
        cond = float(np.linalg.norm(b.T @ (x.a - omega.mat @ x.v)))
    else:
        cond = 0.0
    return max(dist, cond)
