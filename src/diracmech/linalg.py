"""Dirac-structure linear algebra on a finite-dimensional space V and its dual.

Subspaces of V and of V + V* are explicit basis matrices; every rank decision
counts singular values above a relative cutoff so that near-degenerate inputs
fail loudly instead of silently dropping dimensions. They come from an SVD,
except for a single column, whose one singular value is its norm. A two-form
is a skew matrix ``mat`` acting through its flat map v -> mat v, so the
scalar value of the form is value(v, w) = (mat v) . w. Every product is
``ndarray.dot``, as everywhere in the package: one kernel call, without the
dispatch of the matmul ufunc.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, RankDeficiencyError

# Relative singular-value threshold shared by all rank decisions.
RANK_CUTOFF = 1e-10

_F64 = np.dtype(float)

# The types of entries that are not real numbers, though numpy would read a
# bool among numbers as one of them and an object array's strings as floats.
_NOT_REAL = frozenset({bool, np.bool_, complex, np.complex64, np.complex128, np.clongdouble,
                       str, np.str_, bytes, np.bytes_})

# Arrays of up to this many entries take the pure-Python paths of _norm_inf
# and _all_finite.
_SMALL = 8


def _count(value, name: str, least: int, most: Optional[int] = None,
           error: type = ValueError) -> int:
    """``value`` as a Python int: an Integral, not a bool, from ``least`` up to ``most``.

    Anything else raises ``error``, naming the argument. A float count such
    as nan would never end a loop, and a bool would read as 0 or 1.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least
            or (most is not None and value > most)):
        what = ("an integer from %d to %d" % (least, most) if most is not None
                else "a positive integer" if least else "a nonnegative integer")
        try:
            shown = repr(value)
        except ValueError:  # Python prints no int of more than 4300 digits
            shown = "%s integer of %d bits" % ("a negative" if value < 0 else "an",
                                               int(value).bit_length())
        raise error("%r must be %s, got %s" % (name, what, shown))
    return int(value)


def _real(value, name: str, positive: bool = False) -> float:
    """``value`` as a finite Python float, above zero too when ``positive``.

    It must be a Real that is not a bool (a bool would read as 0.0 or 1.0);
    an int beyond the float range reads as inf. Anything else raises
    ValueError, naming the argument.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%r must be a number, got %r" % (name, value))
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not (0.0 < x < math.inf if positive else math.isfinite(x)):
        raise ValueError("%r must be %sfinite, got %r"
                         % (name, "positive and " if positive else "", x))
    return x


def _real_array(x, name: Optional[str] = None) -> np.ndarray:
    """``x`` as a float64 array of any shape; a float64 array comes back as it is.

    This is the package's one way in for arrays: every array that a caller
    passes or a user callable returns is read here, or by ``_vector`` on top
    of it, and nowhere else is cast to float. Only real numbers convert:
    integers, floats and objects that float() takes. Complex, boolean and
    string entries raise TypeError, so no value is cut to its real part and
    no bool reads as 0 or 1. Any input other than a NumPy array of numbers
    (a list, a scalar, an object array) is checked entry by entry before it
    is converted, since numpy would promote a bool among numbers to their
    type; a 0-d array among the entries is checked by its item. An int
    beyond the float range raises OverflowError, and a ragged nesting
    numpy's ValueError. With a ``name``, each of these is a ValueError that
    names it.
    """
    try:
        arr = np.asarray(x)
        if arr.dtype == _F64 and arr is x:
            return arr
        kind = arr.dtype.kind
        flat = arr.ndim == 1 and kind != "O"  # then x's own items are its entries
        if kind not in "fiuO" or (arr is not x or kind == "O") and not _NOT_REAL.isdisjoint(
                _entry_types(x if flat else np.asarray(x, dtype=object).ravel())):
            raise TypeError("complex, boolean or string entries are not real numbers")
        return arr if arr.dtype == _F64 else arr.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        if name is None:
            raise
        raise ValueError("%r must be real numbers: %s" % (name, exc)) from exc


def _entry_types(entries) -> set:
    """The types of the entries of a list or object array, and of each 0-d array's item.

    numpy reads ``np.array(True)`` among numbers as 1.0, as it reads
    ``np.True_``, so both must show as the bool they are.
    """
    types = set(map(type, entries))
    if np.ndarray in types:
        types.update(type(e[()]) for e in entries if type(e) is np.ndarray)
    return types


def _vector(x, name: str, n: Optional[int] = None) -> np.ndarray:
    """``x`` as a float64 vector (of length ``n`` when given); ``x`` itself if it is one.

    Entries that are not real numbers (see ``_real_array``) raise
    ValueError, a wrong shape DimensionMismatchError; both name the argument.
    """
    if type(x) is np.ndarray and x.dtype == _F64 and x.ndim == 1 and (n is None or x.shape[0] == n):
        return x
    try:
        arr = np.atleast_1d(_real_array(x))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("%r must be a vector of real numbers: %s" % (name, exc)) from exc
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
    through the SVD. ``mat`` is read by ``_real_array`` (a ValueError
    names it when its entries are not real numbers).
    """
    mat = _real_array(mat, "mat")
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
    return u[:, :_rank(s.tolist())]


@dataclass(frozen=True)
class LinSubspace:
    """A linear subspace stored as a basis matrix whose columns span it.

    The basis must have finite real entries (see ``_real_array``; ValueError
    otherwise) and full column rank, as ``orthonormal_columns`` decides it
    (smallest singular value above RANK_CUTOFF relative to the largest);
    that orthonormalized copy is kept in ``onb`` for projections.
    """

    ambient_dim: int
    basis: np.ndarray
    onb: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim",
                           _count(self.ambient_dim, "ambient_dim", 1, error=DimensionMismatchError))
        basis = _real_array(self.basis, "basis")
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
        return cls(n, np.eye(_count(n, "n", 1, error=DimensionMismatchError)))

    @classmethod
    def trivial(cls, n: int) -> "LinSubspace":
        return cls(n, np.zeros((_count(n, "n", 1, error=DimensionMismatchError), 0)))


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
    """A two-form as a finite skew-symmetric matrix; value(v, w) = (mat v) . w.

    ``mat`` is read by ``_real_array``, and v and w by ``_vector``: entries
    that are not real numbers raise ValueError, and a v or w whose length is
    not ``dim`` raises DimensionMismatchError, each naming its argument.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _real_array(self.mat, "mat")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("two-form matrix must be square, got %r" % (mat.shape,))
        if not _all_finite(mat):
            raise ValueError("two-form matrix entries must all be finite")
        if np.max(np.abs(mat + mat.T), initial=0.0) >= 1e-12:
            raise ValueError("matrix is not skew-symmetric (max |mat + mat^T| = %g)"
                             % np.max(np.abs(mat + mat.T)))
        object.__setattr__(self, "mat", mat.copy())

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def zero(cls, n: int) -> "SkewForm":
        n = _count(n, "n", 0, error=DimensionMismatchError)
        return cls(np.zeros((n, n)))

    def flat(self, v: np.ndarray) -> np.ndarray:
        """The covector value(v, .) as a plain array."""
        return self.mat.dot(_vector(v, "v", self.dim))

    def value(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(self.flat(v).dot(_vector(w, "w", self.dim)))


def pairing(x: PairedVector, y: PairedVector) -> float:
    """Symmetric pairing <<(v,a),(w,b)>> = a(w) + b(v) on V + V*."""
    if x.dim != y.dim:
        raise DimensionMismatchError("paired vectors of dimension %d and %d" % (x.dim, y.dim))
    return float(x.a.dot(y.v) + y.a.dot(x.v))


def induced_dirac(delta: LinSubspace, omega: SkewForm) -> LinSubspace:
    """Structure induced by a subspace and a skew form.

    Returns a basis of D = {(v, a) : v in delta, (a - omega.flat(v)) kills
    delta}, built in closed form. With B the orthonormal delta-basis (n x k)
    and N the last n - k columns of the complete QR factor of B, an
    orthonormal basis of the annihilator of delta, the members are
    v = B c and a = omega B c + N d, and since omega B c - B (B^T omega B) c
    kills delta, D is spanned by the k columns (B, B M), M = B^T omega B,
    and the n - k columns (0, N). The two groups are orthogonal, with
    singular values sqrt(1 + sigma^2(M)) and 1, so one reduced QR of the n
    stacked columns gives an orthonormal basis of D: all its singular
    values are 1, and the result has dimension n however strong omega is,
    with no rank decision of its own.
    """
    n = delta.ambient_dim
    if omega.dim != n:
        raise DimensionMismatchError("subspace lives in dim %d, form in dim %d" % (n, omega.dim))
    b = delta.onb
    k = b.shape[1]
    ann = np.linalg.qr(b, mode="complete")[0][:, k:]
    graph = np.vstack([b, b.dot(b.T.dot(omega.mat).dot(b))])
    basis = np.hstack([graph, np.vstack([np.zeros((n, n - k)), ann])])
    return LinSubspace(2 * n, np.linalg.qr(basis)[0])


def is_dirac(d: LinSubspace, n: int, tol: float = 1e-10) -> bool:
    """True iff ``d`` is maximally isotropic in dimension 2n.

    Checks dim d == n and that the symmetric pairing vanishes (below ``tol``)
    on all pairs of orthonormalized basis vectors, which in finite dimensions
    is equivalent to d equaling its own pairing-orthogonal complement.
    """
    n = _count(n, "n", 1, error=DimensionMismatchError)
    if d.ambient_dim != 2 * n:
        raise DimensionMismatchError(
            "ambient dimension %d does not match 2n = %d" % (d.ambient_dim, 2 * n)
        )
    if d.dim != n:
        return False
    v_part = d.onb[:n, :]
    a_part = d.onb[n:, :]
    gram = a_part.T.dot(v_part)
    pair = gram + gram.T
    return bool(np.max(np.abs(pair)) < tol)


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
    v_off = x.v - b.dot(b.T.dot(x.v))
    dist = float(np.linalg.norm(v_off))
    cond = float(np.linalg.norm(b.T.dot(x.a - omega.mat.dot(x.v))))
    return max(dist, cond)
