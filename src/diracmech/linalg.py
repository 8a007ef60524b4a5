"""Dirac-structure linear algebra on a finite-dimensional space V and its dual.

Subspaces of V and of V + V* are explicit basis matrices; every rank decision
goes through an SVD with a relative cutoff so that near-degenerate inputs fail
loudly instead of silently dropping dimensions. A two-form is a skew matrix
``mat`` acting through its flat map v -> mat @ v, so the scalar value of the
form is value(v, w) = (mat @ v) . w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, RankDeficiencyError

# Relative singular-value threshold shared by all rank decisions.
RANK_CUTOFF = 1e-10


def orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of ``mat`` (may have zero columns)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise DimensionMismatchError("expected a 2-d matrix, got shape %r" % (mat.shape,))
    if mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((mat.shape[0], 0))
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return u[:, :rank]


@dataclass(frozen=True)
class LinSubspace:
    """A linear subspace stored as a basis matrix whose columns span it.

    The basis must have full column rank (smallest singular value above
    RANK_CUTOFF relative to the largest); an orthonormalized copy is kept in
    ``onb`` for projections.
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
        if basis.shape[1] > self.ambient_dim:
            raise RankDeficiencyError(
                "%d basis vectors cannot be independent in dimension %d"
                % (basis.shape[1], self.ambient_dim)
            )
        if basis.shape[1] > 0:
            s = np.linalg.svd(basis, compute_uv=False)
            if s[0] == 0.0 or s[-1] <= RANK_CUTOFF * s[0]:
                raise RankDeficiencyError(
                    "basis is rank deficient (singular values %s)" % np.array2string(s)
                )
        object.__setattr__(self, "basis", basis.copy())
        object.__setattr__(self, "onb", orthonormal_columns(basis))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "LinSubspace":
        return cls(n, np.eye(n))

    @classmethod
    def trivial(cls, n: int) -> "LinSubspace":
        return cls(n, np.zeros((n, 0)))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``v`` onto the subspace."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.ambient_dim,):
            raise DimensionMismatchError("vector has shape %r, ambient dim is %d"
                                         % (v.shape, self.ambient_dim))
        return self.onb @ (self.onb.T @ v)


@dataclass(frozen=True)
class PairedVector:
    """An element (v, a) of V + V*: a vector and a covector of equal dimension."""

    v: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if v.ndim != 1 or a.ndim != 1 or v.shape != a.shape:
            raise DimensionMismatchError(
                "vector and covector parts must be 1-d and equal length, got %r / %r"
                % (v.shape, a.shape)
            )
        object.__setattr__(self, "v", v.copy())
        object.__setattr__(self, "a", a.copy())

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.v, self.a])


@dataclass(frozen=True)
class SkewForm:
    """A two-form as a skew-symmetric matrix; value(v, w) = (mat @ v) . w."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("two-form matrix must be square, got %r" % (mat.shape,))
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
    ker = vh[int(np.sum(s > RANK_CUTOFF * s[0])):].T
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
