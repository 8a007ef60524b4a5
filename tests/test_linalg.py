"""Dirac-structure linear algebra: pairing, induced structures, membership."""

import numpy as np
import pytest

from diracmech import (
    DimensionMismatchError,
    KinematicDistribution,
    LinSubspace,
    PairedVector,
    RankDeficiencyError,
    SkewForm,
    induced_dirac,
    is_dirac,
    membership_residual,
    pairing,
)
from diracmech import linalg
from diracmech.linalg import RANK_CUTOFF, orthonormal_columns


def random_skew(rng, n):
    m = rng.standard_normal((n, n))
    return SkewForm(m - m.T)


def random_subspace(rng, n, k=None):
    if k is None:
        k = int(rng.integers(0, n + 1))
    if k == 0:
        return LinSubspace.trivial(n)
    return LinSubspace(n, rng.standard_normal((n, k)))


def span_projector(basis):
    """Dense least-squares projector onto the column span, independent of the library."""
    if basis.shape[1] == 0:
        return np.zeros((basis.shape[0], basis.shape[0]))
    return basis @ np.linalg.pinv(basis)


class TestTypes:
    def test_paired_vector_requires_equal_parts(self):
        with pytest.raises(DimensionMismatchError):
            PairedVector([1.0, 2.0], [1.0])

    def test_skew_form_rejects_symmetric_part(self):
        with pytest.raises(ValueError):
            SkewForm([[0.0, 1.0], [-1.0 + 1e-6, 0.0]])

    def test_skew_form_zero_and_value(self):
        omega = SkewForm([[0.0, 2.0], [-2.0, 0.0]])
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        # value(v, w) = (mat v) . w and antisymmetry
        assert omega.value(v, w) == pytest.approx(float(omega.flat(v) @ w))
        assert omega.value(v, w) == -omega.value(w, v)
        assert SkewForm.zero(3).value(np.ones(3), np.ones(3)) == 0.0

    def test_subspace_rejects_rank_deficiency(self):
        b = np.column_stack([np.array([1.0, 0.0]), np.array([1.0, 1e-12])])
        with pytest.raises(RankDeficiencyError):
            LinSubspace(2, b)

    def test_subspace_rejects_too_many_columns(self):
        with pytest.raises(RankDeficiencyError):
            LinSubspace(2, np.random.default_rng(0).standard_normal((2, 3)))

    def test_subspace_onb_is_orthonormal(self):
        rng = np.random.default_rng(3)
        sub = LinSubspace(5, rng.standard_normal((5, 3)))
        assert np.allclose(sub.onb.T @ sub.onb, np.eye(3), atol=1e-12)
        assert sub.dim == 3


class TestNonFiniteInput:
    """Non-finite entries are named at construction, before any SVD sees them."""

    def test_skew_form_rejects_nan(self):
        # NaN used to pass the skew check, which reads a NaN gap as small
        with pytest.raises(ValueError, match="two-form matrix entries must all be finite"):
            SkewForm([[0.0, np.nan], [np.nan, 0.0]])

    def test_subspace_rejects_nan_basis(self):
        # used to raise numpy's bare LinAlgError from the SVD
        with pytest.raises(ValueError, match="basis entries must all be finite"):
            LinSubspace(2, [[np.nan], [1.0]])

    def test_subspace_rejects_infinite_basis(self):
        # used to raise RankDeficiencyError quoting "singular values [nan]"
        with pytest.raises(ValueError, match="basis entries must all be finite"):
            LinSubspace(2, [[np.inf], [1.0]])

    def test_induced_structure_of_a_nan_form(self):
        # used to raise numpy's bare LinAlgError from induced_dirac's SVD
        with pytest.raises(ValueError, match="two-form matrix entries must all be finite"):
            induced_dirac(LinSubspace.full(2), SkewForm([[0.0, np.nan], [-np.nan, 0.0]]))


def svd_rank_basis(mat):
    """The rank rule computed with numpy alone: u[:, :#(s > RANK_CUTOFF * s[0])]."""
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :int(np.sum(s > RANK_CUTOFF * s[0]))]


def with_singular_values(rng, n, s):
    """An n x len(s) matrix U diag(s) V^T with random orthonormal U and V."""
    u, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    return (u * s) @ v.T


class TestRankCutoff:
    @pytest.mark.parametrize("ratio", [RANK_CUTOFF * (1.0 - 1e-6), RANK_CUTOFF * (1.0 + 1e-6)])
    def test_keeps_the_columns_of_the_numpy_rule(self, ratio):
        rng = np.random.default_rng(71)
        for n, k in ((2, 2), (3, 2), (4, 2), (5, 3)):
            for _ in range(10):
                mat = with_singular_values(rng, n, np.r_[np.full(k - 1, 2.5), 2.5 * ratio])
                assert orthonormal_columns(mat).tobytes() == svd_rank_basis(mat).tobytes()

    def test_decides_on_each_side_of_the_cutoff(self):
        rng = np.random.default_rng(72)
        for side, rank in ((1.0 - 1e-3, 1), (1.0 + 1e-3, 2)):
            mat = with_singular_values(rng, 3, np.array([1.0, RANK_CUTOFF * side]))
            assert orthonormal_columns(mat).shape == (3, rank)

    def test_a_zero_matrix_has_no_columns(self):
        # a single zero column has norm 0; wider ones reach the SVD, whose
        # largest singular value is then 0
        for k in (1, 2, 3):
            assert orthonormal_columns(np.zeros((3, k))).shape == (3, 0)

    def test_transposed_view_and_contiguous_copy_give_the_same_bytes(self):
        rng = np.random.default_rng(73)
        for m, n in ((2, 4), (3, 3), (2, 20)):
            view = rng.standard_normal((m, n)).T
            assert not view.flags.c_contiguous
            basis = orthonormal_columns(view)
            assert basis.tobytes() == orthonormal_columns(np.ascontiguousarray(view)).tobytes()
            assert basis.tobytes() == svd_rank_basis(view).tobytes()


EPS = float(np.finfo(float).eps)


def single_columns():
    """Random columns of 1 to 6 entries scaled from 1e-300 to 1e300, a
    subnormal column whose norm is exact (3-4-5 times 2^-1070) and a zero one."""
    rng = np.random.default_rng(75)
    cols = [rng.standard_normal(int(rng.integers(1, 7))) * 10.0 ** rng.uniform(-300.0, 300.0)
            for _ in range(200)]
    return cols + [np.array([3.0, 0.0, -4.0]) * 2.0 ** -1070, np.zeros(3)]


def count_svd_calls(monkeypatch):
    """A list that grows by one entry at each np.linalg.svd call."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    return calls


class TestSingleColumn:
    """A single column's one singular value is its 2-norm, so its basis needs no SVD."""

    def test_same_line_as_the_svd(self, monkeypatch):
        mats = [col.reshape(-1, 1) for col in single_columns()]
        wants = [svd_rank_basis(mat) for mat in mats]
        calls = count_svd_calls(monkeypatch)
        for mat, want in zip(mats, wants):
            got = orthonormal_columns(mat)
            assert got.shape == want.shape
            if got.shape[1]:
                assert abs(np.linalg.norm(got) - 1.0) <= 2.0 * EPS
                assert abs(abs(float(got[:, 0] @ want[:, 0])) - 1.0) <= 4.0 * EPS
        assert calls == []
        assert [m.shape[1] for m in wants] == [1] * 201 + [0]

    def test_nan_column_still_fails_in_the_svd(self):
        with pytest.raises(np.linalg.LinAlgError):
            orthonormal_columns(np.array([[np.nan], [1.0]]))

    @pytest.mark.parametrize("col", [[np.inf, 1.0], [0.0, -np.inf, 2.0]])
    def test_a_norm_that_is_not_finite_takes_the_svd(self, monkeypatch, col):
        # as before the closed form: the SVD reads each of these as rank 0
        calls = count_svd_calls(monkeypatch)
        assert orthonormal_columns(np.array(col).reshape(-1, 1)).shape == (len(col), 0)
        assert calls == [1]

    @pytest.mark.parametrize("col", [[1.7e308, 1.7e308], [1e308, -1.5e308, 1e308, 0.0]])
    def test_a_finite_column_whose_norm_overflows_has_rank_one(self, monkeypatch, col):
        # the column divided by its largest entry spans the same line; the
        # SVD reads the column itself as rank 0
        col = np.array(col)
        calls = count_svd_calls(monkeypatch)
        got = orthonormal_columns(col.reshape(-1, 1))
        assert got.shape == (len(col), 1)
        want = col / 1e300
        assert np.allclose(got[:, 0], want / np.linalg.norm(want), rtol=0.0, atol=4.0 * EPS)
        assert LinSubspace(len(col), col).dim == 1
        dist = KinematicDistribution(len(col), 1, lambda q: col.reshape(1, -1))
        assert dist.matrix(np.zeros(len(col))).shape == (1, len(col))
        assert calls == []


class TestOneRankCount:
    def test_spans_count_through_one_helper(self, monkeypatch):
        calls, count = [], linalg._rank
        monkeypatch.setattr(linalg, "_rank", lambda s: calls.append(len(s)) or count(s))
        rng = np.random.default_rng(74)
        delta, omega = LinSubspace(3, rng.standard_normal((3, 2))), random_skew(rng, 3)
        assert calls == [2]
        d = induced_dirac(delta, omega)
        # the closed-form basis counts no kernel: only the span check of its
        # 3 columns
        assert calls == [2, 3]
        assert d.dim == 3 and is_dirac(d, 3)

    def test_one_vector_counts_through_the_same_helper(self, monkeypatch):
        calls, count = [], linalg._rank
        monkeypatch.setattr(linalg, "_rank", lambda s: calls.append(len(s)) or count(s))
        assert LinSubspace(3, [1.0, -2.0, 0.5]).dim == 1
        assert calls == [1]


class TestPairing:
    def test_vanishes_without_covector_parts(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            assert pairing(PairedVector(v, np.zeros(3)), PairedVector(w, np.zeros(3))) == 0.0

    def test_unit_diagonal_pair(self):
        e1 = np.array([1.0, 0.0])
        x = PairedVector(e1, e1)
        assert pairing(x, x) == 2.0

    def test_symmetric_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = PairedVector(rng.standard_normal(4), rng.standard_normal(4))
            y = PairedVector(rng.standard_normal(4), rng.standard_normal(4))
            direct_xy = float(x.a @ y.v + y.a @ x.v)
            direct_yx = float(y.a @ x.v + x.a @ y.v)
            assert pairing(x, y) == pytest.approx(direct_xy, abs=0.0)
            assert abs(pairing(x, y) - pairing(y, x)) < 1e-12
            assert pairing(y, x) == pytest.approx(direct_yx, abs=0.0)

    def test_bilinear(self):
        rng = np.random.default_rng(5)
        x = PairedVector(rng.standard_normal(3), rng.standard_normal(3))
        y = PairedVector(rng.standard_normal(3), rng.standard_normal(3))
        z = PairedVector(rng.standard_normal(3), rng.standard_normal(3))
        lhs = pairing(PairedVector(x.v + 2.0 * y.v, x.a + 2.0 * y.a), z)
        assert lhs == pytest.approx(pairing(x, z) + 2.0 * pairing(y, z), rel=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairing(PairedVector([1.0], [1.0]), PairedVector([1.0, 2.0], [0.0, 0.0]))


class TestInducedDirac:
    def test_full_space_zero_form(self):
        d = induced_dirac(LinSubspace.full(2), SkewForm.zero(2))
        assert d.dim == 2
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[1, 1] = 1.0  # R^2 + {0}
        assert np.allclose(span_projector(d.basis), span_projector(expected), atol=1e-12)

    def test_nondegenerate_form_gives_graph(self):
        omega = SkewForm([[0.0, 1.0], [-1.0, 0.0]])
        d = induced_dirac(LinSubspace.full(2), omega)
        assert d.dim == 2
        for j in range(2):
            col = d.basis[:, j]
            assert np.linalg.norm(col[2:] - omega.mat @ col[:2]) < 1e-10
        graph = np.vstack([np.eye(2), omega.mat])
        assert np.allclose(span_projector(d.basis), span_projector(graph), atol=1e-12)

    def test_random_nondegenerate_forms_give_graphs(self):
        rng = np.random.default_rng(29)
        for n in (2, 4, 6):
            for _ in range(10):
                omega = random_skew(rng, n)
                if np.linalg.cond(omega.mat) > 1e6:
                    continue  # random even-dimensional skew matrices are rarely near singular
                d = induced_dirac(LinSubspace.full(n), omega)
                for j in range(d.dim):
                    col = d.basis[:, j]
                    assert np.linalg.norm(col[n:] - omega.mat @ col[:n]) < 1e-10

    def test_line_with_zero_form(self):
        # conditions enumerated by hand: v in span{e1} forces v2 = 0, and
        # a(e1) = 0 forces a1 = 0, leaving span{(e1, 0), (0, e2*)}
        d = induced_dirac(LinSubspace(2, np.array([[1.0], [0.0]])), SkewForm.zero(2))
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[3, 1] = 1.0
        assert d.dim == 2
        assert np.allclose(span_projector(d.basis), span_projector(expected), atol=1e-12)

    def test_trivial_subspace(self):
        d = induced_dirac(LinSubspace.trivial(3), SkewForm.zero(3))
        expected = np.vstack([np.zeros((3, 3)), np.eye(3)])  # {0} + V*
        assert d.dim == 3
        assert np.allclose(span_projector(d.basis), span_projector(expected), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            induced_dirac(LinSubspace.full(2), SkewForm.zero(3))

    @pytest.mark.parametrize("w", [1e3, 1e5, 1e12])
    def test_a_strong_form_on_a_line_keeps_dimension_two(self, w, monkeypatch):
        # on the line span{e1} with omega = w (e1 ^ e2), B^T omega B = 0: the
        # basis is (e1, 0) and (0, e2*) however large w is. A kernel of the
        # stacked map (P_off v, B^T (a - omega v)) has singular values about
        # w and 1/w, which a relative cutoff misread as rank 1 from w = 1e5
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda m, *a, **kw: calls.append(m.shape) or svd(m, *a, **kw))
        line = LinSubspace(2, np.array([[1.0], [0.0]]))
        d = induced_dirac(line, SkewForm([[0.0, w], [-w, 0.0]]))
        assert d.dim == 2 and is_dirac(d, 2)
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[3, 1] = 1.0
        assert np.allclose(span_projector(d.basis), span_projector(expected), atol=1e-12)
        # the one SVD is the span check of the returned 4 x 2 basis
        assert calls == [(4, 2)]

    @pytest.mark.parametrize("w", [1e3, 1e9, 1e11, 1e12])
    def test_a_strong_form_on_a_plane_keeps_dimension_three(self, w):
        # on span{e1, e2} in R^3 with omega = w (e1 ^ e2), the columns (B, B M)
        # have singular values sqrt(1 + w^2) against 1 for (0, e3*): from
        # w = 1e11 their ratio fell under RANK_CUTOFF, and the span check
        # rejected a basis that is orthogonal by construction
        mat = np.zeros((3, 3))
        mat[0, 1], mat[1, 0] = w, -w
        d = induced_dirac(LinSubspace(3, np.eye(3)[:, :2]), SkewForm(mat))
        assert d.dim == 3 and is_dirac(d, 3)
        assert np.allclose(np.linalg.svd(d.basis, compute_uv=False), 1.0, atol=1e-12)
        # (e1, -w e2*), (e2, w e1*) and (0, e3*), normalized
        s = np.sqrt(1.0 + w * w)
        expected = np.zeros((6, 3))
        expected[0, 0], expected[4, 0] = 1.0 / s, -w / s
        expected[1, 1], expected[3, 1] = 1.0 / s, w / s
        expected[5, 2] = 1.0
        assert np.allclose(span_projector(d.basis), span_projector(expected), atol=1e-12)


class TestIsDirac:
    def test_graphs_of_skew_forms(self):
        rng = np.random.default_rng(11)
        for n in range(1, 6):
            omega = random_skew(rng, n)
            graph = LinSubspace(2 * n, np.vstack([np.eye(n), omega.mat]))
            assert is_dirac(graph, n)

    def test_isotropy_failure(self):
        d = LinSubspace(2, np.array([[1.0], [1.0]]))  # span{(e1, e1*)}, pairing 2
        assert not is_dirac(d, 1)

    def test_dimension_failure(self):
        assert not is_dirac(LinSubspace.trivial(2), 1)

    def test_odd_ambient_dimension(self):
        with pytest.raises(DimensionMismatchError):
            is_dirac(LinSubspace.full(3), 1)

    def test_wrong_half_dimension(self):
        with pytest.raises(DimensionMismatchError):
            is_dirac(LinSubspace.full(4), 1)

    def test_induced_structures_are_dirac(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            delta = random_subspace(rng, 4)
            omega = random_skew(rng, 4)
            assert is_dirac(induced_dirac(delta, omega), 4)


class TestMembershipResidual:
    def test_members_have_zero_residual(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            delta = random_subspace(rng, n)
            omega = random_skew(rng, n)
            d = induced_dirac(delta, omega)
            for j in range(d.dim):
                col = d.basis[:, j]
                x = PairedVector(col[:n], col[n:])
                assert membership_residual(x, delta, omega) < 1e-12

    def test_unit_distance_example(self):
        x = PairedVector([1.0, 0.0], [0.0, 0.0])
        delta = LinSubspace(2, np.array([[0.0], [1.0]]))
        assert membership_residual(x, delta, SkewForm.zero(2)) == pytest.approx(1.0)

    def test_nonmember_agrees_with_dense_projection(self):
        rng = np.random.default_rng(17)
        n = 4
        for _ in range(25):
            delta = random_subspace(rng, n, k=int(rng.integers(1, n)))
            omega = random_skew(rng, n)
            x = PairedVector(rng.standard_normal(n), rng.standard_normal(n))
            got = membership_residual(x, delta, omega)
            # independent route: dense least-squares projections for both parts
            coeffs, *_ = np.linalg.lstsq(delta.basis, x.v, rcond=None)
            dist = np.linalg.norm(x.v - delta.basis @ coeffs)
            defect = x.a - omega.mat @ x.v
            dcoef, *_ = np.linalg.lstsq(delta.basis, defect, rcond=None)
            cond = np.linalg.norm(delta.basis @ dcoef)
            assert got == pytest.approx(max(dist, cond), abs=1e-10)

    def test_positive_off_span(self):
        rng = np.random.default_rng(23)
        n = 3
        delta = random_subspace(rng, n, k=1)
        omega = random_skew(rng, n)
        d = induced_dirac(delta, omega)
        # a vector with a component outside the structure has positive residual
        outside = np.linalg.svd(d.basis.T)[2][-1]  # orthogonal to every basis vector
        x = PairedVector(outside[:n], outside[n:])
        assert membership_residual(x, delta, omega) > 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            membership_residual(PairedVector([1.0], [0.0]), LinSubspace.full(2), SkewForm.zero(2))

    def test_trivial_subspace_measures_only_the_distance(self):
        # a trivial delta restricts the defect covector to nothing, so only
        # the distance of v from {0} is left
        x = PairedVector([3.0, -4.0], [7.0, 1.0])
        assert membership_residual(x, LinSubspace.trivial(2), SkewForm.zero(2)) == 5.0
