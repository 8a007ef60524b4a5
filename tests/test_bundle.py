"""Bundle coordinates: points, A(q) rank checks and memo, admissibility of discrete curves."""

import sys
import threading

import numpy as np
import pytest

from diracmech import (
    DegenerateConstraintError,
    DimensionMismatchError,
    DiscreteCurve,
    DiscreteSystem,
    EvaluationError,
    KinematicDistribution,
    PontryaginPoint,
    check_admissibility,
    retraction_constraint,
    run_trajectory,
)
from diracmech import builtin
from diracmech.linalg import orthonormal_columns


class TestPoints:
    def test_blocks_must_match(self):
        with pytest.raises(DimensionMismatchError):
            PontryaginPoint([0.0], [1.0, 2.0], [0.0])

    def test_entries_must_be_finite(self):
        with pytest.raises(ValueError):
            PontryaginPoint([0.0], [np.nan], [0.0])
        with pytest.raises(ValueError):
            PontryaginPoint([np.inf], [0.0], [0.0])

    def test_large_finite_entries_are_accepted(self):
        # squares overflow but the entries themselves are finite
        pt = PontryaginPoint([1e200], [0.0], [0.0])
        assert pt.q[0] == 1e200

    def test_scalars_promote_to_vectors(self):
        pt = PontryaginPoint(0.0, 1.0, 0.1)
        assert pt.dim == 1
        assert pt.qplus[0] == 0.1


class TestLiftAnnihilator:
    """The lifted distribution's annihilator [A(q) | 0 | 0] has the row rank
    of A(q), so its rank checks are those of ``matrix`` and ``project_ker``."""

    def test_degenerate_annihilator(self):
        dist = KinematicDistribution(3, 1, lambda q: np.zeros((1, 3)))
        with pytest.raises(DegenerateConstraintError):
            dist.matrix(np.zeros(3))
        with pytest.raises(DegenerateConstraintError):
            dist.project_ker(np.zeros(3), np.ones(3))

    def test_rank_loss_across_rows(self):
        dist = KinematicDistribution(3, 2, lambda q: np.array([[1.0, 0.0, 0.0],
                                                               [1.0, 0.0, 0.0]]))
        with pytest.raises(DegenerateConstraintError):
            dist.matrix(np.zeros(3))
        with pytest.raises(DegenerateConstraintError):
            dist.project_ker(np.zeros(3), np.ones(3))


def tilted_rows(calls=None):
    """A(q) with two rows, polynomial in q; the first row vanishes, so A(q)
    loses rank, where q1 = q2 = 0.

    ``calls`` collects every matrix the annihilator hands out.
    """
    def annihilator(q):
        out = np.array([[1.0, q[0], 0.0, q[1]],
                        [0.0, q[1], 1.0, q[2]]])
        out[0] *= q[1] ** 2 + q[2] ** 2
        if calls is not None:
            calls.append(out)
        return out

    return annihilator


class TestAnnihilatorMemo:
    def test_matrix_and_rows_equal_a_fresh_validation(self):
        rng = np.random.default_rng(31)
        dist = KinematicDistribution(4, 2, tilted_rows())
        qs = [rng.standard_normal(4) for _ in range(4)]
        for q in qs + qs[::-1] + [qs[0], qs[0]]:
            fresh = KinematicDistribution(4, 2, tilted_rows())
            a = dist.matrix(q)
            assert a.tobytes() == tilted_rows()(q).tobytes()
            assert a.tobytes() == fresh.matrix(q).tobytes()
            w = rng.standard_normal(4)
            rows = orthonormal_columns(tilted_rows()(q).T)
            assert dist.project_ker(q, w).tobytes() == (w - rows @ (rows.T @ w)).tobytes()

    def test_one_evaluation_per_base_point(self):
        calls = []
        dist = KinematicDistribution(4, 2, tilted_rows(calls))
        q = np.array([0.3, 0.5, -0.2, 0.1])
        for _ in range(3):
            dist.matrix(q)
            dist.project_ker(q.copy(), np.ones(4))
        assert len(calls) == 1
        counted = []

        def row(q):
            counted.append(q)
            return np.array([[-q[1], 0.0, 1.0]])

        dist = KinematicDistribution(3, 1, row)
        system = DiscreteSystem.from_lagrangian(builtin.free_particle_lagrangian(0.1, 3), dist,
                                                retraction_constraint(dist))
        seed = builtin.lagrangian_seed(system, [0.0, 0.5, 0.0], [0.1, 0.52, 0.05])
        run_trajectory(system, seed, 25)
        # the seed's initial-data check, then one base point per step
        assert len(counted) == 26

    def test_degenerate_point_raises_after_a_good_one(self):
        dist = KinematicDistribution(4, 2, tilted_rows())
        good = np.array([0.3, 0.5, -0.2, 0.1])
        dist.matrix(good)
        with pytest.raises(DegenerateConstraintError, match="singular values"):
            dist.matrix(np.array([0.3, 0.0, 0.0, 0.1]))
        with pytest.raises(DegenerateConstraintError):
            dist.project_ker(np.array([0.3, 0.0, 0.0, 0.1]), np.ones(4))
        assert np.array_equal(dist.matrix(good), tilted_rows()(good))

    def test_in_place_mutation_is_never_served_a_stale_matrix(self):
        dist = KinematicDistribution(4, 2, tilted_rows())
        q = np.array([0.3, 0.5, -0.2, 0.1])
        before = dist.matrix(q).copy()
        q[1] = 2.0
        after = dist.matrix(q)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, tilted_rows()(q))
        q[1] = 0.0
        q[2] = 0.0
        with pytest.raises(DegenerateConstraintError):
            dist.matrix(q)

    def test_returned_arrays_are_read_only_copies(self):
        calls = []
        dist = KinematicDistribution(4, 2, tilted_rows(calls))
        q = np.array([0.3, 0.5, -0.2, 0.1])
        a = dist.matrix(q)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        user = calls[0]
        assert user.flags.writeable
        user[0, 0] = 99.0
        assert a[0, 0] != 99.0
        assert np.array_equal(dist.matrix(q), tilted_rows()(q))

    def test_non_finite_matrix_is_an_evaluation_error(self):
        dist = KinematicDistribution(3, 1, lambda q: np.array([[q[0], np.nan, 1.0]]))
        with pytest.raises(EvaluationError, match="non-finite"):
            dist.matrix(np.zeros(3))

    def test_threads_never_see_a_mixed_entry(self):
        # threads share two base points, so memo hits and replacements
        # interleave; an entry whose key and matrix came from different
        # points would break the equality
        dist = KinematicDistribution(4, 2, tilted_rows())
        rng = np.random.default_rng(32)
        points = [rng.standard_normal(4) for _ in range(2)]
        expected = [tilted_rows()(q) for q in points]
        errors = []

        def worker(t):
            for i in range(3000):
                k = (i // (1 + t)) % 2
                if not np.array_equal(dist.matrix(points[k]), expected[k]):
                    errors.append((t, i))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestAdmissibility:
    def test_single_point_passes(self):
        curve = DiscreteCurve([PontryaginPoint([0.0], [1.0], [0.1])])
        assert check_admissibility(curve) is None

    def test_constructed_chain_passes(self):
        x0 = PontryaginPoint([0.0], [1.0], [0.1])
        x1 = PontryaginPoint([0.1], [1.0], [0.199])
        assert check_admissibility(DiscreteCurve([x0, x1])) is None

    def test_first_violation_index(self):
        x0 = PontryaginPoint([0.0], [1.0], [0.1])
        x1 = PontryaginPoint([0.2], [1.0], [0.3])
        x2 = PontryaginPoint([0.4], [1.0], [0.5])
        assert check_admissibility(DiscreteCurve([x0, x1, x2])) == 0

    def test_tolerance_window(self):
        x0 = PontryaginPoint([0.0], [1.0], [0.1])
        x1 = PontryaginPoint([0.1 + 1e-13], [1.0], [0.2])
        curve = DiscreteCurve([x0, x1])
        assert check_admissibility(curve, tol=1e-12) is None
        assert check_admissibility(curve, tol=1e-14) == 0

    def test_shared_arrays_have_zero_gap(self):
        # stepped curves hand x_k.qplus on as x_{k+1}.q, the same array
        shared = np.array([0.1])
        x0 = PontryaginPoint._trusted(np.array([0.0]), np.array([1.0]), shared)
        x1 = PontryaginPoint._trusted(shared, np.array([1.0]), np.array([0.3]))
        x2 = PontryaginPoint([0.5], [1.0], [0.6])
        curve = DiscreteCurve([x0, x1, x2])
        assert check_admissibility(curve, tol=0.0) == 1
        assert check_admissibility(DiscreteCurve([x0, x1]), tol=0.0) is None
        assert check_admissibility(DiscreteCurve([x0, x1]), tol=-1.0) == 0

    def test_curve_of_points_reads_them_back(self):
        # a curve built from points keeps its own q+ column, so gaps survive
        # storage and each point reads back with its own values
        pts = [PontryaginPoint([0.0, 1.0], [1.0, 2.0], [0.1, 1.1]),
               PontryaginPoint([0.1, 1.1], [3.0, 4.0], [0.3, 1.3]),
               PontryaginPoint([0.4, 1.3], [5.0, 6.0], [0.5, 1.5])]
        curve = DiscreteCurve(pts)
        assert len(curve) == 3 and curve.dim == 2
        for got in (curve.points, list(curve), [curve[k] for k in (-3, -2, -1)], curve[0:3]):
            for a, b in zip(got, pts, strict=True):
                assert all(np.array_equal(u, v) for u, v in
                           ((a.q, b.q), (a.p, b.p), (a.qplus, b.qplus)))
        assert check_admissibility(curve, tol=0.0) == 1
        assert check_admissibility(curve, tol=0.1 + 1e-12) is None
        assert check_admissibility(DiscreteCurve(pts[:2]), tol=-1.0) == 0
        with pytest.raises(IndexError):
            curve[3]

    def test_empty_curve_is_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteCurve([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteCurve([PontryaginPoint([0.0], [0.0], [0.0]),
                           PontryaginPoint([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])])
