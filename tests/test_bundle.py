"""Bundle coordinates: the two-form, lifts, lifted annihilators, A(q) memo, admissibility."""

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
    TangentPd,
    check_admissibility,
    interior_product,
    lift_annihilator,
    pontryagin_two_form,
    retraction_constraint,
    run_trajectory,
    vertical_lift,
)
from diracmech import builtin
from diracmech.linalg import orthonormal_columns


def random_tangent(rng, n):
    return TangentPd(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n))


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


class TestTwoForm:
    def test_vertical_against_general(self):
        # pairing a vertical lift against any tangent vector picks out p . dq
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.standard_normal(3)
            w = random_tangent(rng, 3)
            u = TangentPd(np.zeros(3), p, np.zeros(3))
            assert pontryagin_two_form(u, w) == pytest.approx(float(p @ w.dq), abs=1e-15)

    def test_vanishes_on_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = random_tangent(rng, 4)
            assert pontryagin_two_form(u, u) == 0.0

    def test_unit_block_example(self):
        e1 = np.array([1.0, 0.0])
        z = np.zeros(2)
        u = TangentPd(e1, z, z)
        w = TangentPd(z, e1, z)
        assert pontryagin_two_form(u, w) == -1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u, w = random_tangent(rng, 3), random_tangent(rng, 3)
            assert abs(pontryagin_two_form(u, w) + pontryagin_two_form(w, u)) < 1e-14

    def test_ignores_qplus_blocks(self):
        rng = np.random.default_rng(4)
        u, w = random_tangent(rng, 3), random_tangent(rng, 3)
        val = pontryagin_two_form(u, w)
        u2 = TangentPd(u.dq, u.dp, rng.standard_normal(3))
        w2 = TangentPd(w.dq, w.dp, rng.standard_normal(3))
        assert pontryagin_two_form(u2, w2) == val  # bit-identical

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pontryagin_two_form(random_tangent(np.random.default_rng(0), 2),
                                random_tangent(np.random.default_rng(0), 3))


class TestLifts:
    def test_vertical_lift_of_own_momentum(self):
        x = PontryaginPoint([0.2], [1.5], [0.3])
        v = vertical_lift(x, x.p)
        assert np.array_equal(v.dq, [0.0])
        assert np.array_equal(v.dp, [1.5])
        assert np.array_equal(v.dqplus, [0.0])

    def test_vertical_lift_of_zero(self):
        x = PontryaginPoint([0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        v = vertical_lift(x, np.zeros(2))
        assert not v.dq.any() and not v.dp.any() and not v.dqplus.any()

    def test_vertical_lift_components(self):
        x = PontryaginPoint(np.zeros(3), np.zeros(3), np.zeros(3))
        v = vertical_lift(x, [1.0, 2.0, 3.0])
        assert np.array_equal(v.dp, [1.0, 2.0, 3.0])

    def test_interior_product_of_vertical(self):
        v = TangentPd(np.zeros(2), [1.0, 2.0], np.zeros(2))
        c = interior_product(v)
        assert np.array_equal(c.bq, [1.0, 2.0])
        assert not c.bp.any() and not c.bqplus.any()

    def test_interior_product_of_zero(self):
        c = interior_product(TangentPd(np.zeros(2), np.zeros(2), np.zeros(2)))
        assert not c.bq.any() and not c.bp.any() and not c.bqplus.any()

    def test_interior_product_blocks(self):
        e1, e2, e3 = np.eye(3)
        c = interior_product(TangentPd(e1, e2, e3))
        assert np.array_equal(c.bq, e2)
        assert np.array_equal(c.bp, -e1)
        assert not c.bqplus.any()

    def test_interior_product_agrees_with_two_form(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            v, w = random_tangent(rng, 3), random_tangent(rng, 3)
            assert abs(interior_product(v)(w) - pontryagin_two_form(v, w)) < 1e-13


class TestLiftAnnihilator:
    def test_unconstrained_is_empty(self):
        dist = KinematicDistribution.unconstrained(2)
        x = PontryaginPoint(np.zeros(2), np.zeros(2), np.zeros(2))
        assert lift_annihilator(dist, x).shape == (0, 6)

    def test_block_padding(self):
        dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
        x = PontryaginPoint([0.0, 2.0, 0.0], np.zeros(3), np.zeros(3))
        rows = lift_annihilator(dist, x)
        assert np.array_equal(rows, [[-2.0, 0.0, 1.0, 0, 0, 0, 0, 0, 0]])

    def test_vertical_lifts_satisfy_every_row(self):
        rng = np.random.default_rng(12)
        dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
        for _ in range(20):
            x = PontryaginPoint(rng.standard_normal(3), rng.standard_normal(3),
                                rng.standard_normal(3))
            rows = lift_annihilator(dist, x)
            beta = rng.standard_normal(3)
            v = vertical_lift(x, beta)
            stacked = np.concatenate([v.dq, v.dp, v.dqplus])
            assert np.max(np.abs(rows @ stacked)) == 0.0

    def test_degenerate_annihilator(self):
        dist = KinematicDistribution(3, 1, lambda q: np.zeros((1, 3)))
        x = PontryaginPoint(np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(DegenerateConstraintError):
            lift_annihilator(dist, x)

    def test_rank_loss_across_rows(self):
        dist = KinematicDistribution(3, 2, lambda q: np.array([[1.0, 0.0, 0.0],
                                                               [1.0, 0.0, 0.0]]))
        x = PontryaginPoint(np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(DegenerateConstraintError):
            lift_annihilator(dist, x)


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

    def test_empty_curve_is_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteCurve([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteCurve([PontryaginPoint([0.0], [0.0], [0.0]),
                           PontryaginPoint([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])])
