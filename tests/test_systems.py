"""Discrete systems: derivatives, constraints, the inclusion residual and its generic oracle."""

import numpy as np
import pytest

from diracmech import (
    DimensionMismatchError,
    DiscreteConstraint,
    DiscreteLagrangian,
    DiscreteSystem,
    EvaluationError,
    KinematicDistribution,
    LinSubspace,
    PairedVector,
    PontryaginPoint,
    SkewForm,
    UnsupportedOperationError,
    dirac_inclusion_residual,
    membership_residual,
    retraction_constraint,
)
from diracmech import builtin, systems
from diracmech.systems import central_difference, jacobian_columns


H = 0.1
LAM = 1.0


def oscillator():
    return builtin.harmonic_oscillator(H, LAM)


class TestDerivatives:
    def test_central_difference_accuracy(self):
        f = lambda q, qp: float(np.sin(q[0]) * qp[0] ** 2)
        q = np.array([0.3])
        qp = np.array([0.7])
        g0 = central_difference(f, (q, qp), 0)
        g1 = central_difference(f, (q, qp), 1)
        assert g0[0] == pytest.approx(np.cos(0.3) * 0.49, rel=1e-9)
        assert g1[0] == pytest.approx(np.sin(0.3) * 1.4, rel=1e-9)

    @staticmethod
    def smooth():
        """A smooth map R^2 -> R^2 at a point, with its exact Jacobian there."""
        x = np.array([0.3, 0.7])
        fun = lambda v: np.array([np.sin(v[0]) * v[1], np.exp(v[1]) - v[0] ** 3])
        exact = np.array([[np.cos(0.3) * 0.7, np.sin(0.3)], [-3 * 0.3 ** 2, np.exp(0.7)]])
        return fun, x, exact

    def test_jacobian_columns_makes_n_plus_one_calls(self):
        fun, x, exact = self.smooth()
        calls = []
        jac = jacobian_columns(lambda v: calls.append(v.copy()) or fun(v), x)
        assert len(calls) == 3
        assert np.array_equal(calls[0], x)  # the base point, then one per column
        assert np.allclose(jac, exact, atol=1e-4)

    def test_jacobian_columns_is_first_order(self, monkeypatch):
        # forward differences: the error shrinks in proportion to the step
        # (a ratio of 10 for a tenth of the step; central ones give 100)
        fun, x, exact = self.smooth()
        errors = []
        for scale in (1e-3, 1e-4):
            monkeypatch.setattr(systems, "FD_SCALE", scale)
            errors.append(float(np.max(np.abs(jacobian_columns(fun, x) - exact))))
        assert 8.0 < errors[0] / errors[1] < 12.0

    def test_single_input_takes_the_central_quotient(self):
        # the same two calls as a forward difference, and second-order
        calls = []
        jac = jacobian_columns(lambda v: calls.append(float(v[0])) or np.sin(v), np.array([0.3]))
        assert calls == [0.3 + systems.FD_SCALE, 0.3 - systems.FD_SCALE]
        assert jac[0, 0] == pytest.approx(np.cos(0.3), abs=1e-9)

    def test_forward_gradient_costs_n_plus_one_evaluations(self):
        calls = []

        def f(q, qp):
            calls.append(None)
            return float(np.sin(q[0]) * qp[0] ** 2 + q[1] * qp[1])

        lag = DiscreteLagrangian(2, f)
        q, qp = np.array([0.3, -0.2]), np.array([0.7, 0.4])
        for block, exact in ((0, [np.cos(0.3) * 0.49, 0.4]), (1, [np.sin(0.3) * 1.4, -0.2])):
            calls.clear()
            g = lag.provider.forward_gradient(block, q, qp)
            assert len(calls) == 3
            assert np.allclose(g, exact, atol=1e-4)

    def test_forward_gradient_errors_are_wrapped(self):
        def exploding(q, qp):
            raise RuntimeError("boom")
        lag = DiscreteLagrangian(1, exploding)
        with pytest.raises(EvaluationError, match="boom"):
            lag.provider.forward_gradient(0, np.zeros(1), np.zeros(1))

    def test_wrong_analytic_partial_is_caught(self):
        Ld = lambda q, qp: float(q[0] ** 2 + qp[0] ** 2)
        bad_d1 = lambda q, qp: np.array([3.0 * q[0]])  # should be 2 q
        with pytest.raises(ValueError, match="central differences"):
            DiscreteLagrangian(1, Ld, bad_d1)

    def test_validation_can_be_disabled(self):
        Ld = lambda q, qp: float(q[0] ** 2 + qp[0] ** 2)
        bad_d1 = lambda q, qp: np.array([3.0 * q[0]])
        lag = DiscreteLagrangian(1, Ld, bad_d1, validate=False)
        assert lag.d1(np.array([1.0]), np.array([0.0]))[0] == 3.0

    def test_fd_fallback_matches_analytic(self):
        rng = np.random.default_rng(0)
        lag_fd = DiscreteLagrangian(2, lambda q, qp: float(q @ qp + qp @ qp))
        lag_an = DiscreteLagrangian(2, lambda q, qp: float(q @ qp + qp @ qp),
                                    d1=lambda q, qp: qp.copy(),
                                    d2=lambda q, qp: q + 2.0 * qp)
        for _ in range(10):
            q, qp = rng.standard_normal(2), rng.standard_normal(2)
            assert np.allclose(lag_fd.d1(q, qp), lag_an.d1(q, qp), atol=1e-7)
            assert np.allclose(lag_fd.d2(q, qp), lag_an.d2(q, qp), atol=1e-7)

    def test_evaluation_errors_are_wrapped(self):
        def exploding(q, qp):
            raise RuntimeError("boom")
        lag = DiscreteLagrangian(1, lambda q, qp: 0.0, d1=exploding, validate=False)
        with pytest.raises(EvaluationError):
            lag.d1(np.zeros(1), np.zeros(1))

    def test_builtin_partials_match_fd(self):
        probes = 25
        rng = np.random.default_rng(99)
        for system in (oscillator(), builtin.free_particle(H, 2, [1.0, 2.5]),
                       builtin.nonholonomic_particle(H)):
            provider = system.lagrangian.provider
            args = [(rng.standard_normal(system.n), rng.standard_normal(system.n))
                    for _ in range(probes)]
            assert provider.max_fd_deviation(args) < 1e-5
        for system in (builtin.harmonic_oscillator_hamiltonian(H, LAM),
                       builtin.free_particle_hamiltonian(H, 2, [1.0, 2.5])):
            provider = system.hamiltonian.provider
            args = [(rng.standard_normal(system.n), rng.standard_normal(system.n))
                    for _ in range(probes)]
            assert provider.max_fd_deviation(args) < 1e-5


class TestKind:
    """The generating function sets a system's kind."""

    LAG = builtin.free_particle_lagrangian(H, 2)
    HAM = builtin.free_particle_hamiltonian(H, 2).hamiltonian

    def test_each_generating_function_names_its_kind(self):
        lag, ham = DiscreteSystem(self.LAG), DiscreteSystem(self.HAM, label="ham")
        assert (lag.kind, lag.label, lag.lagrangian, lag.hamiltonian) \
            == ("lagrangian", "lagrangian", self.LAG, None)
        assert (ham.kind, ham.label, ham.lagrangian, ham.hamiltonian) \
            == ("hamiltonian", "ham", None, self.HAM)

    def test_the_other_kind_is_rejected(self):
        with pytest.raises(UnsupportedOperationError, match="expected a DiscreteLagrangian"):
            DiscreteSystem.from_lagrangian(self.HAM)
        with pytest.raises(UnsupportedOperationError, match="expected a DiscreteHamiltonian"):
            DiscreteSystem.from_hamiltonian(self.LAG)

    @pytest.mark.parametrize("gen", ["lagrangian", None, LAG.provider],
                             ids=["kind string", "None", "provider"])
    def test_only_a_generating_function_builds_a_system(self, gen):
        with pytest.raises(UnsupportedOperationError,
                           match="expected a DiscreteLagrangian or a DiscreteHamiltonian"):
            DiscreteSystem(gen)


class TestBuiltinParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda v: builtin.harmonic_oscillator(v),
        lambda v: builtin.harmonic_oscillator(H, v),
        lambda v: builtin.harmonic_oscillator_hamiltonian(v),
        lambda v: builtin.harmonic_oscillator_hamiltonian(H, v),
        lambda v: builtin.free_particle(v, 2),
        lambda v: builtin.free_particle(H, 2, v),
        lambda v: builtin.free_particle_hamiltonian(H, 2, [1.0, v]),
        lambda v: builtin.free_particle_lagrangian(v),
        lambda v: builtin.nonholonomic_particle(v),
        lambda v: builtin.nonholonomic_particle(H, [1.0, v, 1.0]),
    ], ids=["osc-h", "osc-lam", "osc-ham-h", "osc-ham-lam", "free-h", "free-mass",
            "free-ham-mass", "free-lag-h", "nh-h", "nh-mass"])
    def test_non_finite_parameters_are_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)


class TestConstraintTypes:
    def test_codimension_must_match_corank(self):
        lag = builtin.free_particle_lagrangian(H, 3)
        dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
        with pytest.raises(DimensionMismatchError):
            DiscreteSystem.from_lagrangian(lag, dist, DiscreteConstraint.unconstrained(3))

    def test_fd_jacobian2(self):
        con = DiscreteConstraint(2, 1, lambda q, qp: np.array([qp[0] * qp[1] - q[0]]))
        q = np.array([0.3, 0.4])
        qp = np.array([0.5, 0.6])
        jac = con.jacobian2(q, qp)
        assert np.allclose(jac, [[0.6, 0.5]], atol=1e-8)


class TestConstraintConversions:
    """What phi and jac2 may return: float64 arrays pass as they are, the rest is converted."""

    Q, QP = np.array([0.3, 0.4]), np.array([0.5, 0.6])

    @pytest.mark.parametrize("out", [
        0.25, [0.25], np.array(0.25), np.array([3]), np.array([0.1], dtype=np.float32),
    ], ids=["float", "list", "0-d", "int", "float32"])
    def test_phi_outputs_are_converted(self, out):
        value = DiscreteConstraint(2, 1, lambda q, qp: out).value(self.Q, self.QP)
        expected = np.atleast_1d(np.asarray(out, dtype=float))
        assert value.dtype == np.float64 and value.shape == (1,)
        assert value.tobytes() == expected.tobytes()

    def test_float64_rows_are_used_as_they_come(self):
        out = np.array([0.25, -1.0])
        jac = np.array([[1.0, 0.0], [0.0, 2.0]])
        con = DiscreteConstraint(2, 2, lambda q, qp: out, lambda q, qp: jac)
        assert con.value(self.Q, self.QP) is out
        assert con.jacobian2(self.Q, self.QP) is jac

    @pytest.mark.parametrize("out", [np.array([[0.25]]), np.array([0.25, 0.5]), [0.1, 0.2]],
                             ids=["(1, 1)", "length 2", "list of 2"])
    def test_phi_of_the_wrong_shape(self, out):
        with pytest.raises(DimensionMismatchError, match="constraint returned shape"):
            DiscreteConstraint(2, 1, lambda q, qp: out).value(self.Q, self.QP)

    def test_jac2_of_the_wrong_shape(self):
        con = DiscreteConstraint(2, 1, lambda q, qp: 0.0, lambda q, qp: np.ones((2, 2)))
        with pytest.raises(DimensionMismatchError, match="constraint Jacobian shape"):
            con.jacobian2(self.Q, self.QP)

    @pytest.mark.parametrize("out", [np.array([0.6, 0.5]), [0.6, 0.5],
                                     np.array([0.6, 0.5], dtype=np.float32)],
                             ids=["float64", "list", "float32"])
    def test_1d_jac2_reads_as_one_row(self, out):
        jac = DiscreteConstraint(2, 1, lambda q, qp: 0.0, lambda q, qp: out).jacobian2(
            self.Q, self.QP)
        assert jac.dtype == np.float64 and jac.shape == (1, 2)
        assert jac.tobytes() == np.asarray(out, dtype=float).tobytes()

    def test_raising_callables_end_in_evaluation_errors(self):
        def boom(q, qp):
            raise ZeroDivisionError("boom")

        con = DiscreteConstraint(2, 1, boom, boom)
        with pytest.raises(EvaluationError, match="constraint evaluation failed: boom"):
            con.value(self.Q, self.QP)
        with pytest.raises(EvaluationError, match="constraint Jacobian failed: boom"):
            con.jacobian2(self.Q, self.QP)

    def test_unconvertible_output_ends_in_an_evaluation_error(self):
        con = DiscreteConstraint(2, 1, lambda q, qp: "x", lambda q, qp: [["x", 1.0]])
        with pytest.raises(EvaluationError):
            con.value(self.Q, self.QP)
        with pytest.raises(EvaluationError):
            con.jacobian2(self.Q, self.QP)


class TestRetractionConstraint:
    def test_unconstrained_passthrough(self):
        con = retraction_constraint(KinematicDistribution.unconstrained(2))
        assert con.md == 0
        assert con.value(np.zeros(2), np.ones(2)).shape == (0,)

    def test_expanded_formula(self):
        dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
        con = retraction_constraint(dist)
        rng = np.random.default_rng(5)
        for _ in range(20):
            q, qp = rng.standard_normal(3), rng.standard_normal(3)
            expected = (qp[2] - q[2]) - q[1] * (qp[0] - q[0])
            assert con.value(q, qp)[0] == pytest.approx(expected, abs=1e-14)
            assert np.array_equal(con.jacobian2(q, qp), [[-q[1], 0.0, 1.0]])

    def test_zero_displacement(self):
        dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
        con = retraction_constraint(dist)
        rng = np.random.default_rng(6)
        for _ in range(10):
            q = rng.standard_normal(3)
            assert np.max(np.abs(con.value(q, q))) == 0.0

    def test_kinematic_displacements_satisfy_it(self):
        dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
        con = retraction_constraint(dist)
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = rng.standard_normal(3)
            v = dist.project_ker(q, rng.standard_normal(3))
            assert np.max(np.abs(con.value(q, q + v))) < 1e-14


class TestLagrangianOneForm:
    def test_oscillator_matches_closed_form(self):
        # at p = 0 the certificate is the norm of the one-form's dq and dq+
        # blocks, -d1 L(q0, q1) and p1 - d2 L(q0, q1)
        system = oscillator()
        rng = np.random.default_rng(8)
        for _ in range(20):
            q0, q1, p1 = rng.standard_normal(3)
            x = PontryaginPoint([q0], [0.0], [q1])
            expected = np.hypot((q1 - q0) / H + H * LAM * q0, p1 - (q1 - q0) / H)
            assert dirac_inclusion_residual(system, x, [p1]) == pytest.approx(expected, rel=1e-13)


class TestHamiltonianOneForm:
    def test_oscillator_transform_blocks(self):
        # at p = 0 the certificate is the norm of the one-form's dq and dp
        # blocks, dH/dq(q, p+) and dH/dp(q, p+) - q+
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        rng = np.random.default_rng(10)
        for _ in range(20):
            q, pp, qp = rng.standard_normal(3)
            x = PontryaginPoint([q], [0.0], [qp])
            expected = np.hypot(pp + H * LAM * q, q + H * pp - qp)
            assert dirac_inclusion_residual(system, x, [pp]) == pytest.approx(expected, rel=1e-13)


def pointwise_residual(system, x, p_next):
    """The same inclusion residual through the generic Dirac machinery.

    Builds the lifted distribution at x as an explicit subspace of R^{3n}, the
    block two-form, and the paired vector (vertical lift, one-form), then asks
    the generic membership_residual. The one-form is built here from the slot
    gradients, so this route shares no formula code with the library's
    certificate. Zero exactly when the fast path is zero.
    """
    n = system.n
    a = system.dist.matrix(x.q)
    # basis of {(dq, dp, dq+) : A dq = 0}
    if a.shape[0]:
        _, _, vh = np.linalg.svd(a)
        ker = vh[a.shape[0]:].T
    else:
        ker = np.eye(n)
    basis = np.zeros((3 * n, ker.shape[1] + 2 * n))
    basis[:n, :ker.shape[1]] = ker
    basis[n:2 * n, ker.shape[1]:ker.shape[1] + n] = np.eye(n)
    basis[2 * n:, ker.shape[1] + n:] = np.eye(n)
    delta = LinSubspace(3 * n, basis)
    mat = np.zeros((3 * n, 3 * n))
    mat[:n, n:2 * n] = np.eye(n)
    mat[n:2 * n, :n] = -np.eye(n)
    omega = SkewForm(mat)
    p_next = np.asarray(p_next, dtype=float)
    zero = np.zeros(n)
    if system.kind == "lagrangian":
        lag = system.lagrangian
        psi = (-lag.d1(x.q, x.qplus), zero, p_next - lag.d2(x.q, x.qplus))
    else:
        ham = system.hamiltonian
        psi = (ham.dq(x.q, p_next), ham.dp(x.q, p_next) - x.qplus, zero)
    v = np.concatenate([zero, x.p, zero])
    alpha = np.concatenate(psi)
    return membership_residual(PairedVector(v, alpha), delta, omega)


class TestInclusionResidual:
    def test_oscillator_solution_is_member(self):
        system = oscillator()
        x = PontryaginPoint([0.0], [1.0], [0.1])
        assert dirac_inclusion_residual(system, x, [1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_perturbed_momentum_shows_up(self):
        system = oscillator()
        x = PontryaginPoint([0.0], [1.0], [0.1])
        assert dirac_inclusion_residual(system, x, [1.1]) == pytest.approx(0.1, abs=1e-12)

    def test_agrees_with_generic_membership(self):
        rng = np.random.default_rng(13)
        nh = builtin.nonholonomic_particle(H)
        ho = oscillator()
        hoh = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        for system in (ho, nh, hoh):
            n = system.n
            for _ in range(25):
                x = PontryaginPoint(rng.standard_normal(n), rng.standard_normal(n),
                                    rng.standard_normal(n))
                p_next = rng.standard_normal(n)
                fast = dirac_inclusion_residual(system, x, p_next)
                generic = pointwise_residual(system, x, p_next)
                # the two routes measure the same membership: zero together and
                # comparable in size (the generic one takes a max, not an l2 sum)
                assert (fast < 1e-10) == (generic < 1e-10)
                if fast > 1e-10:
                    assert generic <= fast + 1e-12
                    assert fast <= np.sqrt(3.0) * generic + 1e-12

    def test_zero_exactly_on_discrete_equations(self):
        from scipy.optimize import root

        rng = np.random.default_rng(14)
        system = builtin.free_particle(H, 2, [1.0, 2.0])
        lag = system.lagrangian
        for _ in range(10):
            q0 = rng.standard_normal(2)
            q1 = q0 + 0.1 * rng.standard_normal(2)
            p1 = lag.d2(q0, q1)

            def equations(z):
                qnew, pnew = z[:2], z[2:]
                return np.concatenate([p1 + lag.d1(q1, qnew),
                                       pnew - lag.d2(q1, qnew)])

            sol = root(equations, np.concatenate([q1, p1]))
            assert np.max(np.abs(equations(sol.x))) < 1e-10
            qnew, pnew = sol.x[:2], sol.x[2:]
            x = PontryaginPoint(q1, p1, qnew)
            assert dirac_inclusion_residual(system, x, pnew) < 1e-9
            assert dirac_inclusion_residual(system, x, pnew + 0.01) > 1e-4
            bad = PontryaginPoint(q1, p1, qnew + 0.05)
            assert dirac_inclusion_residual(system, bad, pnew) > 1e-4
