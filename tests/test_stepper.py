"""Implicit steppers: Newton, initial data, both lanes, trajectory running."""

import dataclasses
import gc
import inspect
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import root

from diracmech import (
    CertificationError,
    ConvergenceError,
    DimensionMismatchError,
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteSystem,
    EvaluationError,
    KinematicDistribution,
    PontryaginPoint,
    SingularJacobianError,
    SolverOptions,
    StepFailureError,
    UnsupportedOperationError,
    check_admissibility,
    check_initial_data,
    dirac_inclusion_residual,
    newton_solve,
    retraction_constraint,
    run_trajectory,
    step_hamiltonian,
    step_lagrangian,
)
from diracmech import builtin, cli, stepper, systems
from diracmech.stepper import ROUNDOFF_MARGIN

H = 0.1
LAM = 1.0


def oscillator_seed():
    system = builtin.harmonic_oscillator(H, LAM)
    return system, builtin.lagrangian_seed(system, [0.0], [0.1])


def quartic_hamiltonian(n, h, seed=3):
    """A right Hamiltonian with no analytic partials, nonlinear in p+."""
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.5, 1.0, n)
    k = np.diag(rng.uniform(0.5, 1.5, n))

    def hd(q, pp):
        return float(q @ pp + h * (0.5 * pp @ pp + 0.25 * e @ pp ** 4 + 0.5 * q @ k @ q
                                   + 0.5 * e @ (q * pp) ** 2))

    return DiscreteSystem.from_hamiltonian(DiscreteHamiltonian(n, hd))


def nonholonomic_seed():
    system = builtin.nonholonomic_particle(H)
    q0 = np.array([0.0, 0.5, 0.0])
    v = np.array([1.0, 0.2, 0.5])  # satisfies A(q0) v = 0
    q1 = q0 + H * v
    return system, builtin.lagrangian_seed(system, q0, q1)


def sphere_quartic_seed(h=0.1):
    """FD-only Lagrangian, quartic in velocity plus a cosine potential,
    constrained to velocities tangent to the sphere through q (A(q) = q^T)."""
    def ld(q, qp):
        d = (qp - q) / h
        return float(h * (0.5 * d @ d + 0.25 * np.sum(d ** 4) + np.sum(np.cos(q))))

    dist = KinematicDistribution(3, 1, lambda q: q.reshape(1, 3))
    system = DiscreteSystem.from_lagrangian(DiscreteLagrangian(3, ld), dist,
                                            retraction_constraint(dist))
    q0 = np.array([1.0, 0.2, -0.3])
    v = np.array([0.3, 1.0, 0.4])
    v -= (q0 @ v) / (q0 @ q0) * q0
    return system, builtin.lagrangian_seed(system, q0, q0 + h * v)


def quartic_lagrangian_seed(n, h=0.1):
    """FD-only unconstrained Lagrangian, quartic in velocity plus a cosine potential."""
    def ld(q, qp):
        d = (qp - q) / h
        return float(h * (0.5 * d @ d + 0.25 * np.sum(d ** 4) + np.sum(np.cos(q))))

    system = DiscreteSystem.from_lagrangian(DiscreteLagrangian(n, ld))
    q0 = np.linspace(0.1, 0.4, n)
    return system, builtin.lagrangian_seed(system, q0, q0 + h * np.linspace(1.0, 0.5, n))


def nonholonomic_hamiltonian():
    """The nonholonomic particle on the Hamiltonian side: same distribution and
    retraction pair constraint, H the free-particle transform."""
    nh = builtin.nonholonomic_particle(H)
    free = builtin.free_particle_hamiltonian(H, 3)
    return DiscreteSystem.from_hamiltonian(free.hamiltonian, nh.dist, nh.constraint)


class TestNewton:
    def test_linear_shift_in_one_iteration(self):
        c = np.array([2.0, -3.0])
        x, iters, res = newton_solve(lambda x: x - c, lambda x: np.eye(2), np.zeros(2))
        assert np.allclose(x, c, atol=1e-14)
        assert iters == 1
        assert res <= 1e-10

    def test_scalar_quadratic(self):
        f = lambda x: np.array([x[0] ** 2 - 4.0])
        jac = lambda x: np.array([[2.0 * x[0]]])
        x, iters, res = newton_solve(f, jac, np.array([3.0]))
        assert x[0] == pytest.approx(2.0, abs=1e-10)
        assert iters <= 8

    def test_fd_jacobian_fallback(self):
        f = lambda x: np.array([np.exp(x[0]) - 1.0, x[1] ** 3 - 8.0])
        x, _, res = newton_solve(f, None, np.array([0.5, 1.5]))
        assert np.allclose(x, [0.0, 2.0], atol=1e-8)
        assert res <= 1e-10

    def test_already_converged_returns_zero_iterations(self):
        c = np.array([1.0])
        x, iters, _ = newton_solve(lambda x: x - c, None, c.copy())
        assert iters == 0

    def test_line_search_stall_raises(self):
        # no real root: |x^2 + 1| is bounded below by 1
        f = lambda x: np.array([x[0] ** 2 + 1.0])
        with pytest.raises(ConvergenceError) as info:
            newton_solve(f, lambda x: np.array([[2.0 * x[0]]]), np.array([3.0]))
        assert info.value.residual >= 1.0

    def test_max_iter_exhaustion(self):
        # the root of x^9 has multiplicity 9: each damped step is a full one
        # and cuts x by only 1/9, so 10 iterations leave |f| near 2.5e-5
        f = lambda x: np.array([x[0] ** 9])
        jac = lambda x: np.array([[9.0 * x[0] ** 8]])
        with pytest.raises(ConvergenceError, match="no convergence in 10") as info:
            newton_solve(f, jac, np.array([1.0]), SolverOptions(max_iter=10))
        assert info.value.iterations == 10

    @pytest.mark.parametrize("jac", [lambda x: np.eye(2), lambda x: np.ones(1), None],
                             ids=["2x2", "1-d", "fd-of-a-longer-f"])
    def test_mis_shaped_newton_matrix_is_a_dimension_error(self, jac):
        # one unknown: numpy would fail on the 2x2 matrix in solve() and on
        # the 1-d one in cond(), with errors that name neither shape
        f = (lambda x: x - 1.0) if jac is not None else (lambda x: np.array([x[0] - 1.0, x[0]]))
        with pytest.raises(DimensionMismatchError, match=r"expected \(1, 1\)"):
            newton_solve(f, jac, np.zeros(1))

    def test_singular_jacobian(self):
        f = lambda x: np.array([x[0] ** 2])
        jac = lambda x: np.array([[0.0]])
        with pytest.raises(SingularJacobianError) as info:
            newton_solve(f, jac, np.array([1.0]))
        assert info.value.condition == np.inf

    def test_singular_matrix_jacobian(self):
        f = lambda x: x.copy()
        jac = lambda x: np.zeros((2, 2))
        with pytest.raises(SingularJacobianError) as info:
            newton_solve(f, jac, np.ones(2))
        assert info.value.condition is not None

    def test_non_finite_jacobian_is_singular(self):
        for n in (1, 2, 3):
            with pytest.raises(SingularJacobianError) as info:
                newton_solve(lambda x: x - 1.0, lambda x: np.full((n, n), np.nan), np.zeros(n))
            assert info.value.condition == np.inf

    def test_nan_in_any_residual_entry_is_not_converged(self):
        # the infinity norm must see a NaN wherever it sits, on the short
        # vectors as well as the long ones
        for n in (2, 5, 12):
            for bad in (0, n - 1):
                def f(x, bad=bad):
                    r = x - 1.0
                    r[bad] = np.nan
                    return r
                with pytest.raises(ConvergenceError, match="not finite"):
                    newton_solve(f, lambda x: np.eye(x.shape[0]), np.zeros(n))

    def test_step_hamiltonian_rejects_non_finite_state(self):
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        for q, p in (([np.inf], [0.0]), ([0.0], [np.nan])):
            with pytest.raises(ValueError, match="finite"):
                step_hamiltonian(system, q, p)

    def test_tol_is_stored_as_a_float(self):
        # an int beyond the float range passes 0 < tol < inf and would then
        # overflow at the first step's gate, 10 * tol
        with pytest.raises(ValueError, match="tol"):
            SolverOptions(tol=10 ** 400)
        tol = SolverOptions(tol=1).tol
        assert type(tol) is float and tol == 1.0

    def test_options_validation(self):
        # a non-finite tol would accept the predictor with no Newton iteration
        # a bool tol reads as 1.0 and would accept unsolved steps; a string
        # would fail only in the comparison, with a bare TypeError
        for tol in (0.0, -1e-10, np.inf, np.nan, True, np.True_, "1e-3", None):
            with pytest.raises(ValueError, match="tol"):
                SolverOptions(tol=tol)
        assert SolverOptions(tol=np.float64(1e-9)).tol == 1e-9
        assert SolverOptions(tol=np.float32(1e-3)).tol == np.float32(1e-3)
        # a truthy non-bool such as "no" would read as True
        for value in ("no", 1, 0, None):
            with pytest.raises(ValueError, match="cross_check"):
                SolverOptions(cross_check=value)
        assert SolverOptions(cross_check=np.False_).cross_check is np.False_
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        # a non-integer bound: iters >= nan is never true, so a nan bound
        # would never end the iteration
        for max_iter in (np.nan, np.inf, 2.5, True):
            with pytest.raises(ValueError, match="max_iter"):
                SolverOptions(max_iter=max_iter)
        assert SolverOptions(max_iter=np.int64(3)).max_iter == 3
        # where Newton starts, and whether it damps, are not options
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "tol", "max_iter", "cross_check"]


def recorded_square_root_problem():
    """f(x) = x^2 - 4 and its Jacobian, recording every point it is assembled at."""
    calls = []

    def jac(x):
        calls.append(x[0])
        return np.array([[2.0 * x[0]]])

    return (lambda x: np.array([x[0] ** 2 - 4.0])), jac, calls


class TestJacobianReuse:
    def test_contracting_cache_is_used_without_assembly(self):
        f, jac, calls = recorded_square_root_problem()
        cache = [np.array([[4.4]])]
        x, _, res = newton_solve(f, jac, np.array([2.2]), jacobian_cache=cache)
        assert x[0] == pytest.approx(2.0, abs=1e-10)
        assert res <= 1e-10
        assert calls == []
        assert cache[0][0, 0] == 4.4

    def test_uncached_solve_holds_its_matrix_while_it_contracts(self):
        # from 2.2 a chord step on the slope 4.4 leaves under CONTRACTION of
        # the residual of x^2 - 4 at every iterate, so one assembly serves
        f, jac, calls = recorded_square_root_problem()
        x, iters, res = newton_solve(f, jac, np.array([2.2]))
        assert x[0] == pytest.approx(2.0, abs=1e-10)
        assert res <= 1e-10 and iters > 1
        assert calls == [2.2]

    def test_non_contracting_cache_is_reassembled(self):
        # near x = 3, a held slope of 20 leaves about 1 - 6/20 = 0.7 of the
        # residual of x^2 - 4 after each step, above CONTRACTION
        f, jac, calls = recorded_square_root_problem()
        cache = [np.array([[20.0]])]
        x, _, res = newton_solve(f, jac, np.array([3.0]), jacobian_cache=cache)
        assert x[0] == pytest.approx(2.0, abs=1e-10)
        assert res <= 1e-10
        # the held step to 2.75 still lowered the residual, so it is kept and
        # the reassembly continues from there rather than from x0
        assert calls[0] == 2.75
        assert cache[0][0, 0] == 2.0 * calls[-1]

    def test_singular_cache_is_replaced(self):
        c = np.array([2.0, -3.0])
        cache = [np.zeros((2, 2))]
        x, iters, res = newton_solve(lambda x: x - c, lambda x: np.eye(2), np.zeros(2),
                                     jacobian_cache=cache)
        assert np.allclose(x, c, atol=1e-14)
        assert iters == 1
        assert np.array_equal(cache[0], np.eye(2))

    def test_fd_hamiltonian_trajectory_assembles_once(self):
        system = quartic_hamiltonian(4, H)
        rng = np.random.default_rng(5)
        q0, p0 = 0.5 * rng.uniform(-1.0, 1.0, 4), 0.5 * rng.uniform(-1.0, 1.0, 4)
        traj = run_trajectory(system, (q0, p0), 8)
        assert traj.total_jacobian_assemblies == 1
        assert [d.jacobian_assemblies for d in traj.diagnostics] == [1] + [0] * 7
        assert traj.total_iterations == sum(d.iterations for d in traj.diagnostics)
        assert all(d.iterations >= 1 for d in traj.diagnostics)
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol
        ham = system.hamiltonian
        q, p = q0, p0
        for k in range(8):
            def update(z, q=q, p=p):
                return np.concatenate([p - ham.dq(q, z[:4]), z[4:] - ham.dp(q, z[:4])])

            sol = root(update, np.concatenate([p, q]), tol=1e-13)
            assert np.max(np.abs(update(sol.x))) < 1e-10
            q, p = traj.curve[k].qplus, (traj.final_state[1] if k == 7 else traj.curve[k + 1].p)
            assert np.allclose(p, sol.x[:4], rtol=0.0, atol=1e-9)
            assert np.allclose(q, sol.x[4:], rtol=0.0, atol=1e-9)

    def test_stiff_fd_hamiltonian_reassembles_and_certifies(self):
        system = quartic_hamiltonian(4, 0.25)
        rng = np.random.default_rng(5)
        q0, p0 = 1.4 * rng.uniform(-1.0, 1.0, 4), 1.4 * rng.uniform(-1.0, 1.0, 4)
        traj = run_trajectory(system, (q0, p0), 8)
        assert traj.total_jacobian_assemblies > 1
        for d in traj.diagnostics:
            assert d.residual <= SolverOptions().tol
            assert d.inclusion_residual <= 10.0 * SolverOptions().tol

    def test_nonholonomic_run_holds_one_matrix(self):
        # the Lagrangian block of the free particle is constant and the
        # constraint blocks are replaced exactly at every step, so the held
        # matrix is the exact Jacobian of each step's linear system
        system, x0 = nonholonomic_seed()
        tol = SolverOptions().tol
        traj = run_trajectory(system, x0, 2000)
        assert traj.total_jacobian_assemblies == 1
        assert all(d.iterations == 1 for d in traj.diagnostics)
        assert traj.max_constraint_residual <= tol
        assert traj.max_inclusion_residual <= 10.0 * tol

    def test_nonlinear_fd_constrained_run_reassembles_and_matches_direct_steps(self):
        system, x0 = sphere_quartic_seed()
        tol = SolverOptions().tol
        traj = run_trajectory(system, x0, 30)
        assert traj.total_jacobian_assemblies > 1
        for d in traj.diagnostics:
            assert d.residual <= tol
            assert d.inclusion_residual <= 10.0 * tol
            assert d.constraint_residual <= tol
        for k in range(30):
            direct = step_lagrangian(system, traj.curve[k])
            assert np.max(np.abs(direct.next.qplus - traj.curve[k + 1].qplus)) <= 1e-8
            assert np.max(np.abs(direct.multipliers - traj.diagnostics[k].multipliers)) <= 1e-8

    def test_constrained_hamiltonian_run_holds_the_matrix(self):
        system = nonholonomic_hamiltonian()
        q, p = np.array([0.0, 0.5, 0.0]), np.array([1.0, 0.2, 0.3])
        traj = run_trajectory(system, (q, p), 40)
        assert traj.total_jacobian_assemblies == 1
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol
        for k in range(40):
            direct = step_hamiltonian(system, q, p)
            q, p = traj.curve[k].qplus, (traj.curve[k + 1].p if k < 39 else traj.final_state[1])
            assert np.max(np.abs(direct.next.qplus - q)) <= 1e-9
            assert np.max(np.abs(direct.p_next - p)) <= 1e-9

    def test_constrained_hamiltonian_step_solves_n_plus_m_unknowns(self):
        # q+ = dH/dp(q, p+) is substituted, so the matrix is 4x4 for n = 3,
        # m = 1, and the run record keeps its dH/dp block C next to it
        system = nonholonomic_hamiltonian()
        q, p = np.array([0.0, 0.5, 0.0]), np.array([1.0, 0.2, 0.3])
        run = stepper._Run()
        first = step_hamiltonian(system, q, p, _run=run)
        assert run.cache[0].shape == (4, 4)
        assert run.dhdp.shape == (3, 3)
        assert first.jacobian_assemblies == 1
        assert isinstance(first, stepper.StepDiagnostics)


class TestPredictorHistory:
    """A run records its solved unknowns in its run record once a step needs a
    second Newton iteration, and from then on starts each step at the
    extrapolation of that history or at the previous unknown, whichever lay
    closer to the solution of the step before."""

    def test_extrapolation_cuts_newton_iterations_on_a_nonlinear_hamiltonian(self):
        # starting every step at the carried momentum took 153 iterations;
        # the quadratic start takes 114
        system = quartic_hamiltonian(20, 0.05)
        seed = (np.full(20, 0.2), np.full(20, 0.1))
        extrapolated = run_trajectory(system, seed, 40)
        assert extrapolated.total_iterations <= 114
        assert extrapolated.max_inclusion_residual <= 10.0 * SolverOptions().tol

    def test_stiff_run_falls_back_to_the_previous_unknown(self):
        # extrapolating at every step took 42 iterations and 64.0
        # H-evaluations per step, starting at the carried momentum 37 and
        # 53.1; the observed choice takes 37 and 56.5
        n, h, steps = 4, 0.25, 12
        calls = []

        def hd(q, pp):
            calls.append(None)
            return float(q @ pp + h * (0.5 * pp @ pp + 0.25 * np.sum(pp ** 4)
                                       + np.sum(np.cos(q))))

        system = DiscreteSystem.from_hamiltonian(DiscreteHamiltonian(n, hd))
        seed = (np.linspace(0.1, 0.4, n), np.linspace(0.5, 1.0, n))
        traj = run_trajectory(system, seed, steps)
        assert traj.total_iterations <= 37
        assert len(calls) / steps < 64.0
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol

    def test_nonlinear_constrained_lagrangian_takes_no_more_iterations(self):
        # 540 iterations on the constant-velocity predictor with CONTRACTION
        # 0.5; the history and CONTRACTION 0.1 take 312
        system, x0 = sphere_quartic_seed()
        traj = run_trajectory(system, x0, 60)
        assert traj.total_iterations <= 540
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol

    def test_linear_lane_never_switches_on(self):
        # every oscillator step converges in at most one iteration, so the
        # run keeps the carried-momentum start and its bits
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        default = run_trajectory(system, ([0.0], [1.0]), 300)
        assert max(default.diagnostics.iterations) <= 1
        run = stepper._Run()
        step_hamiltonian(system, np.array([0.0]), np.array([1.0]), _run=run)
        assert run.history is None

    def test_history_starts_at_the_first_nonlinear_step(self):
        system = quartic_hamiltonian(4, H)
        q, p = np.full(4, 0.2), np.full(4, 0.1)
        run = stepper._Run()
        first = step_hamiltonian(system, q, p, _run=run)
        assert first.iterations > 1
        y, previous = run.history
        assert np.array_equal(y, first.p_next) and np.array_equal(previous, p)
        second = step_hamiltonian(system, first.next.qplus, first.p_next, _run=run)
        assert len(run.history) == 3
        third = step_hamiltonian(system, second.next.qplus, second.p_next, _run=run)
        assert len(run.history) == 3 and np.array_equal(run.history[0], third.p_next)

    def test_each_step_keeps_the_start_that_lay_closer(self):
        system = quartic_hamiltonian(4, H)
        run = stepper._Run()
        first = step_hamiltonian(system, np.full(4, 0.2), np.full(4, 0.1), _run=run)
        assert run.extrapolate is True  # the step that switches the history on
        for held in (True, False):
            run.extrapolate = held
            y1, y0 = run.history[:2]
            ex = stepper._extrapolated(run.history)
            step = step_hamiltonian(system, first.next.qplus, first.p_next, _run=run)
            y = step.p_next
            assert run.extrapolate == (np.max(np.abs(y - ex)) <= np.max(np.abs(y - y1)))
            run.history = (y1, y0)


class TestRunRecord:
    """A run hands its record, ``_Run``, to the module-level step functions."""

    @pytest.mark.parametrize("lagrangian", [True, False], ids=["lagrangian", "hamiltonian"])
    def test_every_step_of_a_run_gets_its_one_record(self, monkeypatch, lagrangian):
        name = "step_lagrangian" if lagrangian else "step_hamiltonian"
        step, runs = getattr(stepper, name), []

        def counted(*args, **kwargs):
            runs.append(kwargs["_run"])
            return step(*args, **kwargs)

        monkeypatch.setattr(stepper, name, counted)
        if lagrangian:
            traj = run_trajectory(*oscillator_seed(), 7)
        else:
            traj = run_trajectory(builtin.harmonic_oscillator_hamiltonian(H, LAM),
                                  ([0.0], [1.0]), 7)
        assert len(runs) == traj.steps == 7
        assert all(run is runs[0] for run in runs)  # one record for the whole run

    def test_step_functions_take_only_the_run_record_privately(self):
        for fn in (step_lagrangian, step_hamiltonian):
            params = inspect.signature(fn).parameters
            assert "jacobian_cache" not in params
            assert [name for name in params if name.startswith("_")] == ["_run"]
            assert params["_run"].kind is inspect.Parameter.KEYWORD_ONLY


class TestOnePath:
    """A direct step call is the first step of a fresh run: it gives the same
    bits as ``run_trajectory`` does for its step 0."""

    @pytest.mark.parametrize("make", [sphere_quartic_seed, lambda: quartic_lagrangian_seed(4)],
                             ids=["sphere-quartic", "quartic-4"])
    def test_direct_lagrangian_step_is_a_runs_first(self, make):
        system, x0 = make()
        direct = step_lagrangian(system, x0)
        # step 0's p_next is the momentum that step 1 carries
        traj = run_trajectory(system, x0, 2)
        self.assert_same_step(direct, traj, traj.curve[1], traj.curve[2].p)

    @pytest.mark.parametrize("make", [
        lambda: (quartic_hamiltonian(4, H), (np.full(4, 0.2), np.full(4, 0.1))),
        lambda: (nonholonomic_hamiltonian(), ([0.0, 0.5, 0.0], [1.0, 0.2, 0.3])),
    ], ids=["quartic-4", "nonholonomic"])
    def test_direct_hamiltonian_step_is_a_runs_first(self, make):
        system, (q0, p0) = make()
        direct = step_hamiltonian(system, q0, p0)
        traj = run_trajectory(system, (q0, p0), 1)
        self.assert_same_step(direct, traj, traj.curve[0], traj.final_state[1])

    @staticmethod
    def assert_same_step(direct, traj, point, p_next):
        for u, v in ((direct.next.q, point.q), (direct.next.p, point.p),
                     (direct.next.qplus, point.qplus), (direct.p_next, p_next),
                     (direct.multipliers, traj.diagnostics.multipliers[0])):
            assert u.shape == v.shape and np.array_equal(u, v)
        d = traj.diagnostics[0]
        assert (direct.residual, direct.inclusion_residual, direct.constraint_residual,
                direct.iterations, direct.jacobian_assemblies) \
            == (d.residual, d.inclusion_residual, d.constraint_residual,
                d.iterations, d.jacobian_assemblies)

    def test_step_signatures(self):
        assert list(inspect.signature(step_lagrangian).parameters) \
            == ["system", "x", "opts", "_run"]
        assert list(inspect.signature(step_hamiltonian).parameters) \
            == ["system", "q", "p", "opts", "_run"]


class TestInitialData:
    def test_consistent_oscillator_seed(self):
        system, x0 = oscillator_seed()
        assert check_initial_data(system, x0) == pytest.approx(0.0, abs=1e-15)
        # the magic combination, written out
        p0 = (0.1 - 0.0) / H + H * LAM * 0.0
        assert x0.p[0] == pytest.approx(p0)

    def test_linear_in_momentum_perturbation(self):
        system, x0 = oscillator_seed()
        for eps in (1e-6, 1e-3, 0.1):
            bumped = PontryaginPoint(x0.q, x0.p + eps, x0.qplus)
            assert check_initial_data(system, bumped) == pytest.approx(eps, rel=1e-12)

    def test_generic_unconstrained_consistency(self):
        rng = np.random.default_rng(21)
        lag = DiscreteLagrangian(3, lambda q, qp: float(np.sin(q) @ qp + 0.5 * qp @ qp))
        system = DiscreteSystem.from_lagrangian(lag)
        for _ in range(5):
            q0, q1 = rng.standard_normal(3), rng.standard_normal(3)
            x0 = PontryaginPoint(q0, -lag.d1(q0, q1), q1)
            assert check_initial_data(system, x0) < 1e-12

    def test_constrained_seed_ignores_annihilator_directions(self):
        system, x0 = nonholonomic_seed()
        a = system.dist.matrix(x0.q)
        shifted = PontryaginPoint(x0.q, x0.p + 0.37 * a[0], x0.qplus)
        assert check_initial_data(system, shifted) < 1e-14

    def test_hamiltonian_kind_rejected(self):
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        x = PontryaginPoint([0.0], [1.0], [0.1])
        with pytest.raises(UnsupportedOperationError):
            check_initial_data(system, x)

    def test_nan_initial_data_residual_warns(self):
        # d1 is NaN only at the seed's base point, so the seed residual is NaN
        # while every step solves at other points; a NaN must not pass the gate
        osc = builtin.harmonic_oscillator(H, LAM).lagrangian

        def d1(q, qp):
            return np.array([np.nan]) if q[0] == 0.25 else osc.d1(q, qp)

        lag = DiscreteLagrangian(1, osc.Ld, d1, osc.d2, validate=False)
        system = DiscreteSystem.from_lagrangian(lag)
        x0 = PontryaginPoint([0.25], [0.0], [0.3])
        assert np.isnan(check_initial_data(system, x0))
        with pytest.warns(RuntimeWarning, match="seed point is inconsistent"):
            traj = run_trajectory(system, x0, 5)
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol
        with pytest.warns(RuntimeWarning, match="seed point is inconsistent"):
            step_lagrangian(system, x0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [lambda: quartic_lagrangian_seed(4), sphere_quartic_seed],
                             ids=["quartic-4", "sphere-quartic"])
    def test_accepted_points_are_consistent_seeds(self, make):
        # the seed check is the certificate its step passed at 10 * tol, so a
        # run continued from any accepted point does not warn
        system, x0 = make()
        traj = run_trajectory(system, x0, 60)
        for k in range(1, 61):
            assert check_initial_data(system, traj.curve[k]) \
                == traj.diagnostics[k - 1].inclusion_residual
        last = traj.curve[-1]
        run_trajectory(system, last, 3)
        step_lagrangian(system, last)
        off = PontryaginPoint(last.q, last.p + 1e-6, last.qplus)
        with pytest.warns(RuntimeWarning, match="seed point is inconsistent"):
            run_trajectory(system, off, 3)

    def test_evaluates_each_slot_once(self, monkeypatch):
        # the certificate takes the held d1 L; the q+ block d2 L - d2 L it
        # skips is exactly zero, so the value is the full one bit for bit
        for make in (oscillator_seed, nonholonomic_seed, sphere_quartic_seed):
            system, x0 = make()
            lag = system.lagrangian
            points = (x0, PontryaginPoint(x0.q, x0.p + 1e-3, x0.qplus))
            full = [dirac_inclusion_residual(system, x, lag.d2(x.q, x.qplus)) for x in points]
            counts = TestEvaluationCounts.count(monkeypatch, system)
            for x, want in zip(points, full):
                counts.update(dict.fromkeys(counts, 0))
                assert check_initial_data(system, x) == want
                assert (counts["d1"], counts["d2"]) == (1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_carried_momentum_is_nan(self, monkeypatch, bad):
        osc = builtin.harmonic_oscillator(H, LAM).lagrangian
        lag = DiscreteLagrangian(1, osc.Ld, osc.d1, lambda q, qp: np.array([bad]),
                                 validate=False)
        system = DiscreteSystem.from_lagrangian(lag)
        counts = TestEvaluationCounts.count(monkeypatch, system)
        assert np.isnan(check_initial_data(system, PontryaginPoint([0.0], [-1.0], [0.1])))
        assert counts == {"d1": 1, "d2": 1}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_seed_momentum_fails_step_zero(self, monkeypatch):
        # d2 L is NaN only at the seed: the seed check names it instead of
        # warning and handing Newton a NaN residual
        osc = builtin.harmonic_oscillator(H, LAM).lagrangian

        def d2(q, qp):
            return np.array([np.nan]) if q[0] == 0.25 else osc.d2(q, qp)

        system = DiscreteSystem.from_lagrangian(
            DiscreteLagrangian(1, osc.Ld, osc.d1, d2, validate=False))
        x0 = PontryaginPoint([0.25], [0.0], [0.3])
        counts = TestEvaluationCounts.count(monkeypatch, system)
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, x0, 5)
        assert counts == {"d1": 1, "d2": 1}
        cause = info.value.__cause__
        assert isinstance(cause, EvaluationError)
        assert "d2 L is not finite at the seed" in str(cause)
        assert info.value.step_index == 0
        partial = info.value.trajectory
        assert partial.steps == 0 and len(partial.curve) == 1
        assert np.array_equal(partial.curve[0].qplus, x0.qplus)
        with pytest.raises(EvaluationError, match="d2 L is not finite at the seed"):
            step_lagrangian(system, x0)

    def test_seed_pair_off_the_constraint_warns(self):
        system = builtin.nonholonomic_particle(H)
        q0 = np.array([0.0, 0.5, 0.0])
        q1 = q0 + H * np.array([1.0, 0.2, 0.5]) + np.array([0.0, 0.0, 1e-3])
        x0 = builtin.lagrangian_seed(system, q0, q1)
        assert check_initial_data(system, x0) == 0.0
        with pytest.warns(RuntimeWarning, match=r"discrete constraint residual 1\.000e-03"):
            traj = run_trajectory(system, x0, 3)
        assert traj.max_constraint_residual <= SolverOptions().tol


class TestLagrangianStep:
    def test_oscillator_known_values(self):
        system, x0 = oscillator_seed()
        result = step_lagrangian(system, x0)
        assert result.next.q[0] == pytest.approx(0.1, abs=1e-14)
        assert result.next.p[0] == pytest.approx(1.0, abs=1e-13)
        assert result.next.qplus[0] == pytest.approx(0.199, abs=1e-13)
        assert result.multipliers.shape == (0,)
        assert result.inclusion_residual <= 10.0 * SolverOptions().tol

    def test_admissibility_is_exact(self):
        system, x0 = oscillator_seed()
        result = step_lagrangian(system, x0)
        assert np.array_equal(result.next.q, x0.qplus)

    def test_free_particle_uniform_motion(self):
        system = builtin.free_particle(H, 2, [1.0, 3.0])
        rng = np.random.default_rng(22)
        for _ in range(10):
            q0, q1 = rng.standard_normal(2), rng.standard_normal(2)
            x = builtin.lagrangian_seed(system, q0, q1)
            result = step_lagrangian(system, x)
            assert np.allclose(result.next.qplus, 2.0 * q1 - q0, atol=1e-10)

    def test_nonholonomic_against_dense_root_finder(self):
        system, x0 = nonholonomic_seed()
        lag, dist, con = system.lagrangian, system.dist, system.constraint
        x = x0
        for _ in range(5):
            result = step_lagrangian(system, x)
            q1 = x.qplus
            p1 = lag.d2(x.q, x.qplus)
            a1 = dist.matrix(q1)

            def kkt(z):
                qnew, lam = z[:3], z[3:]
                return np.concatenate([p1 + lag.d1(q1, qnew) - a1.T @ lam,
                                       con.value(q1, qnew)])

            guess = np.concatenate([q1, np.zeros(1)])  # different start than the stepper
            sol = root(kkt, guess)
            assert np.max(np.abs(kkt(sol.x))) < 1e-10
            assert np.allclose(result.next.qplus, sol.x[:3], atol=1e-10)
            assert np.max(np.abs(con.value(q1, result.next.qplus))) < 1e-10
            # force balance lies in the row span of A
            g = p1 + lag.d1(q1, result.next.qplus)
            coeffs, *_ = np.linalg.lstsq(a1.T, g, rcond=None)
            assert np.linalg.norm(g - a1.T @ coeffs) < 1e-9
            x = result.next

    def test_cross_check_accepts_assembled_jacobians(self, recwarn):
        # assembled block Jacobians agree with a full finite-difference one
        for system, x in (oscillator_seed(), nonholonomic_seed()):
            step_lagrangian(system, x, SolverOptions(cross_check=True))
        ham = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        step_hamiltonian(ham, [0.2], [0.8], SolverOptions(cross_check=True))
        assert not [w for w in recwarn.list if "deviates" in str(w.message)]

    def test_inconsistent_seed_warns_but_steps(self):
        system, x0 = oscillator_seed()
        bad = PontryaginPoint(x0.q, x0.p + 0.5, x0.qplus)
        with pytest.warns(RuntimeWarning, match="inconsistent"):
            result = step_lagrangian(system, bad)
        # the solved step is driven by d2(q0, q1), not by the seed momentum
        assert result.next.qplus[0] == pytest.approx(0.199, abs=1e-12)

    def test_regularity_warning_on_degenerate_cross_block(self):
        # L(q, q+) = |q|^2 + |q+|^2 has D2 D1 L = 0: force balance does not
        # depend on the new configuration; the seed is consistent, p0 = -2 q0
        lag = DiscreteLagrangian(2, lambda q, qp: float(q @ q + qp @ qp))
        system = DiscreteSystem.from_lagrangian(lag)
        x = PontryaginPoint([0.1, 0.2], [-0.2, -0.4], [0.2, 0.3])
        with pytest.warns(RuntimeWarning, match="cross-derivative block of the Lagrangian"):
            with pytest.raises(SingularJacobianError):
                step_lagrangian(system, x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("block, warns", [([[0.0]], True), ([[1e-300]], False),
                                              ([[np.nan]], False)],
                             ids=["zero", "tiny", "nan"])
    def test_one_by_one_cross_blocks(self, block, warns):
        # np.linalg.cond serves 1 x 1 blocks too; a non-finite block is left
        # to the Newton solve, which reports it as singular
        if warns:
            with pytest.warns(RuntimeWarning, match="cross-derivative block of the Lagrangian"):
                stepper._check_regularity(np.array(block), "lagrangian")
        else:
            stepper._check_regularity(np.array(block), "lagrangian")

    def test_overflowing_one_by_one_step_reports_its_condition(self):
        with pytest.raises(SingularJacobianError) as info:
            stepper._newton_step(np.array([[1e-300]]), np.array([1e300]))
        assert info.value.condition == 1.0
        with pytest.raises(SingularJacobianError) as info:
            stepper._newton_step(np.array([[0.0]]), np.array([1.0]))
        assert info.value.condition == np.inf

    def test_non_finite_momentum_update_fails_the_step(self):
        # d2 L is finite at the seed but NaN at the solved configuration: the
        # certificate reads p_next - d2 L as zero by construction, so a
        # non-finite p_next has to fail the step before it
        def d2(q, qp):
            return np.array([np.nan]) if qp[0] > 0.15 else (qp - q) / H

        lag = DiscreteLagrangian(1, lambda q, qp: float((qp - q) @ (qp - q)) / (2.0 * H),
                                 d1=lambda q, qp: -(qp - q) / H, d2=d2, validate=False)
        system = DiscreteSystem.from_lagrangian(lag)
        x0 = PontryaginPoint([0.0], [1.0], [0.1])
        with pytest.raises(EvaluationError, match="momentum update d2 L is not finite"):
            step_lagrangian(system, x0)
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, x0, 3)
        assert isinstance(info.value.__cause__, EvaluationError)
        assert info.value.step_index == 0

    def test_wrong_kind_rejected(self):
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        with pytest.raises(UnsupportedOperationError):
            step_lagrangian(system, PontryaginPoint([0.0], [1.0], [0.1]))

    def test_oracle_equivalence_random_lagrangians(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            n = int(rng.integers(1, 4))
            system, x0 = _random_smooth_system(rng, n)
            lag = system.lagrangian
            x = x0
            for _ in range(5):
                result = step_lagrangian(system, x)
                q1 = x.qplus
                p1 = lag.d2(x.q, x.qplus)
                sol = root(lambda qn: p1 + lag.d1(q1, qn), q1)
                assert np.max(np.abs(p1 + lag.d1(q1, sol.x))) < 1e-10
                assert np.allclose(result.next.qplus, sol.x, atol=1e-10)
                x = result.next


def _random_smooth_system(rng, n):
    """Random quadratic plus small cubic perturbation, gradients by FD.

    The cross block stays near the identity and the diagonal blocks small, so
    the two-step recursion is near the free particle and the cubic term never
    leaves its basin over a short run.
    """
    dim = 2 * n
    a = 0.05 * rng.standard_normal((n, n))
    c = 0.05 * rng.standard_normal((n, n))
    cross = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    s = np.block([[0.5 * (a + a.T), cross], [cross.T, 0.5 * (c + c.T)]])
    t = 0.5 * rng.standard_normal((3, dim))
    eps = 0.01

    def Ld(q, qp):
        xi = np.concatenate([q, qp])
        return float(0.5 * xi @ s @ xi + eps * np.sum((t @ xi) ** 3))

    lag = DiscreteLagrangian(n, Ld)
    system = DiscreteSystem.from_lagrangian(lag)
    q0 = 0.05 * rng.standard_normal(n)
    q1 = q0 + 0.02 * rng.standard_normal(n)
    return system, builtin.lagrangian_seed(system, q0, q1)


class TestLegendrePair:
    """The nonholonomic particle steps to one curve on both sides: the
    Lagrangian L(q, q+) = |q+ - q|^2 / 2h and its right Hamiltonian, under
    one distribution and pair constraint."""

    def test_nonholonomic_particle_steps_to_one_curve(self):
        lag_system, x0 = nonholonomic_seed()
        lag = run_trajectory(lag_system, x0, 500)
        ham = run_trajectory(nonholonomic_hamiltonian(), (x0.q, x0.p), 501)
        for name, bound in (("q", 4e-9), ("p", 1e-10), ("qplus", 4e-9)):
            gap = max(np.max(np.abs(getattr(a, name) - getattr(b, name)))
                      for a, b in zip(lag.curve, ham.curve))
            assert gap <= bound, (name, gap)
        # Lagrangian step k solves at base q_{k+1}, as Hamiltonian step k + 1 does
        gap = np.max(np.abs(lag.diagnostics.multipliers - ham.diagnostics.multipliers[1:]))
        assert gap <= 1e-12


class TestHamiltonianStep:
    def test_oscillator_symplectic_euler_form(self):
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        rng = np.random.default_rng(24)
        for _ in range(10):
            q, p = rng.standard_normal(), rng.standard_normal()
            result = step_hamiltonian(system, [q], [p])
            p1 = p - H * LAM * q
            q1 = q + H * p1
            assert result.p_next[0] == pytest.approx(p1, abs=1e-9)
            assert result.next.qplus[0] == pytest.approx(q1, abs=1e-9)
            assert np.array_equal(result.next.q, [q])
            assert np.array_equal(result.next.p, [p])

    def test_unconstrained_update_is_evaluated_at_the_root(self):
        # Newton solves momentum balance alone; q+ is dH/dp at the root exactly
        system = quartic_hamiltonian(3, H)
        rng = np.random.default_rng(8)
        q, p = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
        result = step_hamiltonian(system, q, p)
        ham = system.hamiltonian
        assert np.array_equal(result.next.qplus, ham.dp(q, result.p_next))
        assert np.max(np.abs(p - ham.dq(q, result.p_next))) <= SolverOptions().tol
        assert result.multipliers.shape == (0,)

    def test_non_finite_configuration_update_fails_the_step(self):
        ham = DiscreteHamiltonian(1, lambda q, pp: float(q @ pp + 0.05 * pp @ pp),
                                  dq=lambda q, pp: pp.copy(),
                                  dp=lambda q, pp: np.full(1, np.nan), validate=False)
        system = DiscreteSystem.from_hamiltonian(ham)
        with pytest.raises(EvaluationError, match="not finite"):
            step_hamiltonian(system, [0.1], [1.0])
        with pytest.raises(StepFailureError):
            run_trajectory(system, ([0.1], [1.0]), 3)

    def test_zero_hamiltonian_collapse(self):
        # the degenerate cross block also fires the regularity warning
        ham = DiscreteHamiltonian(1, lambda q, pp: 0.0,
                                  dq=lambda q, pp: np.zeros(1), dp=lambda q, pp: np.zeros(1))
        system = DiscreteSystem.from_hamiltonian(ham)
        with pytest.warns(RuntimeWarning, match="cross-derivative"):
            result = step_hamiltonian(system, [0.4], [0.0])
        assert result.p_next[0] == 0.0
        assert result.next.qplus[0] == 0.0

    def test_zero_hamiltonian_with_momentum_is_singular(self):
        ham = DiscreteHamiltonian(1, lambda q, pp: 0.0,
                                  dq=lambda q, pp: np.zeros(1), dp=lambda q, pp: np.zeros(1))
        system = DiscreteSystem.from_hamiltonian(ham)
        with pytest.warns(RuntimeWarning, match="cross-derivative"):
            with pytest.raises(SingularJacobianError):
                step_hamiltonian(system, [0.4], [0.7])

    def test_free_particle_drift(self):
        system = builtin.free_particle_hamiltonian(H, 2, [1.0, 2.0])
        q = np.array([0.3, -0.2])
        p = np.array([1.0, 4.0])
        result = step_hamiltonian(system, q, p)
        assert np.allclose(result.p_next, p, atol=1e-12)
        assert np.allclose(result.next.qplus, q + H * p / np.array([1.0, 2.0]), atol=1e-12)

    def test_constrained_hamiltonian_against_dense_root_finder(self):
        system = nonholonomic_hamiltonian()
        ham, con, dist = system.hamiltonian, system.constraint, system.dist
        q = np.array([0.0, 0.5, 0.0])
        p = np.array([1.0, 0.2, 0.3])
        for _ in range(5):
            result = step_hamiltonian(system, q, p)
            a = dist.matrix(q)

            def full_system(z, q=q, p=p, a=a):
                pnew, qnew, lam = z[:3], z[3:6], z[6:]
                return np.concatenate([p - ham.dq(q, pnew) - a.T @ lam,
                                       qnew - ham.dp(q, pnew),
                                       con.value(q, qnew)])

            sol = root(full_system, np.concatenate([p, q, np.zeros(1)]))
            assert np.max(np.abs(full_system(sol.x))) < 1e-10
            assert np.allclose(result.p_next, sol.x[:3], atol=1e-9)
            assert np.allclose(result.next.qplus, sol.x[3:6], atol=1e-9)
            assert np.max(np.abs(con.value(q, result.next.qplus))) < 1e-10
            assert result.inclusion_residual <= 1e-9
            assert result.multipliers.shape == (1,)
            q, p = result.next.qplus, result.p_next

    def test_regularity_warning_on_near_singular_cross_block(self):
        def Hd(q, pp):
            return float(q[0] * pp[0] + 1e-15 * q[1] * pp[1])

        ham = DiscreteHamiltonian(2, Hd,
                                  dq=lambda q, pp: np.array([pp[0], 1e-15 * pp[1]]),
                                  dp=lambda q, pp: np.array([q[0], 1e-15 * q[1]]))
        system = DiscreteSystem.from_hamiltonian(ham)
        with pytest.warns(RuntimeWarning, match="cross-derivative"):
            step_hamiltonian(system, [0.1, 0.2], [0.3, 0.0])

    def test_wrong_kind_rejected(self):
        system, _ = oscillator_seed()
        with pytest.raises(UnsupportedOperationError):
            step_hamiltonian(system, [0.0], [1.0])

    def test_returned_point_does_not_alias_the_inputs(self):
        for system in (builtin.harmonic_oscillator_hamiltonian(H, LAM), nonholonomic_hamiltonian()):
            n = system.n
            q, p = np.linspace(0.1, 0.3, n), np.linspace(1.0, 0.5, n)
            result = step_hamiltonian(system, q, p)
            pt = result.next
            assert not (np.shares_memory(pt.q, q) or np.shares_memory(pt.p, p))
            before = pt.q.copy(), pt.p.copy()
            q += 1.0
            p += 1.0
            assert np.array_equal(pt.q, before[0]) and np.array_equal(pt.p, before[1])
            assert pt.q.flags.writeable and pt.p.flags.writeable


class TestRunTrajectory:
    def test_oscillator_one_step_curve(self):
        system, x0 = oscillator_seed()
        traj = run_trajectory(system, x0, 1)
        assert len(traj.curve) == 2
        assert traj.curve[0].q[0] == 0.0
        assert traj.curve[1].q[0] == pytest.approx(0.1, abs=1e-14)
        assert traj.curve[1].p[0] == pytest.approx(1.0, abs=1e-13)
        assert traj.curve[1].qplus[0] == pytest.approx(0.199, abs=1e-13)
        assert len(traj.diagnostics) == 1

    def test_zero_steps_returns_seed_only(self):
        system, x0 = oscillator_seed()
        traj = run_trajectory(system, x0, 0)
        assert len(traj.curve) == 1
        assert traj.diagnostics == ()

    def test_diagnostics_compare_by_value(self):
        system, x0 = nonholonomic_seed()
        traj = run_trajectory(system, x0, 3)
        records = tuple(traj.diagnostics)
        assert traj.diagnostics == records
        assert traj.diagnostics == run_trajectory(system, x0, 3).diagnostics
        assert traj.diagnostics != records[:2]
        assert traj.diagnostics != records[:2] + (
            dataclasses.replace(records[2], iterations=records[2].iterations + 1),)
        assert traj.diagnostics[1:] == records[1:]

    def test_structural_admissibility(self):
        system, x0 = oscillator_seed()
        traj = run_trajectory(system, x0, 25)
        assert check_admissibility(traj.curve, 0.0) is None

    def test_negative_steps_rejected(self):
        system, x0 = oscillator_seed()
        with pytest.raises(ValueError):
            run_trajectory(system, x0, -1)

    @pytest.mark.parametrize("steps", [2.5, True, None, np.nan, "3", -1])
    def test_non_integer_steps_rejected_by_name(self, steps):
        # numpy would fail on 2.5 with its own TypeError, True would fail in
        # the diagnostics columns and None in the comparison
        system, x0 = oscillator_seed()
        with pytest.raises(ValueError, match="steps"):
            run_trajectory(system, x0, steps)

    def test_numpy_integer_steps_accepted(self):
        system, x0 = oscillator_seed()
        traj = run_trajectory(system, x0, np.int64(3))
        assert type(traj.steps) is int and traj.total_iterations == 3

    def test_hamiltonian_needs_a_step(self):
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        with pytest.raises(ValueError):
            run_trajectory(system, ([0.0], [1.0]), 0)

    def test_hamiltonian_seed_is_validated_and_copied_up_front(self):
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        with pytest.raises(DimensionMismatchError):
            run_trajectory(system, ([0.0, 1.0], [1.0]), 3)
        with pytest.raises(ValueError, match="finite"):
            run_trajectory(system, ([0.0], [np.nan]), 3)
        q0, p0 = np.array([0.0]), np.array([1.0])
        traj = run_trajectory(system, (q0, p0), 3)
        q0[0], p0[0] = 5.0, 5.0
        assert traj.curve[0].q[0] == 0.0 and traj.curve[0].p[0] == 1.0
        assert traj.curve[0].p.flags.writeable
        # each point's q is the previous point's q+ itself, not a copy
        assert all(a.qplus is b.q for a, b in zip(traj.curve, traj.curve[1:]))

    def test_hamiltonian_run_records_final_state(self):
        system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        traj = run_trajectory(system, ([0.0], [1.0]), 3)
        assert len(traj.curve) == 3
        assert traj.final_state is not None
        q, p = traj.final_state
        assert traj.curve[2].qplus[0] == q[0]
        assert check_admissibility(traj.curve, 0.0) is None

    def test_lagrangian_hamiltonian_consistency(self):
        lag_system, x0 = oscillator_seed()
        ham_system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        steps = 100
        lag_traj = run_trajectory(lag_system, x0, steps)
        ham_traj = run_trajectory(ham_system, ([0.0], [1.0]), steps)
        for k in range(steps):
            assert ham_traj.curve[k].q[0] == pytest.approx(lag_traj.curve[k].q[0], abs=1e-9)
            assert ham_traj.curve[k].p[0] == pytest.approx(lag_traj.curve[k].p[0], abs=1e-9)

    def test_every_step_is_certified(self):
        system, x0 = nonholonomic_seed()
        traj = run_trajectory(system, x0, 50)
        assert traj.max_inclusion_residual <= 1e-9
        for d in traj.diagnostics:
            assert dirac_inclusion_residual is not None
            assert d.inclusion_residual <= 1e-9
            assert d.constraint_residual <= 1e-10
            assert d.multipliers.shape == (1,)

    def test_hamiltonian_step_failure_keeps_completed_points(self):
        def dq(q, pp):
            if abs(q[0]) > 0.25:
                raise RuntimeError("field blew up")
            return pp.copy()

        ham = DiscreteHamiltonian(1, lambda q, pp: float(q @ pp + 0.05 * pp @ pp),
                                  dq=dq, dp=lambda q, pp: q + 0.1 * pp, validate=False)
        system = DiscreteSystem.from_hamiltonian(ham)
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, ([0.0], [1.0]), 10)
        err = info.value
        assert err.step_index == 3  # q reaches 0.3 after three good steps
        assert err.trajectory is not None
        assert len(err.trajectory.curve) == 3
        q, p = err.trajectory.final_state
        assert q[0] == pytest.approx(0.3, abs=1e-12)

    def test_step_failure_carries_partial_trajectory(self):
        def d1(q, qp):
            if abs(qp[0]) > 0.35:
                raise RuntimeError("out of range")
            return -(qp - q) / H

        lag = DiscreteLagrangian(1, lambda q, qp: float((qp - q) @ (qp - q)) / (2.0 * H),
                                 d1=d1, d2=lambda q, qp: (qp - q) / H, validate=False)
        system = DiscreteSystem.from_lagrangian(lag)
        x0 = PontryaginPoint([0.0], [1.0], [0.1])
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, x0, 10)
        err = info.value
        assert err.step_index == 2
        assert err.trajectory is not None
        assert len(err.trajectory.curve) == 3  # seed plus two good steps
        assert err.trajectory.curve[2].qplus[0] == pytest.approx(0.3, abs=1e-12)

    def test_analytic_gradient_of_the_wrong_length_fails_the_step(self):
        # d1 drops an entry of its n = 2 result past q+ = 0.25: p + d1 would
        # broadcast silently
        def ld(q, qp):
            return float((qp - q) @ (qp - q)) / (2.0 * H)

        def d1(q, qp):
            g = -(qp - q) / H
            return g[:1] if qp[0] > 0.25 else g

        with pytest.raises(DimensionMismatchError, match="analytic gradient for block 0"):
            DiscreteLagrangian(2, ld, d1=lambda q, qp: -(qp[:1] - q[:1]) / H)
        lag = DiscreteLagrangian(2, ld, d1=d1, validate=False)
        system = DiscreteSystem.from_lagrangian(lag)
        x0 = PontryaginPoint([0.0, 0.0], [1.0, 1.0], [0.1, 0.1])
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, x0, 5)
        err = info.value
        assert isinstance(err.__cause__, DimensionMismatchError)
        assert err.step_index == 1  # the predictor of step 1 is q+ = 0.3
        assert len(err.trajectory.curve) == 2  # seed plus one certified step
        # short at the seed already, it fails the seed check before any step
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, PontryaginPoint([0.3, 0.0], [1.0, 1.0], [0.4, 0.1]), 5)
        assert isinstance(info.value.__cause__, DimensionMismatchError)
        assert info.value.step_index == 0

    def test_raising_annihilator_fails_the_step(self):
        # A(q) is evaluated once per base point: q0 (the seed check), then
        # the base point q_{k+1} of step k, so the fourth evaluation is step 2's
        calls = []

        def annihilator(q):
            calls.append(q)
            if len(calls) == 4:
                raise RuntimeError("chart singularity")
            return np.array([[-q[1], 0.0, 1.0]])

        free = builtin.free_particle_lagrangian(H, 3)
        dist = KinematicDistribution(3, 1, annihilator)
        system = DiscreteSystem.from_lagrangian(free, dist, retraction_constraint(dist))
        q0 = np.array([0.0, 0.5, 0.0])
        x0 = builtin.lagrangian_seed(system, q0, q0 + H * np.array([1.0, 0.2, 0.5]))
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, x0, 5)
        err = info.value
        assert isinstance(err.__cause__, EvaluationError)
        assert isinstance(err.__cause__.__cause__, RuntimeError)
        assert err.step_index == 2
        assert err.trajectory.steps == 2
        assert err.trajectory.max_inclusion_residual <= 10.0 * SolverOptions().tol
        assert len(err.trajectory.curve) == 3  # seed plus two certified steps
        # raising on its first call, at the seed check, it fails step 0
        def raising(q):
            raise RuntimeError("chart singularity")

        dist = KinematicDistribution(3, 1, raising)
        system = DiscreteSystem.from_lagrangian(free, dist, retraction_constraint(dist))
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, x0, 5)
        err = info.value
        assert isinstance(err.__cause__, EvaluationError)
        assert isinstance(err.__cause__.__cause__, RuntimeError)
        assert err.step_index == 0
        assert err.trajectory.steps == 0
        assert len(err.trajectory.curve) == 1  # the seed only

    def test_nan_residual_fails_the_step(self):
        # sqrt(1 - q) is NaN once q passes 1: the step that leaves the domain
        # must fail, not be accepted and certified with a NaN residual
        lag = DiscreteLagrangian(
            1, lambda q, qp: H * (0.5 * ((qp[0] - q[0]) / H) ** 2 - np.sqrt(1.0 - q[0])))
        system = DiscreteSystem.from_lagrangian(lag)
        q0, q1 = np.array([0.5]), np.array([0.6])
        x0 = PontryaginPoint(q0, -lag.d1(q0, q1), q1)
        with np.errstate(invalid="ignore"), pytest.raises(StepFailureError) as info:
            run_trajectory(system, x0, 20)
        err = info.value
        assert isinstance(err.__cause__, ConvergenceError)
        assert err.step_index == 4
        partial = err.trajectory
        assert partial.steps == 4
        assert partial.curve[-1].qplus[0] > 1.0  # the next step starts outside the domain
        for pt in partial.curve:
            assert np.isfinite(np.concatenate([pt.q, pt.p, pt.qplus])).all()
        assert np.isfinite(partial.max_residual)
        assert partial.max_inclusion_residual <= 10.0 * SolverOptions().tol

    def test_round_off_floor_is_named(self):
        # amplitude 1e6 puts one ulp of the solved configuration at about
        # 1e-9 in momentum units, so tol = 1e-10 cannot be reached
        oscillator = builtin.harmonic_oscillator(H, LAM)
        nh = builtin.nonholonomic_particle(H)
        q0 = np.array([1e6, 0.5, 0.2])
        v = np.array([1e4, 0.3, 5e3])  # satisfies A(q0) v = 0
        cases = ((oscillator, builtin.lagrangian_seed(oscillator, [1e6], [1e6 + 1e4]), 3),
                 (nh, builtin.lagrangian_seed(nh, q0, q0 + H * v), 0))
        for system, seed, failing in cases:
            with pytest.raises(StepFailureError) as info:
                run_trajectory(system, seed, 10)
            assert info.value.step_index == failing
            cause = info.value.__cause__
            assert isinstance(cause, ConvergenceError)
            match = re.search(r"below the round-off floor.*eps\*\|\|J\|\|\*\|\|x\|\| = (\S+)",
                              str(cause))
            assert match is not None, str(cause)
            floor = float(match.group(1))
            assert SolverOptions().tol < cause.residual <= ROUNDOFF_MARGIN * floor
            partial = info.value.trajectory
            assert partial.steps == failing
            assert partial.max_inclusion_residual <= 10.0 * SolverOptions().tol

    def test_finite_difference_noise_floor_is_named(self):
        # a constant offset of 1e3 in H lifts the central-difference noise in
        # dH/dq to about FD_SCALE**2 * 1e3 = 3.7e-8, far above tol = 1e-10
        nh = nonholonomic_hamiltonian()
        hd = nh.hamiltonian.Hd
        system = DiscreteSystem.from_hamiltonian(
            DiscreteHamiltonian(3, lambda q, pp: hd(q, pp) + 1e3), nh.dist, nh.constraint)
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, ([0.0, 0.5, 0.0], [1.0, 0.2, 0.3]), 10)
        assert info.value.step_index == 0
        cause = info.value.__cause__
        assert isinstance(cause, ConvergenceError)
        match = re.search(r"noise floor of FD_SCALE\*\*2\*\|L or H\| = (\S+) at this iterate, "
                          r"which analytic partials, or a larger tol, remove", str(cause))
        assert match is not None, str(cause)
        floor = float(match.group(1))
        assert floor == pytest.approx(systems.FD_SCALE ** 2 * 1e3, rel=0.01)
        assert SolverOptions().tol < cause.residual <= ROUNDOFF_MARGIN * floor
        # analytic partials of the same H have no such floor
        analytic = DiscreteSystem.from_hamiltonian(
            DiscreteHamiltonian(3, lambda q, pp: hd(q, pp) + 1e3, nh.hamiltonian.dq,
                                nh.hamiltonian.dp), nh.dist, nh.constraint)
        traj = run_trajectory(analytic, ([0.0, 0.5, 0.0], [1.0, 0.2, 0.3]), 10)
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol

    def test_max_aggregates_propagate_nan(self):
        import dataclasses

        system, x0 = oscillator_seed()
        traj = run_trajectory(system, x0, 3)
        diags = list(traj.diagnostics)
        diags[1] = dataclasses.replace(diags[1], residual=np.nan, inclusion_residual=np.nan,
                                       constraint_residual=np.nan)
        for order in (diags, diags[::-1]):
            bad = dataclasses.replace(traj, diagnostics=tuple(order))
            assert np.isnan(bad.max_residual)
            assert np.isnan(bad.max_inclusion_residual)
            assert np.isnan(bad.max_constraint_residual)

    def test_long_run_boundedness(self):
        system, x0 = oscillator_seed()
        traj = run_trajectory(system, x0, 2000)
        amplitude = np.sqrt(0.0 ** 2 + 1.0 ** 2 / LAM)  # energy-based bound
        qs = np.array([pt.q[0] for pt in traj.curve])
        assert np.max(np.abs(qs)) <= 2.0 * amplitude

    def test_oscillator_matches_exact_discrete_solution(self):
        # the update q_{k+1} = (2 - h^2 lam) q_k - q_{k-1} has the closed form
        # q_k = (q1 / sin(theta)) sin(k theta) with cos(theta) = 1 - h^2 lam / 2
        # when q0 = 0; cumulative roundoff stays near machine scale per step
        system, x0 = oscillator_seed()
        steps = 500
        traj = run_trajectory(system, x0, steps)
        theta = np.arccos(1.0 - 0.5 * H * H * LAM)
        amp = 0.1 / np.sin(theta)
        for k in range(steps + 1):
            exact = amp * np.sin(k * theta)
            assert abs(traj.curve[k].q[0] - exact) < 5e-11 * (k + 1)

    def test_trajectory_metadata(self):
        system, x0 = oscillator_seed()
        opts = SolverOptions(tol=1e-11)
        traj = run_trajectory(system, x0, 4, opts)
        assert traj.system_label == "harmonic_oscillator"
        assert traj.steps == 4
        assert traj.options.tol == 1e-11

    def test_stepping_never_mutates_existing_points(self):
        # result points may alias the previous point's arrays, so any
        # mutation inside the steppers would corrupt history
        system, x0 = nonholonomic_seed()
        before = (x0.q.copy(), x0.p.copy(), x0.qplus.copy())
        traj = run_trajectory(system, x0, 10)
        snapshots = [(pt.q.copy(), pt.p.copy(), pt.qplus.copy()) for pt in traj.curve]
        run_trajectory(system, traj.curve[-1], 10)
        assert all(np.array_equal(a, b) for a, b in zip(before,
                                                        (x0.q, x0.p, x0.qplus)))
        for pt, snap in zip(traj.curve, snapshots):
            assert np.array_equal(pt.q, snap[0])
            assert np.array_equal(pt.p, snap[1])
            assert np.array_equal(pt.qplus, snap[2])

    def test_concurrent_trajectories_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        system, x0 = nonholonomic_seed()
        serial = run_trajectory(system, x0, 40)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_trajectory, system, x0, 40) for _ in range(4)]
            for future in futures:
                traj = future.result()
                for a, b in zip(traj.curve, serial.curve):
                    assert np.array_equal(a.q, b.q)
                    assert np.array_equal(a.qplus, b.qplus)


class TestCertificateGate:
    """An accepted Newton root whose inclusion residual is above 10 * tol, or
    NaN, fails the step with the residual it got."""

    @pytest.fixture(params=[11.0, np.nan], ids=["above-gate", "nan"])
    def gated(self, request, monkeypatch):
        """Patch the certificate to report the parameter times tol on each call
        after the first ``start``; ``install`` returns that value."""
        certify = stepper.dirac_inclusion_residual
        calls = []

        def install(start=0):
            def patched(*args, **kwargs):
                calls.append(None)
                if len(calls) > start:
                    return request.param * SolverOptions().tol
                return certify(*args, **kwargs)
            monkeypatch.setattr(stepper, "dirac_inclusion_residual", patched)
            return request.param * SolverOptions().tol

        return install

    def test_single_steps_raise(self, gated):
        bad = gated()
        lag_system, x0 = oscillator_seed()
        ham_system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
        # a direct Lagrangian step is the first step of a run: its seed check
        # is the first certificate call, and it warns on the patched value
        with pytest.warns(RuntimeWarning, match="seed point is inconsistent"):
            with pytest.raises(CertificationError, match="inclusion residual gate") as lag:
                step_lagrangian(lag_system, x0)
        with pytest.raises(CertificationError, match="inclusion residual gate") as ham:
            step_hamiltonian(ham_system, [0.0], [1.0])
        for info in (lag, ham):
            assert np.array_equal(info.value.inclusion_residual, bad, equal_nan=True)

    @pytest.mark.parametrize("make", [
        oscillator_seed,
        lambda: (builtin.harmonic_oscillator_hamiltonian(H, LAM), ([0.0], [1.0])),
    ], ids=["lagrangian", "hamiltonian"])
    def test_run_keeps_the_steps_before(self, gated, make):
        system, seed = make()
        # a Lagrangian run's seed check is one certificate call before step 0
        gated(start=3 + (system.kind == "lagrangian"))
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, seed, 6)
        err = info.value
        assert isinstance(err.__cause__, CertificationError)
        assert err.step_index == 3
        assert err.trajectory.steps == 3
        assert err.trajectory.max_inclusion_residual <= 10.0 * SolverOptions().tol


class TestTrajectoryMemory:
    """A run stores each step as one row of preallocated columns: at n = 1 a
    configuration, a momentum and five diagnostic numbers, 56 bytes. A point
    plus a diagnostics record per step retained about 480 bytes."""

    STEPS = 10000

    @staticmethod
    def traced(fn):
        """(result of fn(), bytes it left allocated, peak bytes while it ran)."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = fn()
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, current - before, peak - before

    def test_trajectory_retains_under_100_bytes_per_step(self):
        system, x0 = oscillator_seed()
        run_trajectory(system, x0, 10)
        traj, retained, _ = self.traced(lambda: run_trajectory(system, x0, self.STEPS))
        assert traj.steps == self.STEPS
        assert retained <= 100 * self.STEPS

    def test_cli_run_peak_under_300_bytes_per_step(self, tmp_path):
        # the table is 56 bytes per step and the columns as much again; one
        # chunk of CSV text is bounded by the chunk size, not the step count
        config = cli.parse_config(json.dumps({
            "system": "harmonic_oscillator", "h": H, "seed": [0.0, 0.1],
            "steps": self.STEPS, "output": str(tmp_path / "out.csv")}))
        cli.run(dataclasses.replace(config, steps=10), quiet=True)
        summary, _, peak = self.traced(lambda: cli.run(config, quiet=True))
        assert summary.steps_completed == self.STEPS
        assert peak <= 300 * self.STEPS


class TestTracedDispatch:
    """The benchmark's tracer (bench/tracing.py) wraps these module attributes;
    the library must look them up at call time, one layer per name."""

    @staticmethod
    def count_calls(monkeypatch, module, name, counts):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("make", [
        oscillator_seed,
        nonholonomic_seed,
        lambda: (builtin.harmonic_oscillator_hamiltonian(H, LAM), ([0.0], [1.0])),
        lambda: (nonholonomic_hamiltonian(), ([0.0, 0.5, 0.0], [1.0, 0.2, 0.3])),
    ], ids=["lagrangian", "lagrangian-constrained", "hamiltonian", "hamiltonian-constrained"])
    def test_each_wrapped_stepper_name_is_hit_once_per_step(self, monkeypatch, make):
        system, seed = make()
        counts = {}
        for name in ("step_lagrangian", "step_hamiltonian", "newton_solve",
                     "dirac_inclusion_residual"):
            self.count_calls(monkeypatch, stepper, name, counts)
        run_trajectory(system, seed, 7)
        lagrangian = system.kind == "lagrangian"
        step = "step_lagrangian" if lagrangian else "step_hamiltonian"
        # a Lagrangian run's first step also certifies its seed
        assert counts == {step: 7, "newton_solve": 7, "dirac_inclusion_residual": 7 + lagrangian}

    def test_finite_difference_gradients_do_not_enter_jacobian_columns(self, monkeypatch):
        inside = []
        gradient, columns = systems.central_difference, systems.jacobian_columns

        def traced_gradient(*args):
            inside.append(True)
            try:
                return gradient(*args)
            finally:
                inside.pop()

        def traced_columns(*args):
            assert not inside, "central_difference entered jacobian_columns"
            return columns(*args)

        monkeypatch.setattr(systems, "central_difference", traced_gradient)
        monkeypatch.setattr(systems, "jacobian_columns", traced_columns)
        monkeypatch.setattr(stepper, "jacobian_columns", traced_columns)
        counts = {}
        self.count_calls(monkeypatch, systems, "central_difference", counts)
        self.count_calls(monkeypatch, stepper, "jacobian_columns", counts)
        traj = run_trajectory(quartic_hamiltonian(3, H), (np.full(3, 0.2), np.full(3, 0.1)), 4)
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol
        assert counts["central_difference"] > 0 and counts["jacobian_columns"] > 0


class TestEvaluationCounts:
    """A step evaluates each user callable only where no held value serves: a
    run carries the previous step's p_next as the next carried momentum, and
    the certificate and the constraint residual read the values of Newton's
    last residual."""

    LANES = {
        "lagrangian": oscillator_seed,
        "hamiltonian": lambda: (builtin.harmonic_oscillator_hamiltonian(H, LAM), ([0.0], [1.0])),
        "nonholonomic": nonholonomic_seed,
        "constrained-hamiltonian": lambda: (nonholonomic_hamiltonian(),
                                            ([0.0, 0.5, 0.0], [1.0, 0.2, 0.3])),
    }

    @staticmethod
    def count(monkeypatch, system):
        """Counting wrappers on the generating-function slots and on phi."""
        lagrangian = system.kind == "lagrangian"
        gen = system.lagrangian if lagrangian else system.hamiltonian
        targets = [(gen, name) for name in (("d1", "d2") if lagrangian else ("dq", "dp"))]
        if system.m:
            targets.append((system.constraint, "phi"))
        counts = {}
        for obj, name in targets:
            counts[name] = 0

            def counted(*args, _name=name, _original=getattr(obj, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(obj, name, counted)
        return counts

    def per_step(self, monkeypatch, lane, steps=20):
        # the difference of a run and one twice as long cancels the one-off
        # evaluations: seed check, first carried momentum, first assembly
        system, seed = self.LANES[lane]()
        counts = self.count(monkeypatch, system)

        def totals(n):
            counts.update(dict.fromkeys(counts, 0))
            run_trajectory(system, seed, n)
            return dict(counts)

        short, long = totals(steps), totals(2 * steps)
        return {name: (long[name] - short[name]) / steps for name in counts}

    @pytest.mark.parametrize("lane, expected", [
        ("lagrangian", {"d1": 2, "d2": 1}),
        ("hamiltonian", {"dq": 2, "dp": 1}),
        ("nonholonomic", {"d1": 2, "d2": 1, "phi": 2}),
        # its residual completes q+ = dH/dp itself; the held matrix's border
        # takes dH/dp at the predictor, which the first residual reuses
        ("constrained-hamiltonian", {"dq": 2, "dp": 2, "phi": 2}),
    ])
    def test_run_evaluates_each_callable_once_per_step(self, monkeypatch, lane, expected):
        # one Newton iteration per step: two residuals (the predictor and the
        # root), then one completion; nothing else is evaluated again
        assert self.per_step(monkeypatch, lane) == expected

    @pytest.mark.parametrize("lane, expected", [
        ("lagrangian", {"d1": 3, "d2": 2}),
        ("hamiltonian", {"dq": 3, "dp": 2}),
        ("nonholonomic", {"d1": 3, "d2": 2, "phi": 3}),
        ("constrained-hamiltonian", {"dq": 3, "dp": 4, "phi": 3}),
    ])
    def test_root_off_the_residuals_array_is_evaluated_afresh(self, monkeypatch, lane,
                                                             expected):
        # Newton returning a copy of its root breaks the identity with the
        # residual's last argument: the certificate and phi are evaluated again,
        # with the same values
        system, seed = self.LANES[lane]()
        reference = run_trajectory(system, seed, 10)
        solve = stepper.newton_solve

        def copied(*args, **kwargs):
            z, iters, res = solve(*args, **kwargs)
            return z.copy(), iters, res

        monkeypatch.setattr(stepper, "newton_solve", copied)
        assert self.per_step(monkeypatch, lane) == expected
        system, seed = self.LANES[lane]()
        traj = run_trajectory(system, seed, 10)
        for a, b in zip(traj.diagnostics, reference.diagnostics):
            assert (a.residual, a.inclusion_residual, a.constraint_residual) \
                == (b.residual, b.inclusion_residual, b.constraint_residual)
            assert np.array_equal(a.multipliers, b.multipliers)
        for a, b in zip(traj.curve, reference.curve):
            for u, v in ((a.q, b.q), (a.p, b.p), (a.qplus, b.qplus)):
                assert np.array_equal(u, v)

    @staticmethod
    def per_assembly(monkeypatch, targets, run):
        """Calls of each (object, attribute) target inside each Newton-matrix
        block that the stepper differences through ``jacobian_columns``."""
        inside, blocks = [], []
        for obj, name in targets:
            def counted(*args, _name=name, _original=getattr(obj, name)):
                if inside:
                    inside[-1][_name] += 1
                return _original(*args)

            monkeypatch.setattr(obj, name, counted)
        columns = stepper.jacobian_columns

        def traced(*args):
            inside.append(dict.fromkeys((name for _, name in targets), 0))
            try:
                return columns(*args)
            finally:
                blocks.append(inside.pop())

        monkeypatch.setattr(stepper, "jacobian_columns", traced)
        run()
        assert blocks
        return blocks

    @pytest.mark.parametrize("make", [
        lambda: (quartic_hamiltonian(4, H), (np.full(4, 0.2), np.full(4, 0.1))),
        lambda: quartic_lagrangian_seed(4),
    ], ids=["hamiltonian", "lagrangian"])
    def test_fd_cross_block_costs_n_plus_one_squared_evaluations(self, monkeypatch, make):
        # a forward-difference Jacobian of a forward-difference gradient:
        # (n + 1)^2 = 25 evaluations of L or H, not 4 n^2 = 64
        system, seed = make()
        gen = system.lagrangian or system.hamiltonian
        blocks = self.per_assembly(monkeypatch, [(gen.provider, "f")],
                                   lambda: run_trajectory(system, seed, 4))
        assert blocks == [{"f": 25}] * len(blocks)

    def test_fd_constrained_hamiltonian_completion_block(self, monkeypatch):
        # the dH/dp completion block costs (n + 1)^2 = 16 evaluations of H, as
        # does the cross block; the constraint blocks are exact
        nh = nonholonomic_hamiltonian()
        ham = DiscreteHamiltonian(3, nh.hamiltonian.Hd)
        system = DiscreteSystem.from_hamiltonian(ham, nh.dist, nh.constraint)
        seed = ([0.0, 0.5, 0.0], [1.0, 0.2, 0.3])
        blocks = self.per_assembly(monkeypatch, [(ham.provider, "f")],
                                   lambda: run_trajectory(system, seed, 4))
        assert len(blocks) % 2 == 0  # a cross block and a completion block per assembly
        assert blocks == [{"f": 16}] * len(blocks)

    def test_analytic_slot_gradients_cost_n_plus_one_calls(self, monkeypatch):
        # each block differences one analytic slot gradient n + 1 = 4 times
        # (2n = 6 by central differences); the other slot is not called
        system = nonholonomic_hamiltonian()
        gen = system.hamiltonian
        blocks = self.per_assembly(monkeypatch, [(gen, "dq"), (gen, "dp")],
                                   lambda: run_trajectory(system, ([0.0, 0.5, 0.0],
                                                                   [1.0, 0.2, 0.3]), 4))
        assert blocks == [{"dq": 4, "dp": 0}, {"dq": 0, "dp": 4}] * (len(blocks) // 2)

    def test_a_run_that_never_assembles_checks_its_cross_block_once(self, monkeypatch):
        # at rest every step converges at its predictor: the seed check, one
        # residual per step and, on the first step only, the central-difference
        # cross block of the regularity check (2 calls)
        system = builtin.harmonic_oscillator(H, LAM)
        seed = builtin.lagrangian_seed(system, [0.0], [0.0])
        counts = self.count(monkeypatch, system)
        traj = run_trajectory(system, seed, 100)
        assert traj.total_jacobian_assemblies == 0
        assert counts["d1"] <= 103

    @pytest.mark.parametrize("make", [nonholonomic_seed, sphere_quartic_seed],
                             ids=["nonholonomic", "sphere-quartic"])
    def test_one_row_annihilators_take_no_svd(self, monkeypatch, make):
        # the one singular value of a single row of A(q) is its norm; the
        # condition estimate of an assembled cross block runs its SVD inside
        # numpy.linalg, which this patch does not see
        system, seed = make()
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        traj = run_trajectory(system, seed, 25)
        assert calls == []
        assert traj.max_inclusion_residual <= 10.0 * SolverOptions().tol

    def test_direct_lagrangian_step_evaluates_its_carried_momentum(self, monkeypatch):
        system, x0 = oscillator_seed()
        counts = self.count(monkeypatch, system)
        result = step_lagrangian(system, x0)
        assert counts["d2"] == 2  # the carried d2 L(q0, q1) and the new momentum
        assert result.next.p[0] == system.lagrangian.d2(x0.q, x0.qplus)[0]
