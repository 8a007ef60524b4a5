"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime bound is asserted, not just reported.
"""

import gc
import json
import time

import numpy as np
from scipy.optimize import root

from diracmech import (
    DiscreteLagrangian,
    DiscreteSystem,
    LinSubspace,
    SkewForm,
    induced_dirac,
    is_dirac,
    run_trajectory,
)
from diracmech import builtin
from diracmech.cli import main

H = 0.1
LAM = 1.0


def _report(number, name, detail):
    print("ACCEPTANCE %d (%s): PASS — %s" % (number, name, detail))


def oscillator_pair():
    system = builtin.harmonic_oscillator(H, LAM)
    return system, builtin.lagrangian_seed(system, [0.0], [0.1])


def nonholonomic_pair():
    system = builtin.nonholonomic_particle(H)
    q0 = np.array([0.0, 0.5, 0.0])
    q1 = q0 + H * np.array([1.0, 0.2, 0.5])
    return system, builtin.lagrangian_seed(system, q0, q1)


def test_criterion_1_oscillator_closed_form_reproduction():
    system, x0 = oscillator_pair()
    run_trajectory(system, x0, 2)  # warm up the whole path
    start = time.perf_counter()
    traj = run_trajectory(system, x0, 2)
    elapsed = time.perf_counter() - start

    p0 = traj.curve[0].p[0]
    p1 = traj.curve[1].p[0]
    q2 = traj.curve[1].qplus[0]
    p2 = traj.curve[2].p[0]
    assert abs(p0 - 1.0) < 1e-12
    assert abs(p1 - 1.0) < 1e-12
    assert abs(q2 - 0.199) < 1e-12
    assert abs(p2 - 0.99) < 1e-12
    assert elapsed < 1e-3
    _report(1, "oscillator closed-form reproduction",
            "p0=%.15g p1=%.15g q2=%.15g p2=%.15g in %.3f ms"
            % (p0, p1, q2, p2, elapsed * 1e3))


def test_criterion_2_dirac_inclusion_certification():
    ho, x_ho = oscillator_pair()
    nh, x_nh = nonholonomic_pair()
    fp = builtin.free_particle(H, 2, [1.0, 2.0])
    x_fp = builtin.lagrangian_seed(fp, [0.0, 0.0], [0.05, -0.03])
    hoh = builtin.harmonic_oscillator_hamiltonian(H, LAM)
    fph = builtin.free_particle_hamiltonian(H, 2, [1.0, 2.0])

    runs = [
        (ho, x_ho, 300),
        (fp, x_fp, 200),
        (nh, x_nh, 300),
        (hoh, ([0.0], [1.0]), 100),
        (fph, ([0.0, 0.0], [0.5, -0.3]), 100),
    ]
    run_trajectory(ho, x_ho, 5)  # warm up
    total = 0
    worst = 0.0
    start = time.perf_counter()
    for system, seed, steps in runs:
        traj = run_trajectory(system, seed, steps)
        total += traj.steps
        worst = max(worst, traj.max_inclusion_residual)
        for d in traj.diagnostics:
            assert d.inclusion_residual <= 1e-9
    elapsed = time.perf_counter() - start

    assert total >= 1000
    assert elapsed < 1.0
    _report(2, "Dirac-inclusion certification",
            "%d steps across 5 built-in systems, max residual %.3e in %.3f s"
            % (total, worst, elapsed))


def test_criterion_3_induced_structure_property_suite():
    rng = np.random.default_rng(31415)
    count = 0
    start = time.perf_counter()
    for n in range(1, 7):
        for _ in range(35):
            k = int(rng.integers(0, n + 1))
            if k == 0:
                delta = LinSubspace.trivial(n)
            else:
                delta = LinSubspace(n, rng.standard_normal((n, k)))
            m = rng.standard_normal((n, n))
            omega = SkewForm(m - m.T)
            d = induced_dirac(delta, omega)
            assert d.dim == n
            assert is_dirac(d, n, tol=1e-10)
            count += 1
    elapsed = time.perf_counter() - start
    assert count >= 200
    assert elapsed < 1.0
    _report(3, "induced-structure property suite",
            "%d random (subspace, form) pairs in dims 1-6 in %.3f s" % (count, elapsed))


def _random_smooth_lagrangian(rng, n):
    """Random quadratic plus small cubic perturbation; all gradients by FD.

    Block scales keep the two-step recursion marginally stable so 20 steps
    never leave the cubic term's basin.
    """
    dim = 2 * n
    a = 0.05 * rng.standard_normal((n, n))
    c = 0.05 * rng.standard_normal((n, n))
    cross = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    s = np.block([[0.5 * (a + a.T), cross], [cross.T, 0.5 * (c + c.T)]])
    t = 0.5 * rng.standard_normal((3, dim))

    def Ld(q, qp):
        xi = np.concatenate([q, qp])
        return float(0.5 * xi @ s @ xi + 0.01 * np.sum((t @ xi) ** 3))

    return DiscreteLagrangian(n, Ld)


def _local_first_slot_gradient(f, q, qnew):
    """Test-local central differences in the first slot (oracle side)."""
    eps = np.finfo(float).eps ** (1.0 / 3.0)
    grad = np.empty_like(q)
    for i in range(q.shape[0]):
        h = eps * max(1.0, abs(q[i]))
        up = q.copy()
        dn = q.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up, qnew) - f(dn, qnew)) / (2.0 * h)
    return grad


def test_criterion_4_oracle_equivalence():
    from diracmech import SolverOptions, step_lagrangian

    rng = np.random.default_rng(2718)
    tight = SolverOptions(tol=1e-12)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = 1 + trial % 3
        lag = _random_smooth_lagrangian(rng, n)
        system = DiscreteSystem.from_lagrangian(lag)
        q0 = 0.05 * rng.standard_normal(n)
        q1 = q0 + 0.02 * rng.standard_normal(n)
        x = builtin.lagrangian_seed(system, q0, q1)
        for _ in range(20):
            result = step_lagrangian(system, x, tight)
            q_cur = x.qplus
            carried = lag.d2(x.q, x.qplus)

            # independent route: scipy's trust-region root finder on the plain
            # two-step equation, first-slot gradient done with local code
            def balance(qnew):
                return carried + _local_first_slot_gradient(lag.Ld, q_cur, qnew)

            sol = root(balance, q_cur, tol=1e-13)
            assert np.max(np.abs(balance(sol.x))) < 1e-12
            gap = float(np.max(np.abs(result.next.qplus - sol.x)))
            worst = max(worst, gap)
            assert gap < 1e-10
            x = result.next
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "oracle equivalence",
            "50 random Lagrangians x 20 steps, max gap %.3e in %.3f s" % (worst, elapsed))


def test_criterion_5_lagrangian_hamiltonian_consistency():
    lag_system, x0 = oscillator_pair()
    ham_system = builtin.harmonic_oscillator_hamiltonian(H, LAM)
    run_trajectory(lag_system, x0, 5)
    run_trajectory(ham_system, ([0.0], [1.0]), 5)  # warm up both lanes

    # timeit methodology: settle the allocator, keep the collector out of the
    # timed region, take the best of a few attempts
    gc.collect()
    gc.disable()
    try:
        elapsed = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            lag_traj = run_trajectory(lag_system, x0, 100)
            ham_traj = run_trajectory(ham_system, ([0.0], [1.0]), 100)
            elapsed = min(elapsed, time.perf_counter() - start)
    finally:
        gc.enable()

    worst = 0.0
    for k in range(100):
        worst = max(worst,
                    abs(lag_traj.curve[k].q[0] - ham_traj.curve[k].q[0]),
                    abs(lag_traj.curve[k].p[0] - ham_traj.curve[k].p[0]))
    assert worst < 1e-9
    assert elapsed < 10e-3
    _report(5, "Lagrangian-Hamiltonian consistency",
            "100 steps agree to %.3e in %.3f ms" % (worst, elapsed * 1e3))


def test_criterion_6_nonholonomic_constraint_satisfaction():
    system, x0 = nonholonomic_pair()
    lag, dist, con = system.lagrangian, system.dist, system.constraint
    start = time.perf_counter()
    traj = run_trajectory(system, x0, 500)
    elapsed = time.perf_counter() - start

    worst_phi = 0.0
    worst_force = 0.0
    for k in range(500):
        x = traj.curve[k]
        nxt = traj.curve[k + 1]
        phi = np.max(np.abs(con.value(nxt.q, nxt.qplus)))
        worst_phi = max(worst_phi, float(phi))
        # force balance at the solved index lies in the row span of A
        g = nxt.p + lag.d1(nxt.q, nxt.qplus)
        a = dist.matrix(nxt.q)
        coeffs, *_ = np.linalg.lstsq(a.T, g, rcond=None)
        worst_force = max(worst_force, float(np.linalg.norm(g - a.T @ coeffs)))
    assert worst_phi < 1e-10
    assert worst_force < 1e-9
    assert elapsed < 1.0
    _report(6, "nonholonomic constraint satisfaction",
            "500 steps, max |phi| %.3e, max force-balance defect %.3e in %.3f s"
            % (worst_phi, worst_force, elapsed))


def test_criterion_7_long_run_stability():
    system, x0 = oscillator_pair()  # h^2 lam = 0.01
    run_trajectory(system, x0, 100)
    start = time.perf_counter()
    traj = run_trajectory(system, x0, 100_000)
    elapsed = time.perf_counter() - start

    amplitude = np.sqrt(0.0 ** 2 + 1.0 ** 2 / LAM)
    peak = max(abs(pt.q[0]) for pt in traj.curve)
    assert peak <= 2.0 * amplitude
    assert elapsed < 5.0
    _report(7, "long-run stability",
            "100000 steps, max |q| = %.6f (bound %.1f) in %.2f s"
            % (peak, 2.0 * amplitude, elapsed))


def test_criterion_8_derivative_consistency():
    rng = np.random.default_rng(777)
    providers = [
        ("harmonic_oscillator", builtin.harmonic_oscillator(H, LAM).lagrangian.provider, 1),
        ("free_particle", builtin.free_particle(H, 2, [1.0, 2.5]).lagrangian.provider, 2),
        ("nonholonomic_particle", builtin.nonholonomic_particle(H).lagrangian.provider, 3),
        ("harmonic_oscillator_hamiltonian",
         builtin.harmonic_oscillator_hamiltonian(H, LAM).hamiltonian.provider, 1),
        ("free_particle_hamiltonian",
         builtin.free_particle_hamiltonian(H, 2, [1.0, 2.5]).hamiltonian.provider, 2),
    ]
    start = time.perf_counter()
    worst = 0.0
    for name, provider, n in providers:
        probes = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(100)]
        deviation = provider.max_fd_deviation(probes)
        worst = max(worst, deviation)
        assert deviation < 1e-5, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(8, "derivative consistency",
            "5 built-ins x 100 probes, worst relative deviation %.3e in %.3f s"
            % (worst, elapsed))


def test_criterion_9_cli_golden(tmp_path):
    config = {"system": "harmonic_oscillator", "h": 0.1, "lambda": 1.0,
              "seed": [0, 0.1], "steps": 2, "output": str(tmp_path / "golden.csv")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    assert main([str(path), "--quiet"]) == 0
    first = (tmp_path / "golden.csv").read_bytes()
    assert main([str(path), "--quiet"]) == 0
    assert (tmp_path / "golden.csv").read_bytes() == first

    lines = first.decode().splitlines()
    assert lines[0] == "k,q0,p0,qplus0,residual,inclusion_residual,constraint_residual"
    # seed row is exact input data, frozen byte for byte
    assert lines[1] == "0,0,1,0.10000000000000001,0,0,0"
    row1 = lines[2].split(",")
    q1, p1, q2 = float(row1[1]), float(row1[2]), float(row1[3])
    assert abs(q1 - 0.1) < 1e-12
    assert abs(p1 - 1.0) < 1e-12
    assert abs(q2 - 0.199) < 1e-12
    # 17 significant digits round-trip: re-formatting the parsed value
    # reproduces the emitted cell exactly
    for cell in row1[1:]:
        assert "%.17g" % float(cell) == cell
    _report(9, "CLI golden test",
            "byte-stable CSV, step-1 row (q=%.17g, p=%.17g, q+=%.17g)" % (q1, p1, q2))
