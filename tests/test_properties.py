"""Property suite for every lane: each run is certified or fails typed.

Each example is a random smooth discrete Lagrangian or Hamiltonian
(finite-difference derivatives only), unconstrained or under a random
annihilator A(q) that is affine in q with the retraction pair constraint,
optionally undefined (NaN) outside a ball. A run either certifies every step
with finite values, or ends in a StepFailureError caused by a typed
DiracMechError that carries the certified partial trajectory (for a
Hamiltonian run, none when the first step fails). Every recorded
certificate also equals a fresh evaluation of the inclusion residual at the
stored point and its p_next, and the trajectory reads exactly as the
records of the same steps taken one by one.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from diracmech import (  # noqa: E402
    DegenerateConstraintError,
    DiracMechError,
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteSystem,
    KinematicDistribution,
    SolverOptions,
    StepDiagnostics,
    StepFailureError,
    dirac_inclusion_residual,
    retraction_constraint,
    run_trajectory,
    step_hamiltonian,
    step_lagrangian,
)
from diracmech import builtin, stepper  # noqa: E402

H = 0.1
TOL = SolverOptions().tol


@st.composite
def runs(draw, lagrangian, constrained):
    """(system, seed, steps): a random run of one kind, with or without constraints."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, n - 1)) if constrained else 0
    quartic = draw(st.sampled_from([0.0, 0.5, 2.0]))
    slope = draw(st.sampled_from([0.0, 0.3, 1.5]))
    speed = draw(st.sampled_from([0.2, 1.0, 3.0]))
    wall = draw(st.sampled_from([None, 0.8, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    mass = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    mass = mass @ mass.T + 0.5 * np.eye(n)
    stiff = 0.5 * rng.standard_normal((n, n))
    stiff = stiff @ stiff.T
    freq = rng.standard_normal((2, n))
    amp = 0.5 * rng.standard_normal(2)

    def potential(q):
        return 0.5 * q @ stiff @ q + amp @ np.cos(freq @ q)

    def outside(a, b):
        return wall is not None and max(np.abs(a).max(), np.abs(b).max()) > wall

    if lagrangian:
        def ld(q, qp):
            if outside(q, qp):
                return float("nan")
            d = (qp - q) / H
            return float(H * (0.5 * d @ mass @ d + 0.25 * quartic * np.sum(d ** 4)
                              - potential(q)))
        gen = DiscreteLagrangian(n, ld)
    else:
        inv_mass = np.linalg.inv(mass)

        def hd(q, pp):
            if outside(q, pp):
                return float("nan")
            return float(q @ pp + H * (0.5 * pp @ inv_mass @ pp + 0.25 * quartic * np.sum(pp ** 4)
                                       + potential(q)))
        gen = DiscreteHamiltonian(n, hd)

    a0 = rng.standard_normal((m, n))
    a1 = slope * rng.standard_normal((n, m, n))

    def annihilator(q):
        return a0 + np.tensordot(q, a1, axes=1)

    dist = KinematicDistribution(n, m, annihilator if m else None)
    build = DiscreteSystem.from_lagrangian if lagrangian else DiscreteSystem.from_hamiltonian
    system = build(gen, dist, retraction_constraint(dist))
    q0 = 0.3 * rng.standard_normal(n)
    try:
        v = dist.project_ker(q0, rng.standard_normal(n))
    except DegenerateConstraintError:
        v = None
    assume(v is not None and np.linalg.norm(v) > 1e-3)
    v *= speed / np.linalg.norm(v)
    if lagrangian:
        try:
            seed = builtin.lagrangian_seed(system, q0, q0 + H * v)
        except ValueError:  # p0 = -d1 L(q0, q1) is NaN at the wall
            seed = None
        assume(seed is not None)
    else:
        seed = (q0, 0.3 * mass @ v)
    return system, seed, draw(st.integers(4, 12))


def assert_certified_and_finite(traj):
    for d in traj.diagnostics:
        assert d.residual <= TOL
        assert d.constraint_residual <= TOL
        assert d.inclusion_residual <= 10.0 * TOL
        assert np.isfinite(d.multipliers).all()
    for pt in traj.curve:
        assert np.isfinite(pt.q).all() and np.isfinite(pt.p).all()
        assert np.isfinite(pt.qplus).all()
    if traj.final_state is not None:
        assert all(np.isfinite(x).all() for x in traj.final_state)


def assert_certificates_reproduce(system, traj):
    """Every recorded certificate equals a fresh evaluation at the stored point.

    A step certifies from values it already holds; this re-evaluates the
    inclusion residual from the stored point and its p_next alone.
    """
    if system.kind == "lagrangian":
        points = list(traj.curve)[1:]
        # a step's p_next is the next point's carried momentum; the last one
        # is d2 L at the last point, as the step computed it
        last = [system.lagrangian.d2(points[-1].q, points[-1].qplus)] if points else []
    else:
        points = list(traj.curve)
        last = [traj.final_state[1]] if points else []
    carried = [pt.p for pt in points[1:]] + last
    assert len(points) == len(carried) == len(traj.diagnostics)
    for d, pt, p_next in zip(traj.diagnostics, points, carried):
        assert d.inclusion_residual == dirac_inclusion_residual(system, pt, p_next)


def step_records(system, seed, steps):
    """The run taken one step at a time, kept as one point and one record per step.

    Returns (points, diagnostics, final_state) up to the first failing step:
    the reference layout that a trajectory must read back exactly. The steps
    share one run record, which hands each step its held matrix, carried
    momentum, multiplier guess and history.
    """
    lagrangian = system.kind == "lagrangian"
    points = [seed] if lagrangian else []
    q, p = (None, None) if lagrangian else (np.array(x, dtype=float) for x in seed)
    diagnostics, run = [], stepper._Run()
    for _ in range(steps):
        try:
            if lagrangian:
                r = step_lagrangian(system, points[-1], _run=run)
            else:
                r = step_hamiltonian(system, q, p, _run=run)
        except DiracMechError:
            break
        points.append(r.next)
        diagnostics.append(StepDiagnostics(r.residual, r.inclusion_residual,
                                           r.constraint_residual, r.multipliers,
                                           r.iterations, r.jacobian_assemblies))
        q, p = r.next.qplus, r.p_next
    return points, diagnostics, None if lagrangian else (q, p)


def assert_reads_as_records(system, seed, steps, traj):
    """Points, slices, records, final state and aggregates equal the step records."""
    points, records, final = step_records(system, seed, steps)
    if traj is None:
        assert points == []
        return
    curve = traj.curve

    def assert_points(got, want):
        got, want = list(got), list(want)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for u, v in ((a.q, b.q), (a.p, b.p), (a.qplus, b.qplus)):
                assert u.shape == v.shape and np.array_equal(u, v)

    assert_points(curve.points, points)
    assert_points(curve, points)
    assert_points([curve[k] for k in range(-len(curve), len(curve))], points + points)
    for cut in (slice(1, -1), slice(None, None, 2), slice(-2, None)):
        assert_points(curve[cut], points[cut])
    assert all(a.qplus is b.q for a, b in zip(curve, curve[1:]))
    assert len(traj.diagnostics) == len(records) == traj.steps
    for k, want in enumerate(records):
        got = traj.diagnostics[k]
        assert type(got.residual) is float and type(got.iterations) is int
        assert (got.residual, got.inclusion_residual, got.constraint_residual,
                got.iterations, got.jacobian_assemblies) \
            == (want.residual, want.inclusion_residual, want.constraint_residual,
                want.iterations, want.jacobian_assemblies)
        assert np.array_equal(got.multipliers, want.multipliers)
    if final is None:
        assert traj.final_state is None
    else:
        assert all(np.array_equal(u, v) for u, v in zip(traj.final_state, final))
    assert traj.max_residual == max([d.residual for d in records], default=0.0)
    assert traj.max_inclusion_residual == max([d.inclusion_residual for d in records],
                                              default=0.0)
    assert traj.max_constraint_residual == max([d.constraint_residual for d in records],
                                               default=0.0)
    assert traj.total_iterations == sum(d.iterations for d in records)
    assert traj.total_jacobian_assemblies == sum(d.jacobian_assemblies for d in records)


def check_lagrangian_run(case):
    system, seed, steps = case
    try:
        traj = run_trajectory(system, seed, steps)
    except StepFailureError as exc:
        assert isinstance(exc.__cause__, DiracMechError)
        partial = exc.trajectory
        assert partial is not None
        assert partial.steps == exc.step_index < steps
        assert len(partial.curve) == exc.step_index + 1
        assert_certified_and_finite(partial)
        assert_certificates_reproduce(system, partial)
        assert_reads_as_records(system, seed, steps, partial)
    else:
        assert traj.steps == steps
        assert len(traj.curve) == steps + 1
        assert_certified_and_finite(traj)
        assert_certificates_reproduce(system, traj)
        assert_reads_as_records(system, seed, steps, traj)


def check_hamiltonian_run(case):
    system, seed, steps = case
    try:
        traj = run_trajectory(system, seed, steps)
    except StepFailureError as exc:
        assert isinstance(exc.__cause__, DiracMechError)
        partial = exc.trajectory
        assert exc.step_index < steps
        assert (partial is None) == (exc.step_index == 0)
        if partial is not None:
            assert partial.steps == exc.step_index
            assert len(partial.curve) == exc.step_index
            assert partial.final_state is not None
            assert_certified_and_finite(partial)
            assert_certificates_reproduce(system, partial)
        assert_reads_as_records(system, seed, steps, partial)
    else:
        assert traj.steps == len(traj.curve) == steps
        assert traj.final_state is not None
        assert_certified_and_finite(traj)
        assert_certificates_reproduce(system, traj)
        assert_reads_as_records(system, seed, steps, traj)


@settings(max_examples=60)
@given(runs(lagrangian=True, constrained=True))
def test_constrained_run_certifies_or_fails_typed(case):
    check_lagrangian_run(case)


@settings(max_examples=40)
@given(runs(lagrangian=True, constrained=False))
def test_unconstrained_lagrangian_run_certifies_or_fails_typed(case):
    check_lagrangian_run(case)


@settings(max_examples=40)
@given(runs(lagrangian=False, constrained=False))
def test_unconstrained_hamiltonian_run_certifies_or_fails_typed(case):
    check_hamiltonian_run(case)


@settings(max_examples=40)
@given(runs(lagrangian=False, constrained=True))
def test_constrained_hamiltonian_run_certifies_or_fails_typed(case):
    check_hamiltonian_run(case)


def walled(lagrangian, constrained, wall=0.45):
    """A free particle in R^3 whose L or H is NaN once |q|_inf passes ``wall``,
    optionally under the nonholonomic distribution; a run moving outward fails
    at the wall after some certified steps."""
    def ld(q, qp):
        if max(np.abs(q).max(), np.abs(qp).max()) > wall:
            return float("nan")
        return float((qp - q) @ (qp - q)) / (2.0 * H)

    def hd(q, pp):
        return float("nan") if np.abs(q).max() > wall else float(q @ pp + 0.5 * H * pp @ pp)

    nh = builtin.nonholonomic_particle(H)
    dist, constraint = (nh.dist, nh.constraint) if constrained else (None, None)
    if lagrangian:
        system = DiscreteSystem.from_lagrangian(DiscreteLagrangian(3, ld), dist, constraint)
    else:
        system = DiscreteSystem.from_hamiltonian(DiscreteHamiltonian(3, hd), dist, constraint)
    q0 = np.array([0.0, 0.5 * wall, 0.0])
    v = np.array([1.0, 0.2, q0[1]])  # A(q0) v = 0
    seed = builtin.lagrangian_seed(system, q0, q0 + H * v) if lagrangian else (q0, v)
    return system, seed


LANES = [(lagrangian, constrained) for lagrangian in (True, False) for constrained in (False, True)]


@pytest.mark.parametrize("lagrangian, constrained", LANES)
@pytest.mark.parametrize("steps", [1, 3, 12])
def test_each_lane_reads_as_step_records(lagrangian, constrained, steps):
    # 12 steps reach the wall in every lane; the partial run reads as the
    # records of the steps before the failure
    system, seed = walled(lagrangian, constrained)
    if steps < 12:
        traj = run_trajectory(system, seed, steps)
    else:
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, seed, steps)
        assert info.value.step_index >= 3
        traj = info.value.trajectory
    assert_reads_as_records(system, seed, steps, traj)
    if lagrangian and steps == 1:
        assert_reads_as_records(system, seed, 0, run_trajectory(system, seed, 0))


def quartic(lagrangian, n=4, h=0.25):
    """An FD-only system, quartic in its second slot: its steps need a second
    Newton iteration, so its runs extrapolate their predictors. Both pass at
    a tol ten times below the default, clear of the finite-difference floor."""
    if lagrangian:
        def ld(q, qp):
            d = (qp - q) / h
            return float(h * (0.5 * d @ d + 0.25 * np.sum(d ** 4) + np.sum(np.cos(q))))

        system = DiscreteSystem.from_lagrangian(DiscreteLagrangian(n, ld))
        q0 = np.linspace(0.1, 0.4, n)
        return system, builtin.lagrangian_seed(system, q0, q0 + h * np.linspace(1.0, 0.5, n))

    def hd(q, pp):
        return float(q @ pp + h * (0.5 * pp @ pp + 0.25 * np.sum(pp ** 4) + 0.5 * q @ q))

    return (DiscreteSystem.from_hamiltonian(DiscreteHamiltonian(n, hd)),
            (0.3 * np.linspace(0.5, 1.0, n), 0.5 * np.linspace(1.0, 0.5, n)))


@pytest.mark.parametrize("lagrangian", [True, False], ids=["lagrangian", "hamiltonian"])
def test_extrapolating_run_reads_as_step_records(monkeypatch, lagrangian):
    # the history of solved unknowns lives in the shared run record, so steps
    # taken one call at a time start from the same predictors as the run
    system, seed = quartic(lagrangian)
    traj = run_trajectory(system, seed, 12)
    assert max(traj.diagnostics.iterations) > 1
    with monkeypatch.context() as patched:
        # an extrapolation that returns the newest unknown never leaves it
        patched.setattr(stepper, "_extrapolated", lambda history: history[0])
        held = run_trajectory(system, seed, 12)
    assert not np.array_equal(traj.curve[-1].qplus, held.curve[-1].qplus)
    assert_certified_and_finite(traj)
    assert_reads_as_records(system, seed, 12, traj)
