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
records of the same steps taken one by one. On every lane each step's
certificate is at most sqrt(n) times Newton's accepted residual, plus
rounding. A right-Legendre pair, stepped as a Lagrangian and as a
Hamiltonian system, gives one curve. Two laws that the certificate does not
imply hold on unconstrained runs of both kinds: a rotation-invariant L or H
conserves the angular momentum q x p (discrete Noether), and the step map
is symplectic. A holonomic constraint is a particular case: the spherical
pendulum, constrained through A(q) = Dg(q) and phi(q, q+) = g(q+), keeps its
axial momentum and its sphere, with analytic and with finite-difference
slots, and steps as closed-form SHAKE, for both kinds. The built-in
oscillator, of both kinds, converges at order 2 and the built-in
nonholonomic particle at order 1. Every lane's energy error is first order
in h and does not drift over ten windows of a long run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from diracmech import (  # noqa: E402
    DegenerateConstraintError,
    DiracMechError,
    DiscreteConstraint,
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteSystem,
    KinematicDistribution,
    PontryaginPoint,
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
from diracmech.systems import FD_SCALE  # noqa: E402

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
    diagnostics, run = [], stepper._Run(system, None, seed)
    for _ in range(steps):
        try:
            if lagrangian:
                r = step_lagrangian(system, None, _run=run)
            else:
                r = step_hamiltonian(system, None, None, _run=run)
        except DiracMechError:
            break
        points.append(r.next)
        diagnostics.append(StepDiagnostics(r.residual, r.inclusion_residual,
                                           r.constraint_residual, r.multipliers,
                                           r.iterations, r.jacobian_assemblies))
    # a failed step leaves the run's last (q+, carried) as it was
    return points, diagnostics, None if lagrangian else (run.qplus, run.carried)


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


@st.composite
def legendre_pairs(draw):
    """(L, H, h, dist, q0, v, steps): a right-Legendre pair, a one-row A(q) and a seed.

    L(q, q+) = |q+ - q|^2_M / 2h - h V(q) and H(q, p+) = q . p+ + h |p+|^2_{M^-1} / 2
    + h V(q), with a diagonal mass M in [0.5, 2], V a spring plus optional
    cosine and quartic terms, and every slot analytic or every slot finite
    differences. A(q) is affine in q with one constant entry of modulus 1,
    so it keeps full rank; v lies in ker A(q0).
    """
    n = draw(st.integers(2, 3))
    h = draw(st.sampled_from([0.05, 0.1]))
    wave, quartic = draw(st.booleans()), draw(st.booleans())
    analytic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mass = rng.uniform(0.5, 2.0, n)
    k = rng.uniform(0.5, 2.0, n)
    a = wave * rng.uniform(-1.0, 1.0, n)
    c = quartic * rng.uniform(0.0, 1.0, n)

    def potential(q):
        return 0.5 * k @ (q * q) + a @ np.cos(q) + 0.25 * c @ q ** 4

    def force(q):
        return -(k * q - a * np.sin(q) + c * q ** 3)

    def ld(q, qp):
        return float((qp - q) @ (mass * (qp - q))) / (2.0 * h) - h * potential(q)

    def hd(q, pp):
        return float(q @ pp) + 0.5 * h * float(pp @ (pp / mass)) + h * potential(q)

    if analytic:
        lag = DiscreteLagrangian(n, ld, lambda q, qp: h * force(q) - mass * (qp - q) / h,
                                 lambda q, qp: mass * (qp - q) / h)
        ham = DiscreteHamiltonian(n, hd, lambda q, pp: pp - h * force(q),
                                  lambda q, pp: q + h * pp / mass)
    else:
        lag, ham = DiscreteLagrangian(n, ld), DiscreteHamiltonian(n, hd)
    row, slope = rng.uniform(-1.0, 1.0, n), 0.5 * rng.standard_normal((n, n))
    j = draw(st.integers(0, n - 1))
    row[j], slope[j] = draw(st.sampled_from([-1.0, 1.0])), 0.0
    dist = KinematicDistribution(n, 1, lambda q: (row + slope @ q).reshape(1, n))
    q0 = 0.2 * rng.standard_normal(n)
    v = dist.project_ker(q0, rng.standard_normal(n))
    v *= rng.uniform(0.1, 0.8) / np.linalg.norm(v)
    return lag, ham, h, dist, q0, v, draw(st.integers(8, 20))


@settings(max_examples=50)
@given(legendre_pairs())
def test_a_legendre_pair_steps_to_one_curve(pair):
    """The paper's claim on both solver paths: a right-Legendre pair, as a
    Lagrangian and as a Hamiltonian system, steps to one curve, unconstrained
    and under a one-row A(q) with its retraction constraint.

    Bound: each step of either run leaves a balance residual of at most tol
    and, finite-difference slots only, a central-difference error below the
    noise floor FD_SCALE**2 * |L or H|, under tol here (|L|, |H| stay below
    1.5). So the two runs' balances differ by at most 2 tol (analytic) or
    4 tol (finite differences) per step. A step passes that gap to p+ through
    the identity or the M^-1-orthogonal projection onto ker A, of inf-norm
    gain at most sqrt(n m_max / m_min) < 4, to q+ with a further h/m <= 0.2,
    and to the multiplier with gain at most sqrt(n m_max / m_min) / |A_j| < 4.
    Over N steps, without growth on these short runs, every gap stays below
    4 N times the per-step budget.

    Limit: V depends on the base point alone, so each pair is linear in the
    step's unknown (one Newton iteration per analytic step). A pair nonlinear
    in it has no closed-form transform; the step-record properties above
    cover nonlinear lanes.
    """
    lag, ham, h, dist, q0, v, steps = pair
    analytic = lag.provider.grads[0] is not None
    bound = 4.0 * (2.0 if analytic else 4.0) * TOL * (steps + 1)
    for d, constraint in ((None, None), (dist, retraction_constraint(dist))):
        lag_system = DiscreteSystem.from_lagrangian(lag, d, constraint)
        seed = builtin.lagrangian_seed(lag_system, q0, q0 + h * v)
        by_l = run_trajectory(lag_system, seed, steps)
        by_h = run_trajectory(DiscreteSystem.from_hamiltonian(ham, d, constraint),
                              (seed.q, seed.p), steps + 1)
        assert_certified_and_finite(by_l)
        assert_certified_and_finite(by_h)
        for name in ("q", "p", "qplus"):
            gap = np.max(np.abs(getattr(by_l.curve, name) - getattr(by_h.curve, name)))
            assert gap <= bound, (name, gap, bound)
        # Lagrangian step k solves at base q_{k+1}, as Hamiltonian step k + 1 does
        gap = np.max(np.abs(by_l.diagnostics.multipliers - by_h.diagnostics.multipliers[1:]),
                     initial=0.0)
        assert gap <= bound, ("lambda", gap, bound)


@settings(max_examples=50)
@given(st.sampled_from([(True, False), (True, True), (False, False), (False, True)])
       .flatmap(lambda lane: runs(*lane)))
def test_held_certificate_is_at_most_root_n_times_the_residual(case):
    """On a held step, Newton's acceptance implies the certificate.

    The certificate's dq block is the ker A(q) projection of the balance
    rows of Newton's accepted residual, since A(q)^T lambda has no component
    in ker A(q), and its other block is zero by construction. So it is at
    most sqrt(n) times the residual's max norm, up to rounding: a relative
    8 n eps in the norms, and (n + m) eps times |A(q)^T lambda| for the part
    of the balance that the projection removes. The certificate therefore
    shows that the accepted point solves the discrete equations, not that
    the map preserves any structure.
    """
    system, seed, steps = case
    try:
        traj = run_trajectory(system, seed, steps)
    except StepFailureError as exc:
        traj = exc.trajectory
    assume(traj is not None and traj.steps)
    lagrangian, n = system.kind == "lagrangian", system.n
    eps = np.finfo(float).eps
    # a step's base point q is the q of the point it completes
    for d, pt in zip(traj.diagnostics, list(traj.curve)[1:] if lagrangian else traj.curve):
        removed = np.abs(system.dist.matrix(pt.q).T @ d.multipliers).max(initial=0.0)
        bound = np.sqrt(n) * d.residual * (1.0 + 8 * n * eps) + (n + system.m) * eps * removed
        assert d.inclusion_residual <= bound


@st.composite
def central_pairs(draw, analytic=st.booleans()):
    """(n, h, mass, grad V, L, H, q0, v, analytic): a Legendre pair with a central potential.

    L(q, q+) = m |q+ - q|^2 / 2h - h V(q) and H(q, p+) = q . p+ + h |p+|^2 / 2m
    + h V(q), with a scalar mass m in [0.5, 2] and V(q) = f(|q|^2) for
    f(s) = k s / 2 + c s^2 / 4 + a exp(-s). Both are invariant under every
    rotation of R^n acting on both slots. Slots are all analytic or all
    finite differences, as ``analytic`` draws; the seed has |q0|_inf, |v| <= 1.
    """
    n = draw(st.integers(2, 3))
    h = draw(st.sampled_from([0.05, 0.1]))
    analytic = draw(analytic)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mass, k = rng.uniform(0.5, 2.0, 2)
    c = draw(st.booleans()) * rng.uniform(0.0, 1.0)
    a = draw(st.booleans()) * rng.uniform(-1.0, 1.0)

    def potential(q):
        s = q @ q
        return 0.5 * k * s + 0.25 * c * s * s + a * np.exp(-s)

    def grad(q):
        s = q @ q
        return (k + c * s - 2.0 * a * np.exp(-s)) * q

    def ld(q, qp):
        return float(mass * (qp - q) @ (qp - q) / (2.0 * h) - h * potential(q))

    def hd(q, pp):
        return float(q @ pp + h * pp @ pp / (2.0 * mass) + h * potential(q))

    if analytic:
        lag = DiscreteLagrangian(n, ld, lambda q, qp: -mass * (qp - q) / h - h * grad(q),
                                 lambda q, qp: mass * (qp - q) / h)
        ham = DiscreteHamiltonian(n, hd, lambda q, pp: pp + h * grad(q),
                                  lambda q, pp: q + h * pp / mass)
    else:
        lag, ham = DiscreteLagrangian(n, ld), DiscreteHamiltonian(n, hd)
    q0 = rng.uniform(-1.0, 1.0, n)
    v = rng.standard_normal(n)
    v *= rng.uniform(0.2, 1.0) / np.linalg.norm(v)
    return n, h, mass, grad, lag, ham, q0, v, analytic


def angular_momenta(q, p):
    """The components q_i p_j - q_j p_i of each row pair, shape (rows, n, n)."""
    return q[:, :, None] * p[:, None, :] - q[:, None, :] * p[:, :, None]


NOETHER_STEPS = 60


@pytest.mark.parametrize("lagrangian", [True, False], ids=["lagrangian", "hamiltonian"])
@settings(max_examples=50)
@given(pair=central_pairs())
def test_rotation_invariance_conserves_angular_momentum(pair, lagrangian):
    """Discrete Noether: a rotation-invariant L or H conserves q_k x p_k.

    Invariance gives q x d1 L + q+ x d2 L = 0 for L, and q x dH/dq + p+ x
    dH/dp = 0 for H. A step meets momentum balance to its residual r, at most
    tol, and evaluates each slot gradient to within delta, zero for analytic
    slots and at most 20 FD_SCALE**2 for central differences (their
    round-off FD_SCALE**2 times the size of the terms of L or H, plus
    truncation FD_SCALE**2 |f'''| max(1, |x|)^2 / 6, both terms below 10 on
    these bounded runs). So each step moves every component of q x p by at
    most 2 max|q|_inf (tol + 2 delta), and N steps by N times that, plus
    the round-off of the two products compared.
    """
    n, h, _, _, lag, ham, q0, v, analytic = pair
    if lagrangian:
        system = DiscreteSystem.from_lagrangian(lag)
        traj = run_trajectory(system, builtin.lagrangian_seed(system, q0, q0 + h * v),
                              NOETHER_STEPS)
        q, p = traj.curve.q, traj.curve.p
    else:
        traj = run_trajectory(DiscreteSystem.from_hamiltonian(ham), (q0, 2.0 * v),
                              NOETHER_STEPS)
        q = np.vstack([traj.curve.q, traj.final_state[0]])
        p = np.vstack([traj.curve.p, traj.final_state[1]])
    assert_certified_and_finite(traj)
    moments = angular_momenta(q, p)
    drift = np.max(np.abs(moments - moments[0]))
    delta = 0.0 if analytic else 20.0 * FD_SCALE ** 2
    qmax, pmax = np.max(np.abs(q)), np.max(np.abs(p))
    bound = (2.0 * NOETHER_STEPS * qmax * (TOL + 2.0 * delta)
             + 8.0 * np.finfo(float).eps * qmax * pmax)
    assert drift <= bound, (drift, bound)


SYMPLECTIC_STEPS, SYMPLECTIC_TOL, SYMPLECTIC_DELTA = 5, 1e-13, 1e-5


@pytest.mark.parametrize("lagrangian", [True, False], ids=["lagrangian", "hamiltonian"])
@settings(max_examples=50)
@given(pair=central_pairs(analytic=st.just(True)))
def test_the_step_map_is_symplectic(pair, lagrangian):
    """Both kinds step by a symplectic map: J^T Omega J = Omega for J the
    Jacobian of (q_0, p_0) -> (q_N, p_N).

    J is central-differenced with step delta = 1e-5, on maps solved to tol
    1e-13 with analytic slots. Each step solves for its unknown to within
    tol times the inverse balance block (1 for H, h / m <= 0.2 for L) and
    completes the other half through a map of gain below 2 here, so a map
    value is exact to N 2^N tol and a difference quotient to N 2^N tol /
    delta, plus truncation delta^2 |F'''| / 6 with |F'''| below 6. Each entry
    of J^T Omega J sums 2n products of two entries of J, so it is off by at
    most 4n max|J| times the quotient error. A map that is not symplectic,
    explicit Euler say, is off by about h^2 = 2.5e-3 or more per step.
    """
    n, h, mass, grad, lag, ham, q0, v, _ = pair
    opts = SolverOptions(tol=SYMPLECTIC_TOL)
    steps, delta = SYMPLECTIC_STEPS, SYMPLECTIC_DELTA
    system = (DiscreteSystem.from_lagrangian(lag) if lagrangian
              else DiscreteSystem.from_hamiltonian(ham))

    def step_map(x):
        q, p = x[:n], x[n:]
        if lagrangian:
            # p = -d1 L(q, q1) solved for q1; L is quadratic in its second slot
            q1 = q + h * (p - h * grad(q)) / mass
            traj = run_trajectory(system, PontryaginPoint(q, p, q1), steps, opts)
            return np.concatenate([traj.curve.q[-1], traj.curve.p[-1]])
        traj = run_trajectory(system, (q, p), steps, opts)
        return np.concatenate(traj.final_state)

    x0 = np.concatenate([q0, 0.5 * v])
    jac = np.column_stack([(step_map(x0 + delta * e) - step_map(x0 - delta * e)) / (2.0 * delta)
                           for e in np.eye(2 * n)])
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    gap = np.max(np.abs(jac.T @ omega @ jac - omega))
    quotient = steps * 2.0 ** steps * SYMPLECTIC_TOL / delta + delta ** 2
    bound = 4 * n * np.max(np.abs(jac)) * quotient
    assert gap <= bound, (gap, bound)


def spherical_pendulum(h, mass, a, b, c, q0, v):
    """(L, H, dist, constraint, h, mass, grad V, q0, v): a spherical pendulum.

    The holonomic constraint g(q) = (|q|^2 - 1) / 2 enters as A(q) = Dg(q) =
    q^T and as the pair constraint phi(q, q+) = g(q+), with its analytic
    Jacobian q+^T: not a retraction, so every run calls phi and jac2 through
    their guarded path. L(q, q+) = m |q+ - q|^2 / 2h - h V(q) and H(q, p+) =
    q . p+ + h |p+|^2 / 2m + h V(q), with an axisymmetric V(q) = a q3 +
    b q3^2 / 2 + c (q1^2 + q2^2)^2 / 4, every slot analytic. q0 lies on the
    sphere and v is tangent there.
    """

    def potential(q):
        s = q[0] ** 2 + q[1] ** 2
        return a * q[2] + 0.5 * b * q[2] ** 2 + 0.25 * c * s * s

    def grad(q):
        s = q[0] ** 2 + q[1] ** 2
        return np.array([c * s * q[0], c * s * q[1], a + b * q[2]])

    lag = DiscreteLagrangian(
        3, lambda q, qp: float(mass * (qp - q) @ (qp - q) / (2.0 * h) - h * potential(q)),
        lambda q, qp: -mass * (qp - q) / h - h * grad(q), lambda q, qp: mass * (qp - q) / h)
    ham = DiscreteHamiltonian(
        3, lambda q, pp: float(q @ pp + h * pp @ pp / (2.0 * mass) + h * potential(q)),
        lambda q, pp: pp + h * grad(q), lambda q, pp: q + h * pp / mass)
    dist = KinematicDistribution(3, 1, lambda q: q.reshape(1, 3))
    constraint = DiscreteConstraint(3, 1, lambda q, qp: np.array([0.5 * (qp @ qp - 1.0)]),
                                    lambda q, qp: qp.reshape(1, 3))
    return lag, ham, dist, constraint, h, mass, grad, q0, v


@st.composite
def spherical_pendulums(draw):
    """A ``spherical_pendulum`` with h in {0.05, 0.1}, m and a in [0.5, 2],
    b and c each zero or drawn, and |v| in [0.1, 1]."""
    h = draw(st.sampled_from([0.05, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mass, a = rng.uniform(0.5, 2.0, 2)
    b = draw(st.booleans()) * rng.uniform(-1.0, 1.0)
    c = draw(st.booleans()) * rng.uniform(0.0, 1.0)
    q0 = rng.standard_normal(3)
    q0 /= np.linalg.norm(q0)
    v = rng.standard_normal(3)
    v -= (v @ q0) * q0
    v *= rng.uniform(0.1, 1.0) / np.linalg.norm(v)
    return spherical_pendulum(h, mass, a, b, c, q0, v)


def pendulum_run(pendulum, lagrangian, steps):
    """The run of one kind from the pendulum's seed, as its (q_k, p_k) rows.

    The Lagrangian seed is (q0, -d1 L(q0, q1), q1) with q1 = q0 + h v put
    back on the sphere; the Hamiltonian seed is (q0, m v).
    """
    lag, ham, dist, constraint, h, mass, _, q0, v = pendulum
    if lagrangian:
        system = DiscreteSystem.from_lagrangian(lag, dist, constraint)
        q1 = q0 + h * v
        traj = run_trajectory(system, builtin.lagrangian_seed(system, q0, q1 / np.linalg.norm(q1)),
                              steps)
        q, p = traj.curve.q, traj.curve.p
    else:
        traj = run_trajectory(DiscreteSystem.from_hamiltonian(ham, dist, constraint),
                              (q0, mass * v), steps)
        q = np.vstack([traj.curve.q, traj.final_state[0]])
        p = np.vstack([traj.curve.p, traj.final_state[1]])
    assert_certified_and_finite(traj)
    return q, p


PENDULUM_STEPS, SHAKE_STEPS = 100, 20


@pytest.mark.parametrize("lagrangian", [True, False], ids=["lagrangian", "hamiltonian"])
@settings(max_examples=50)
@given(pendulum=spherical_pendulums())
def test_the_spherical_pendulum_keeps_its_axial_momentum_and_its_sphere(pendulum, lagrangian):
    """A holonomic constraint is a particular case: the step is SHAKE
    (Marsden and West, Acta Numerica 2001, 3.5), so it keeps the axial
    momentum L_z = q1 p2 - q2 p1 of an axisymmetric L or H and the sphere.

    Discrete Noether: rotation about e3 leaves L, H and g invariant, and the
    constraint force lambda q has no axial torque, so an exact step keeps L_z.
    A step meets momentum balance to its residual, at most tol per entry, so
    it moves L_z by at most (|q1| + |q2|) tol <= 2 max|q|_inf tol, and N steps
    by N times that, plus the round-off of the two products compared. Each
    accepted q+ has |g(q+)| <= tol, so ||q+| - 1| = 2 |g| / (|q+| + 1) stays
    below tol, plus the round-off of g and of the norm, at every step: the
    bound does not grow with N.
    """
    q, p = pendulum_run(pendulum, lagrangian, PENDULUM_STEPS)
    eps = np.finfo(float).eps
    axial = q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0]
    drift = np.max(np.abs(axial - axial[0]))
    qmax, pmax = np.max(np.abs(q)), np.max(np.abs(p))
    bound = 2.0 * PENDULUM_STEPS * qmax * TOL + 8.0 * eps * qmax * pmax
    assert drift <= bound, (drift, bound)
    sphere = np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0))
    assert sphere <= TOL + 8.0 * eps, sphere


# the central-difference error of one slot gradient entry on the pendulum runs
# below, derived in the docstring of the FD-only property
FD_PENDULUM_DELTA = 100.0 * FD_SCALE ** 2


@pytest.mark.parametrize("lagrangian", [True, False], ids=["lagrangian", "hamiltonian"])
@settings(max_examples=20)
@given(pendulum=spherical_pendulums())
def test_an_fd_only_spherical_pendulum_keeps_its_axial_momentum_and_its_sphere(
        pendulum, lagrangian):
    """The pendulum above with L and H built without analytic partials: every
    slot gradient is a central difference, while phi and jac2 stay analytic.

    Each slot entry is then off by at most delta. With step h_i = FD_SCALE
    max(1, |x_i|) and FD_SCALE = eps^(1/3), a central quotient errs by its
    truncation h_i^2 |f'''| / 6, by the round-off of the two values of f over
    2 h_i, at most FD_SCALE^2 e_f / eps for e_f the error of one value, and by
    the rounding of x_i +- h_i, at most FD_SCALE^2 |f'| (eps / h_i =
    FD_SCALE^2 / max(1, |x_i|)). On these runs |q| = 1 to within tol, and
    energy bounds |p|: V varies by at most 2a + |b| / 2 + c / 4 <= 4.75 on the
    sphere and m |v|^2 / 2 <= 1, so |p|^2 <= 2m (5.75) <= 23 and |p|_inf <= 5
    (checked). Then |f'''| <= h 6 c |q| <= 0.6 (L and H are quadratic in q+
    and p+), |f'| <= |p| + h |grad V| + |q| <= 6.5, and the terms of L or H
    sum to at most |q| |p+| + h |p|^2 / m + h |V| <= 8, each rounded a few
    times, so e_f <= 64 eps. That gives delta <= (0.1 + 64 + 6.5) FD_SCALE^2,
    below FD_PENDULUM_DELTA = 100 FD_SCALE^2 = 3.7e-9.

    The drift then follows as for the analytic slots (Noether, with the
    constraint force lambda q carrying no axial torque): a step moves L_z by
    the axial part of q x (r + delta_1) and of the completion's error, q+ x
    delta_2 for L (p+ = d2 L) and delta_2 x p+ for H (q+ = dH/dp), so by at
    most 2 max|q|_inf (tol + delta) + 2 max|q or p|_inf delta, and N steps by
    N times that, plus the round-off of the products compared. The sphere
    bound is the analytic one: Newton accepts |g(q+)| <= tol whatever the
    slots are.
    """
    lag, ham, *rest = pendulum
    fd_only = (DiscreteLagrangian(3, lag.Ld), DiscreteHamiltonian(3, ham.Hd), *rest)
    q, p = pendulum_run(fd_only, lagrangian, PENDULUM_STEPS)
    eps = np.finfo(float).eps
    qmax, pmax = np.max(np.abs(q)), np.max(np.abs(p))
    assert pmax <= 5.0, pmax
    axial = q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0]
    drift = np.max(np.abs(axial - axial[0]))
    delta = FD_PENDULUM_DELTA
    bound = (2.0 * PENDULUM_STEPS * (qmax * (TOL + delta) + (qmax if lagrangian else pmax) * delta)
             + 8.0 * eps * qmax * pmax)
    assert drift <= bound, (drift, bound)
    sphere = np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0))
    assert sphere <= TOL + 8.0 * eps, sphere


def shake_step(pendulum, q, p):
    """The closed-form SHAKE step (q, p) -> (q+, p+) of the pendulum.

    q+ = w - mu q with w = q + (h / m)(p - h grad V(q)) and mu = h lambda / m
    the root nearest zero of |w - mu q|^2 = 1, taken in the cancellation-free
    form mu = (|w|^2 - 1) / (w.q + sign(w.q) sqrt((w.q)^2 - |q|^2 (|w|^2 - 1)));
    p+ = m (q+ - q) / h. The Lagrangian step from (q_k, p_k), p_k = d2 L(q_{k-1},
    q_k), and the Hamiltonian step from (q_k, p_k) are both this map.
    """
    *_, h, mass, grad, _, _ = pendulum
    w = q + h * (p - h * grad(q)) / mass
    wq, excess = w @ q, w @ w - 1.0
    mu = excess / (wq + np.copysign(np.sqrt(wq * wq - (q @ q) * excess), wq))
    qplus = w - mu * q
    return qplus, mass * (qplus - q) / h


@pytest.mark.parametrize("lagrangian", [True, False], ids=["lagrangian", "hamiltonian"])
@settings(max_examples=50)
@given(pendulum=spherical_pendulums())
def test_the_spherical_pendulum_steps_as_closed_form_shake(pendulum, lagrangian):
    """Each of the first steps equals the closed-form SHAKE step from the
    run's own (q_k, p_k), within a bound in tol.

    With r Newton's balance residual and mu its multiplier scaled by h / m,
    the accepted q+ is w - mu q - (h / m) r, and the exact step w - mu* q.
    Their gap e = (mu* - mu) q - (h / m) r has, from |q+|^2 - 1 = 2 g(q+),
    |mu* - mu| <= (|g| + (h / m) |r|_2 + |e|^2 / 2) / (q+* . q). Here h / m <=
    0.2, |r|_2 <= sqrt(3) tol, |g| <= tol and q+* . q = 1 - |q+* - q|^2 / 2
    >= 0.9 on these runs, so |e|_inf <= 2 tol; p+ = m (q+ - q) / h scales it
    by m / h. Each side rounds by a few eps in q and m / h times that in p.
    """
    *_, h, mass, _, _, _ = pendulum
    q, p = pendulum_run(pendulum, lagrangian, SHAKE_STEPS)
    eps = np.finfo(float).eps
    for k in range(len(q) - 1):
        qplus, pplus = shake_step(pendulum, q[k], p[k])
        gap_q, gap_p = np.max(np.abs(q[k + 1] - qplus)), np.max(np.abs(p[k + 1] - pplus))
        assert gap_q <= 2.0 * TOL + 16.0 * eps, (k, gap_q)
        assert gap_p <= mass / h * (2.0 * TOL + 16.0 * eps), (k, gap_p)


ORDER_T, ORDER_H_REF, ORDER_HS = 2.0, 5e-4, (0.04, 0.02, 0.01)


def order_final_configuration(lane, h):
    """The configuration at ORDER_T of a lane stepped at h.

    The oscillator starts on q = cos t, with q1 = cos h; its Hamiltonian kind
    takes (q0, p0) of that Lagrangian seed, the right-Legendre pair's seed, so
    both kinds step one curve. The particle starts at q0 with an admissible
    velocity, q1 = q0 + h v. The constrained Hamiltonian particle is the
    free-particle H on the particle's distribution and retraction, from
    (q0, p0) = ([0, 0.5, 0], [1, 0.2, 0.7]). The spherical pendulum, of either
    kind, is the property fixture's with m = 1 and V = q3, from q0 = (0.6, 0,
    -0.8) with v = (0, 0.7, 0).
    """
    steps = round(ORDER_T / h)
    if lane.startswith("spherical_pendulum"):
        pendulum = spherical_pendulum(h, 1.0, 1.0, 0.0, 0.0, np.array([0.6, 0.0, -0.8]),
                                      np.array([0.0, 0.7, 0.0]))
        return pendulum_run(pendulum, lane == "spherical_pendulum", steps)[0][steps]
    if lane == "constrained_hamiltonian_particle":
        nh = builtin.nonholonomic_particle(h)
        system = DiscreteSystem.from_hamiltonian(
            builtin.free_particle_hamiltonian(h, 3).hamiltonian, nh.dist, nh.constraint)
        seed = ([0.0, 0.5, 0.0], [1.0, 0.2, 0.7])
    elif lane == "nonholonomic_particle":
        system = builtin.nonholonomic_particle(h)
        q0 = np.array([0.0, 0.5, 0.0])
        seed = builtin.lagrangian_seed(system, q0, q0 + h * np.array([1.0, 0.2, 0.5]))
    else:
        lagrangian = builtin.harmonic_oscillator(h)
        seed = builtin.lagrangian_seed(lagrangian, [1.0], [np.cos(h)])
        system = getattr(builtin, lane)(h)
        if lane == "harmonic_oscillator_hamiltonian":
            seed = (seed.q, seed.p)
    return run_trajectory(system, seed, steps).curve.qplus[steps - 1]


@pytest.mark.parametrize("lane, order", [("harmonic_oscillator", 2.0),
                                         ("harmonic_oscillator_hamiltonian", 2.0),
                                         ("nonholonomic_particle", 1.0),
                                         ("constrained_hamiltonian_particle", 1.0),
                                         ("spherical_pendulum", 1.0),
                                         ("spherical_pendulum_hamiltonian", 1.0)])
def test_each_built_in_converges_at_its_order(lane, order):
    """The slope of log error against log h, over three step sizes, against a
    run at h = ORDER_H_REF, is the lane's order within 0.15: the oscillator is
    Stormer-Verlet in its configurations; the particle's constraint, on either
    side, reads A at the left point only; and the pendulum's L = m |q+ - q|^2
    / 2h - h V(q) evaluates V at the left point only, so it is first order,
    though SHAKE with the symmetric h (V(q) + V(q+)) / 2 is second."""
    reference = order_final_configuration(lane, ORDER_H_REF)
    errors = [np.max(np.abs(order_final_configuration(lane, h) - reference)) for h in ORDER_HS]
    slope = np.polyfit(np.log(ORDER_HS), np.log(errors), 1)[0]
    assert abs(slope - order) <= 0.15, (errors, slope)


def energy_deviation(lane, h, T):
    """(E_k - E_0) / |E_0| along the rows of a lane stepped at h up to T.

    E_k = |p_k|^2 / 2 + V(q_k) with unit mass, on the curve's rows and, for
    a Hamiltonian run, its final state; a Lagrangian run's seed row is
    skipped, since its p0 = -d1 L(q0, q1) is not a carried momentum. The
    lanes and seeds are those of ``order_final_configuration``: V = q^2 / 2
    for the oscillator, 0 for the particle and q3 for the pendulum.
    """
    steps = round(T / h)
    lagrangian = not lane.endswith("hamiltonian")
    if lane.startswith("spherical_pendulum"):
        pendulum = spherical_pendulum(h, 1.0, 1.0, 0.0, 0.0, np.array([0.6, 0.0, -0.8]),
                                      np.array([0.0, 0.7, 0.0]))
        q, p = pendulum_run(pendulum, lagrangian, steps)
        potential = q[:, 2]
    else:
        if lane == "nonholonomic_particle":
            system = builtin.nonholonomic_particle(h)
            q0 = np.array([0.0, 0.5, 0.0])
            seed = builtin.lagrangian_seed(system, q0, q0 + h * np.array([1.0, 0.2, 0.5]))
        else:
            seed = builtin.lagrangian_seed(builtin.harmonic_oscillator(h), [1.0], [np.cos(h)])
            system = getattr(builtin, lane)(h)
            seed = seed if lagrangian else (seed.q, seed.p)
        traj = run_trajectory(system, seed, steps)
        assert traj.max_inclusion_residual <= 10.0 * TOL
        q, p = traj.curve.q, traj.curve.p
        if not lagrangian:
            q, p = np.vstack([q, traj.final_state[0]]), np.vstack([p, traj.final_state[1]])
        potential = 0.5 * q[:, 0] ** 2 if lane.startswith("harmonic") else 0.0
    energy = (0.5 * np.sum(p * p, axis=1) + potential)[1 if lagrangian else 0:]
    assert np.isfinite(energy).all()
    return (energy - energy[0]) / abs(energy[0])


# lane: (T and step sizes of the slope runs, T and h of the drift run)
ENERGY_LANES = {
    "harmonic_oscillator": ((500.0, (0.1, 0.05)), (500.0, 0.1)),
    "harmonic_oscillator_hamiltonian": ((500.0, (0.1, 0.05)), (500.0, 0.1)),
    "nonholonomic_particle": ((50.0, (0.1, 0.05)), (500.0, 0.2)),
    "spherical_pendulum": ((7.0, (0.0125, 0.00625)), (100.0, 0.1)),
    "spherical_pendulum_hamiltonian": ((7.0, (0.0125, 0.00625)), (100.0, 0.1)),
}


@pytest.mark.parametrize("lane", list(ENERGY_LANES))
def test_each_built_in_keeps_its_energy_within_c_h(lane):
    """The largest relative energy deviation is C h: the slope of its log
    against log h is 1 within 0.15. Every lane is first order in energy, the
    oscillator too, whose configurations are second order (Stormer-Verlet):
    its p_k is the one-sided difference (q_k - q_{k-1}) / h. The pendulum's
    slope is 1.5 over h = 0.1, 0.05, 0.025 and comes down to 1.1 only at h =
    0.0125 and 0.00625, so it is measured there, over a short T that already
    holds the largest deviation."""
    (T, hs), _ = ENERGY_LANES[lane]
    worst = [np.max(np.abs(energy_deviation(lane, h, T))) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(worst), 1)[0]
    assert abs(slope - 1.0) <= 0.15, (worst, slope)


@pytest.mark.parametrize("lane", list(ENERGY_LANES))
def test_each_built_in_energy_does_not_drift(lane):
    """Over ten equal windows of a long run, every window's mean relative
    energy deviation differs from the first window's by at most 0.1 times
    the largest deviation: the energy error oscillates and does not grow."""
    _, (T, h) = ENERGY_LANES[lane]
    deviation = energy_deviation(lane, h, T)
    means = np.array([w.mean() for w in np.array_split(deviation, 10)])
    worst = np.max(np.abs(deviation))
    assert np.max(np.abs(means - means[0])) <= 0.1 * worst, (means, worst)
