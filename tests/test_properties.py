"""Property suite for every lane: each run is certified or fails typed.

Each example is a random smooth discrete Lagrangian or Hamiltonian
(finite-difference derivatives only), unconstrained or under a random
annihilator A(q) that is affine in q with the retraction pair constraint,
optionally undefined (NaN) outside a ball. A run either certifies every step
with finite values, or ends in a StepFailureError caused by a typed
DiracMechError that carries the certified partial trajectory (for a
Hamiltonian run, none when the first step fails). Every recorded
certificate also equals a fresh evaluation of the inclusion residual at the
stored point and its p_next.
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
    StepFailureError,
    dirac_inclusion_residual,
    retraction_constraint,
    run_trajectory,
)
from diracmech import builtin  # noqa: E402

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
    else:
        assert traj.steps == steps
        assert len(traj.curve) == steps + 1
        assert_certified_and_finite(traj)
        assert_certificates_reproduce(system, traj)


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
    else:
        assert traj.steps == len(traj.curve) == steps
        assert traj.final_state is not None
        assert_certified_and_finite(traj)
        assert_certificates_reproduce(system, traj)


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
