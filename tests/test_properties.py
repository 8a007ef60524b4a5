"""Property suite for the constrained lane: every run is certified or fails typed.

Each example is a random smooth discrete Lagrangian (finite-difference
derivatives only) under a random annihilator A(q) that is affine in q, with
the retraction pair constraint, optionally undefined (NaN) outside a ball.
A run either certifies every step with finite values, or ends in a typed
DiracMechError that carries the certified partial trajectory.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from diracmech import (  # noqa: E402
    DegenerateConstraintError,
    DiracMechError,
    DiscreteLagrangian,
    DiscreteSystem,
    KinematicDistribution,
    SolverOptions,
    StepFailureError,
    retraction_constraint,
    run_trajectory,
)
from diracmech import builtin  # noqa: E402

H = 0.1
TOL = SolverOptions().tol


@st.composite
def constrained_runs(draw):
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, n - 1))
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

    def ld(q, qp):
        if wall is not None and max(np.abs(q).max(), np.abs(qp).max()) > wall:
            return float("nan")
        d = (qp - q) / H
        potential = 0.5 * q @ stiff @ q + amp @ np.cos(freq @ q)
        return float(H * (0.5 * d @ mass @ d + 0.25 * quartic * np.sum(d ** 4) - potential))

    a0 = rng.standard_normal((m, n))
    a1 = slope * rng.standard_normal((n, m, n))

    def annihilator(q):
        return a0 + np.tensordot(q, a1, axes=1)

    dist = KinematicDistribution(n, m, annihilator)
    system = DiscreteSystem.from_lagrangian(DiscreteLagrangian(n, ld), dist,
                                            retraction_constraint(dist))
    q0 = 0.3 * rng.standard_normal(n)
    try:
        v = dist.project_ker(q0, rng.standard_normal(n))
    except DegenerateConstraintError:
        v = None
    assume(v is not None and np.linalg.norm(v) > 1e-3)
    v *= speed / np.linalg.norm(v)
    seed = builtin.lagrangian_seed(system, q0, q0 + H * v)
    assume(np.isfinite(seed.p).all())
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


@settings(max_examples=60)
@given(constrained_runs())
def test_constrained_run_certifies_or_fails_typed(case):
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
    else:
        assert traj.steps == steps
        assert_certified_and_finite(traj)
