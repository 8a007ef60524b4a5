"""Print a work-precision table: per lane and step size, the error at T and the cost per step.

Each lane runs through ``run_trajectory`` from a fixed seed up to T = 2 at
each h of HS. Its error is the largest entry of |q_T(h) - q_T(H_REF)|, the
final configuration against a run of the same lane at H_REF. Its cost is
the in-process µs per step of that run, the best of REPEAT runs with GC off
(``timeit``), and the work to reach T is that times the number of steps.
The lanes are:

- osc-L, osc-H: the oscillator of both kinds on q = cos t; the Hamiltonian
  one starts from (q0, p0) of the Lagrangian seed (q0, q1) = (1, cos h);
- nonholonomic: the built-in particle, whose pair constraint
  A(q) (q+ - q) reads A at the left point;
- midpoint: the same particle with phi(q, q+) = A((q + q+) / 2) (q+ - q)
  and its analytic jac2, built from the public API (McLachlan and
  Perlmutter, J. Nonlinear Sci. 16, 2006).

Both particles start at q0 = (0, 0.5, 0) with q1 = q0 + h (1, 0.2, 0.5). The
midpoint particle moves q1 along A(q0)^T onto its own constraint: the first
step's multiplier absorbs a move in that direction, so the seed keeps its
velocity along the distribution.
A cost per step includes the run's setup, which weighs most on the fewest
steps. Times vary by host; the errors do not.

Usage: python tools/work_precision.py
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diracmech import DiscreteConstraint, DiscreteSystem, builtin, run_trajectory  # noqa: E402

LANES = ("osc-L", "osc-H", "nonholonomic", "midpoint")
T, H_REF, HS, REPEAT = 2.0, 5e-4, (0.04, 0.02, 0.01, 0.005), 5


def midpoint_particle(h: float) -> DiscreteSystem:
    """The nonholonomic particle with the pair constraint A((q + q+) / 2) (q+ - q)."""
    nh = builtin.nonholonomic_particle(h)

    def phi(q, qplus):
        mid, d = 0.5 * (q + qplus), qplus - q
        return np.array([d[2] - mid[1] * d[0]])

    def jac2(q, qplus):
        return np.array([[-0.5 * (q[1] + qplus[1]), -0.5 * (qplus[0] - q[0]), 1.0]])

    constraint = DiscreteConstraint(3, 1, phi, jac2)
    return DiscreteSystem.from_lagrangian(nh.lagrangian, nh.dist, constraint, label="midpoint")


def lane_run(lane: str, h: float):
    """(system, seed, steps) of a lane stepped at h up to T."""
    if lane.startswith("osc"):
        system = builtin.harmonic_oscillator(h)
        seed = builtin.lagrangian_seed(system, [1.0], [np.cos(h)])
        if lane == "osc-H":
            system, seed = builtin.harmonic_oscillator_hamiltonian(h), (seed.q, seed.p)
    else:
        q0 = np.array([0.0, 0.5, 0.0])
        q1 = q0 + h * np.array([1.0, 0.2, 0.5])
        if lane == "nonholonomic":
            system = builtin.nonholonomic_particle(h)
        else:
            system = midpoint_particle(h)
            # phi(q0, .) is linear along a = A(q0)^T, so one Newton step solves it
            a, constraint = system.dist.matrix(q0)[0], system.constraint
            q1 -= constraint.value(q0, q1)[0] / constraint.jacobian2(q0, q1)[0].dot(a) * a
        seed = builtin.lagrangian_seed(system, q0, q1)
    return system, seed, round(T / h)


def final_configuration(lane: str, h: float) -> np.ndarray:
    system, seed, steps = lane_run(lane, h)
    return run_trajectory(system, seed, steps).curve.qplus[steps - 1]


def us_per_step(lane: str, h: float) -> float:
    """The best µs per step of REPEAT runs of a lane at h, GC off."""
    system, seed, steps = lane_run(lane, h)
    return min(timeit.repeat(lambda: run_trajectory(system, seed, steps), number=1,
                             repeat=REPEAT)) / steps * 1e6


def measure() -> list:
    """One row (lane, h, steps, error, µs per step) per lane and h."""
    rows = []
    for lane in LANES:
        reference = final_configuration(lane, H_REF)
        for h in HS:
            error = float(np.max(np.abs(final_configuration(lane, h) - reference)))
            rows.append((lane, h, round(T / h), error, us_per_step(lane, h)))
    return rows


def table(rows) -> list:
    """The report lines of ``rows``: a header, then one line per row with the work to reach T."""
    lines = ["%-13s %7s %6s %10s %9s %9s" % ("lane", "h", "steps", "error", "us/step",
                                             "ms to T")]
    for lane, h, steps, error, us in rows:
        lines.append("%-13s %7g %6d %10.3e %9.2f %9.2f" % (lane, h, steps, error, us,
                                                            us * steps / 1e3))
    return lines


def main() -> int:
    print("error at T = %g against h = %g; in-process best of %d, GC off" % (T, H_REF, REPEAT))
    print("\n".join(table(measure())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
