"""Ready-made discrete systems used by the command line and the test suite.

All built-ins carry the time step h inside the generating function itself, so
h is an ordinary parameter and never a solver setting. Hamiltonian variants
are the exact right Legendre transforms of their Lagrangian counterparts.
"""

from __future__ import annotations

import numpy as np

from .bundle import KinematicDistribution, PontryaginPoint
from .systems import (
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteSystem,
    retraction_constraint,
)


def _check_parameters(h: float, lam: float = 1.0) -> None:
    # NaN fails every comparison
    if not (0.0 < h < np.inf and -np.inf < lam < np.inf):
        raise ValueError("h must be positive and finite and lam finite, got h=%r, lam=%r"
                         % (h, lam))


def harmonic_oscillator(h: float, lam: float = 1.0) -> DiscreteSystem:
    """1-d oscillator, L(q, q+) = h [ ((q+ - q)/h)^2 / 2 - (lam/2) q^2 ]."""
    _check_parameters(h, lam)

    def Ld(q, qp):
        d = (qp[0] - q[0]) / h
        return h * (0.5 * d * d - 0.5 * lam * q[0] * q[0])

    # gradients work on Python floats: a stepper calls them several times a
    # step, and numpy scalar arithmetic costs several times more
    def d1(q, qp):
        q0 = float(q[0])
        return np.array([-(float(qp[0]) - q0) / h - h * lam * q0])

    def d2(q, qp):
        return np.array([(float(qp[0]) - float(q[0])) / h])

    lag = DiscreteLagrangian(1, Ld, d1, d2)
    return DiscreteSystem.from_lagrangian(lag, label="harmonic_oscillator")


def harmonic_oscillator_hamiltonian(h: float, lam: float = 1.0) -> DiscreteSystem:
    """Right Legendre transform of the oscillator: H(q, p+) = q p+ + (h/2) p+^2 + (h lam/2) q^2."""
    _check_parameters(h, lam)

    def Hd(q, pp):
        return q[0] * pp[0] + 0.5 * h * pp[0] * pp[0] + 0.5 * h * lam * q[0] * q[0]

    def dq(q, pp):
        return np.array([float(pp[0]) + h * lam * float(q[0])])

    def dp(q, pp):
        return np.array([float(q[0]) + h * float(pp[0])])

    ham = DiscreteHamiltonian(1, Hd, dq, dp)
    return DiscreteSystem.from_hamiltonian(ham, label="harmonic_oscillator_hamiltonian")


def _mass_vector(n: int, mass) -> np.ndarray:
    m = np.atleast_1d(np.asarray(mass, dtype=float))
    if m.shape == (1,) and n > 1:
        m = np.full(n, m[0])
    if m.shape != (n,):
        raise ValueError("mass must be a scalar or a vector of length %d" % n)
    if not np.all((m > 0.0) & (m < np.inf)):
        raise ValueError("masses must be positive and finite")
    return m


def free_particle_lagrangian(h: float, n: int = 1, mass=1.0) -> DiscreteLagrangian:
    _check_parameters(h)
    m = _mass_vector(n, mass)

    def Ld(q, qp):
        d = qp - q
        return float(m @ (d * d)) / (2.0 * h)

    def d1(q, qp):
        return -m * (qp - q) / h

    def d2(q, qp):
        return m * (qp - q) / h

    return DiscreteLagrangian(n, Ld, d1, d2)


def free_particle(h: float, n: int = 1, mass=1.0) -> DiscreteSystem:
    """Unconstrained particle, L(q, q+) = |q+ - q|_m^2 / (2h)."""
    lag = free_particle_lagrangian(h, n, mass)
    return DiscreteSystem.from_lagrangian(lag, label="free_particle")


def free_particle_hamiltonian(h: float, n: int = 1, mass=1.0) -> DiscreteSystem:
    """Legendre transform of the free particle: H(q, p+) = q . p+ + h |p+|^2_{1/m} / 2."""
    _check_parameters(h)
    m = _mass_vector(n, mass)

    def Hd(q, pp):
        return float(q @ pp) + 0.5 * h * float((pp * pp) @ (1.0 / m))

    def dq(q, pp):
        return pp.copy()

    def dp(q, pp):
        return q + h * pp / m

    ham = DiscreteHamiltonian(n, Hd, dq, dp)
    return DiscreteSystem.from_hamiltonian(ham, label="free_particle_hamiltonian")


def nonholonomic_particle(h: float, mass=1.0) -> DiscreteSystem:
    """Free particle in R^3 under the velocity constraint dq3 = q2 dq1.

    The annihilator row is A(q) = [-q2, 0, 1]; the pair constraint is the one
    induced by the identity-chart retraction, phi(q, q+) = A(q) (q+ - q).
    """
    lag = free_particle_lagrangian(h, 3, mass)
    dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
    constraint = retraction_constraint(dist)
    return DiscreteSystem.from_lagrangian(lag, dist, constraint, label="nonholonomic_particle")


def lagrangian_seed(system: DiscreteSystem, q0, q1) -> PontryaginPoint:
    """Seed point (q0, p0, q1) with p0 = -d1 L(q0, q1), the consistent choice."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    p0 = -system.lagrangian.d1(q0, q1)
    return PontryaginPoint(q0, p0, q1)
