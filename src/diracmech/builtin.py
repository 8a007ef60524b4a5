"""Ready-made discrete systems used by the command line and the test suite.

All built-ins carry the time step h inside the generating function itself, so
h is an ordinary parameter and never a solver setting. Hamiltonian variants
are the exact right Legendre transforms of their Lagrangian counterparts.
Every parameter goes through the rules of ``linalg``: h and each mass must
be positive and finite, lam finite and n a positive integer (ValueError
otherwise), and the builders close over the checked Python floats.
"""

from __future__ import annotations

import numpy as np

from .bundle import KinematicDistribution, PontryaginPoint
from .errors import UnsupportedOperationError
from .linalg import _count, _real, _vector
from .systems import (
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteSystem,
    retraction_constraint,
)


def harmonic_oscillator(h: float, lam: float = 1.0) -> DiscreteSystem:
    """1-d oscillator, L(q, q+) = h [ ((q+ - q)/h)^2 / 2 - (lam/2) q^2 ]."""
    h, lam = _real(h, "h", positive=True), _real(lam, "lam")

    def Ld(q, qp):
        d = (qp[0] - q[0]) / h
        return h * (0.5 * d * d - 0.5 * lam * q[0] * q[0])

    # gradients work on Python floats: a stepper calls them several times a
    # step, and numpy scalar arithmetic costs several times more
    def d1(q, qp):
        q0 = q.item()
        return np.array([-(qp.item() - q0) / h - h * lam * q0])

    def d2(q, qp):
        return np.array([(qp.item() - q.item()) / h])

    lag = DiscreteLagrangian(1, Ld, d1, d2)
    return DiscreteSystem.from_lagrangian(lag, label="harmonic_oscillator")


def harmonic_oscillator_hamiltonian(h: float, lam: float = 1.0) -> DiscreteSystem:
    """Right Legendre transform of the oscillator: H(q, p+) = q p+ + (h/2) p+^2 + (h lam/2) q^2."""
    h, lam = _real(h, "h", positive=True), _real(lam, "lam")

    def Hd(q, pp):
        return q[0] * pp[0] + 0.5 * h * pp[0] * pp[0] + 0.5 * h * lam * q[0] * q[0]

    def dq(q, pp):
        return np.array([pp.item() + h * lam * q.item()])

    def dp(q, pp):
        return np.array([q.item() + h * pp.item()])

    ham = DiscreteHamiltonian(1, Hd, dq, dp)
    return DiscreteSystem.from_hamiltonian(ham, label="harmonic_oscillator_hamiltonian")


def _particle(h: float, n: int, mass) -> tuple:
    """The checked h, n and mass vector of a particle; one mass serves every dimension."""
    h, n = _real(h, "h", positive=True), _count(n, "n", 1)
    try:
        masses = list(mass) if np.ndim(mass) else [mass]
    except ValueError as exc:  # numpy's error on a ragged nesting names no argument
        raise ValueError("'mass' must be a number or a vector of numbers, got %r"
                         % (mass,)) from exc
    if len(masses) == 1:
        masses *= n
    if len(masses) != n:
        raise ValueError("'mass' must be a scalar or a vector of length %d" % n)
    return h, n, np.array([_real(v, "mass", positive=True) for v in masses])


def free_particle_lagrangian(h: float, n: int = 1, mass=1.0) -> DiscreteLagrangian:
    h, n, m = _particle(h, n, mass)
    neg_m = -m  # negation is exact: the same bits as -m in every call, one operation fewer

    def Ld(q, qp):
        d = qp - q
        return float(m.dot(d * d)) / (2.0 * h)

    def d1(q, qp):
        return neg_m * (qp - q) / h

    def d2(q, qp):
        return m * (qp - q) / h

    return DiscreteLagrangian(n, Ld, d1, d2)


def free_particle(h: float, n: int = 1, mass=1.0) -> DiscreteSystem:
    """Unconstrained particle, L(q, q+) = |q+ - q|_m^2 / (2h)."""
    lag = free_particle_lagrangian(h, n, mass)
    return DiscreteSystem.from_lagrangian(lag, label="free_particle")


def free_particle_hamiltonian(h: float, n: int = 1, mass=1.0) -> DiscreteSystem:
    """Legendre transform of the free particle: H(q, p+) = q . p+ + h |p+|^2_{1/m} / 2."""
    h, n, m = _particle(h, n, mass)

    def Hd(q, pp):
        return float(q.dot(pp)) + 0.5 * h * float((pp * pp).dot(1.0 / m))

    def dq(q, pp):
        return pp.copy()

    def dp(q, pp):
        return q + h * pp / m

    ham = DiscreteHamiltonian(n, Hd, dq, dp)
    return DiscreteSystem.from_hamiltonian(ham, label="free_particle_hamiltonian")


def nonholonomic_particle(h: float, mass=1.0) -> DiscreteSystem:
    """Free particle in R^3 under the velocity constraint dq3 = q2 dq1.

    The annihilator row is A(q) = [-q2, 0, 1]; the pair constraint is the one
    induced by the identity-chart retraction, phi(q, q+) = A(q) (q+ - q). It
    retracts the system's own distribution, so a run computes phi and its
    Jacobian A(q) from the A(q) it looks up once per step and calls neither
    closure (see ``retraction_constraint``).
    """
    lag = free_particle_lagrangian(h, 3, mass)
    dist = KinematicDistribution(3, 1, lambda q: np.array([[-q[1], 0.0, 1.0]]))
    constraint = retraction_constraint(dist)
    return DiscreteSystem.from_lagrangian(lag, dist, constraint, label="nonholonomic_particle")


def lagrangian_seed(system: DiscreteSystem, q0, q1) -> PontryaginPoint:
    """Seed point (q0, p0, q1) with p0 = -d1 L(q0, q1), the consistent choice.

    q0 and q1 must be vectors of the system's dimension (a scalar serves
    n = 1); DimensionMismatchError names the one that is not.
    """
    if system.lagrangian is None:
        raise UnsupportedOperationError("a Lagrangian seed needs a Lagrangian-kind system")
    q0, q1 = _vector(q0, "q0", system.n), _vector(q1, "q1", system.n)
    p0 = -system.lagrangian.d1(q0, q1)
    return PontryaginPoint(q0, p0, q1)
