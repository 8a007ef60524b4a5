"""Discrete Lagrangian and Hamiltonian systems with constraints.

A discrete Lagrangian is a two-point generating function L(q, q+); a discrete
(right) Hamiltonian is H(q, p+). Slot derivatives come from user-supplied
analytic gradients when available and central finite differences otherwise,
with an optional consistency check at construction. The module also provides
the two one-form families the steppers solve against and the membership
residual of the per-step inclusion, which is the step-acceptance oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bundle import CotangentPd, KinematicDistribution, PontryaginPoint
from .errors import DimensionMismatchError, EvaluationError
# not called here since the certificate projects through the distribution's
# memo; bench/tracing.py still wraps this module attribute by name
from .linalg import orthonormal_columns  # noqa: F401

# Standard central-difference step base for first derivatives.
FD_SCALE = float(np.finfo(float).eps) ** (1.0 / 3.0)

_F64 = np.dtype(float)


def _covector(x, n: int, name: str) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype == _F64 and x.shape == (n,):
        return x
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (n,):
        raise DimensionMismatchError("%s has shape %r, expected (%d,)" % (name, arr.shape, n))
    return arr

_VALIDATION_SEED = 20240613
_VALIDATION_PROBES = 4
_VALIDATION_RTOL = 1e-5


def central_difference(f: Callable[..., float], args: Sequence[np.ndarray], block: int,
                       scale: float = FD_SCALE) -> np.ndarray:
    """Gradient of the scalar f with respect to args[block], central differences.

    Step per component: scale * max(1, |component|).
    """
    work = [np.asarray(a, dtype=float) for a in args]
    x = work[block]
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        h = scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        work[block] = xp
        fp = f(*work)
        work[block] = xm
        fm = f(*work)
        grad[i] = (fp - fm) / (2.0 * h)
    work[block] = x
    return grad


def jacobian_columns(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                     scale: float = FD_SCALE) -> np.ndarray:
    """Jacobian of a vector-valued function by central differences, one column per input."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 1:
        h = scale * max(1.0, abs(float(x[0])))
        col = (np.asarray(fun(x + h), dtype=float) - np.asarray(fun(x - h), dtype=float)) / (2.0 * h)
        return col.reshape(-1, 1)
    cols = []
    for i in range(x.shape[0]):
        h = scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fun(xp), dtype=float) - np.asarray(fun(xm), dtype=float)) / (2.0 * h))
    if not cols:
        return np.zeros((0, 0))
    return np.column_stack(cols)


@dataclass
class DerivativeProvider:
    """A scalar function of one or two vector blocks plus per-block gradients.

    ``grads`` holds one callable per block; a None entry falls back to central
    finite differences on ``f``.
    """

    f: Callable[..., float]
    grads: tuple
    fd_scale: float = FD_SCALE

    def gradient(self, block: int, *args) -> np.ndarray:
        return self.bound(block)(*args)

    def bound(self, block: int) -> Callable[..., np.ndarray]:
        """A single-frame callable for one block's gradient (analytic or FD)."""
        g = self.grads[block]
        if g is None:
            fd_gradient = self.fd_gradient
            return lambda *args: fd_gradient(block, *args)

        def call(*args):
            try:
                out = g(*args)
            except Exception as exc:
                raise EvaluationError("analytic gradient for block %d failed: %s"
                                      % (block, exc)) from exc
            if type(out) is np.ndarray and out.dtype == _F64 and out.ndim == 1:
                return out
            return np.atleast_1d(np.asarray(out, dtype=float))

        return call

    def fd_gradient(self, block: int, *args) -> np.ndarray:
        try:
            return central_difference(self.f, args, block, self.fd_scale)
        except Exception as exc:
            raise EvaluationError("finite-difference gradient for block %d failed: %s"
                                  % (block, exc)) from exc

    def max_fd_deviation(self, probes: Sequence[Sequence[np.ndarray]]) -> float:
        """Worst relative gap between analytic and finite-difference gradients."""
        worst = 0.0
        for args in probes:
            for block, g in enumerate(self.grads):
                if g is None:
                    continue
                ana = self.gradient(block, *args)
                num = self.fd_gradient(block, *args)
                scale = max(1.0, float(np.max(np.abs(num))) if num.size else 0.0)
                gap = float(np.max(np.abs(ana - num))) / scale if ana.size else 0.0
                worst = max(worst, gap)
        return worst


def _standard_probes(block_dims: Sequence[int], count: int = _VALIDATION_PROBES):
    rng = np.random.default_rng(_VALIDATION_SEED)
    return [tuple(rng.standard_normal(d) for d in block_dims) for _ in range(count)]


def _validate_provider(provider: DerivativeProvider, block_dims: Sequence[int], what: str):
    if all(g is None for g in provider.grads):
        return
    worst = provider.max_fd_deviation(_standard_probes(block_dims))
    if not worst < _VALIDATION_RTOL:
        raise ValueError(
            "analytic partials of %s disagree with central differences "
            "(relative deviation %.3e, allowed %.0e); pass validate=False to skip this check"
            % (what, worst, _VALIDATION_RTOL)
        )


class DiscreteLagrangian:
    """A two-point generating function L(q, q+) with slot derivatives d1, d2."""

    def __init__(self, n: int, Ld: Callable[[np.ndarray, np.ndarray], float],
                 d1: Optional[Callable] = None, d2: Optional[Callable] = None,
                 fd_scale: float = FD_SCALE, validate: bool = True):
        if n < 1:
            raise DimensionMismatchError("dimension must be positive")
        self.n = int(n)
        self.Ld = Ld
        self.provider = DerivativeProvider(Ld, (d1, d2), fd_scale)
        if validate:
            _validate_provider(self.provider, (self.n, self.n), "the discrete Lagrangian")
        # bound per-slot gradients keep the per-call dispatch to one frame
        self.d1 = self.provider.bound(0)
        self.d2 = self.provider.bound(1)

    def value(self, q, qplus) -> float:
        try:
            return float(self.Ld(np.asarray(q, dtype=float), np.asarray(qplus, dtype=float)))
        except Exception as exc:
            raise EvaluationError("Lagrangian evaluation failed: %s" % exc) from exc


class DiscreteHamiltonian:
    """A right discrete Hamiltonian H(q, p+) with partials in q and p+."""

    def __init__(self, n: int, Hd: Callable[[np.ndarray, np.ndarray], float],
                 dq: Optional[Callable] = None, dp: Optional[Callable] = None,
                 fd_scale: float = FD_SCALE, validate: bool = True):
        if n < 1:
            raise DimensionMismatchError("dimension must be positive")
        self.n = int(n)
        self.Hd = Hd
        self.provider = DerivativeProvider(Hd, (dq, dp), fd_scale)
        if validate:
            _validate_provider(self.provider, (self.n, self.n), "the discrete Hamiltonian")
        self.dq = self.provider.bound(0)
        self.dp = self.provider.bound(1)

    def value(self, q, pplus) -> float:
        try:
            return float(self.Hd(np.asarray(q, dtype=float), np.asarray(pplus, dtype=float)))
        except Exception as exc:
            raise EvaluationError("Hamiltonian evaluation failed: %s" % exc) from exc


class DiscreteConstraint:
    """The pair submanifold as a zero set phi(q, q+) = 0 of codimension md."""

    def __init__(self, n: int, md: int, phi: Optional[Callable] = None,
                 jac2: Optional[Callable] = None, fd_scale: float = FD_SCALE):
        if n < 1 or md < 0 or md > n:
            raise DimensionMismatchError("need 0 <= md <= n with n >= 1, got md=%d n=%d" % (md, n))
        if md > 0 and phi is None:
            raise ValueError("a constraint function is required when md > 0")
        self.n = int(n)
        self.md = int(md)
        self.phi = phi
        self._jac2 = jac2
        self.fd_scale = fd_scale

    @classmethod
    def unconstrained(cls, n: int) -> "DiscreteConstraint":
        return cls(n, 0)

    def value(self, q, qplus) -> np.ndarray:
        if self.md == 0:
            return np.zeros(0)
        try:
            out = np.atleast_1d(np.asarray(self.phi(np.asarray(q, dtype=float),
                                                    np.asarray(qplus, dtype=float)), dtype=float))
        except Exception as exc:
            raise EvaluationError("constraint evaluation failed: %s" % exc) from exc
        if out.shape != (self.md,):
            raise DimensionMismatchError("constraint returned shape %r, expected (%d,)"
                                         % (out.shape, self.md))
        return out

    def jacobian2(self, q, qplus) -> np.ndarray:
        """md x n Jacobian of phi in its second slot."""
        if self.md == 0:
            return np.zeros((0, self.n))
        if self._jac2 is not None:
            try:
                out = np.atleast_2d(np.asarray(self._jac2(np.asarray(q, dtype=float),
                                                          np.asarray(qplus, dtype=float)), dtype=float))
            except Exception as exc:
                raise EvaluationError("constraint Jacobian failed: %s" % exc) from exc
            if out.shape != (self.md, self.n):
                raise DimensionMismatchError("constraint Jacobian shape %r, expected (%d, %d)"
                                             % (out.shape, self.md, self.n))
            return out
        q = np.asarray(q, dtype=float)
        return jacobian_columns(lambda qp: self.value(q, qp), qplus, self.fd_scale)


LAGRANGIAN = "lagrangian"
HAMILTONIAN = "hamiltonian"


class DiscreteSystem:
    """A discrete Lagrangian or Hamiltonian bundled with its two constraints.

    The kinematic distribution and the pair constraint are independent
    inputs, but their coranks must agree so each step solves a square
    system (n + m unknowns against n force-balance plus md constraint
    equations).
    """

    def __init__(self, kind: str, *, lagrangian: Optional[DiscreteLagrangian] = None,
                 hamiltonian: Optional[DiscreteHamiltonian] = None,
                 dist: Optional[KinematicDistribution] = None,
                 constraint: Optional[DiscreteConstraint] = None,
                 label: Optional[str] = None):
        if kind not in (LAGRANGIAN, HAMILTONIAN):
            raise ValueError("kind must be %r or %r" % (LAGRANGIAN, HAMILTONIAN))
        self.kind = kind
        if kind == LAGRANGIAN:
            if lagrangian is None:
                raise ValueError("a Lagrangian-kind system needs a DiscreteLagrangian")
            self.lagrangian = lagrangian
            self.hamiltonian = None
            n = lagrangian.n
        else:
            if hamiltonian is None:
                raise ValueError("a Hamiltonian-kind system needs a DiscreteHamiltonian")
            self.hamiltonian = hamiltonian
            self.lagrangian = None
            n = hamiltonian.n
        self.n = n
        self.dist = dist if dist is not None else KinematicDistribution.unconstrained(n)
        self.constraint = constraint if constraint is not None else DiscreteConstraint.unconstrained(n)
        if self.dist.n != n or self.constraint.n != n:
            raise DimensionMismatchError(
                "system dimension %d, distribution dimension %d, constraint dimension %d"
                % (n, self.dist.n, self.constraint.n)
            )
        if self.dist.m != self.constraint.md:
            raise DimensionMismatchError(
                "distribution corank %d and constraint codimension %d must agree "
                "for a square per-step system" % (self.dist.m, self.constraint.md)
            )
        self.m = self.dist.m
        self.label = label if label is not None else kind

    @classmethod
    def from_lagrangian(cls, lagrangian: DiscreteLagrangian,
                        dist: Optional[KinematicDistribution] = None,
                        constraint: Optional[DiscreteConstraint] = None,
                        label: Optional[str] = None) -> "DiscreteSystem":
        return cls(LAGRANGIAN, lagrangian=lagrangian, dist=dist, constraint=constraint, label=label)

    @classmethod
    def from_hamiltonian(cls, hamiltonian: DiscreteHamiltonian,
                         dist: Optional[KinematicDistribution] = None,
                         constraint: Optional[DiscreteConstraint] = None,
                         label: Optional[str] = None) -> "DiscreteSystem":
        return cls(HAMILTONIAN, hamiltonian=hamiltonian, dist=dist, constraint=constraint, label=label)


def _lagrangian_blocks(lag: DiscreteLagrangian, x: PontryaginPoint, p_next: np.ndarray):
    """(bq, bqplus) blocks of the Lagrangian one-form; its dp block is zero."""
    if x.dim != lag.n:
        raise DimensionMismatchError("point dimension %d, Lagrangian dimension %d" % (x.dim, lag.n))
    p_next = _covector(p_next, lag.n, "p_next")
    bq = -lag.d1(x.q, x.qplus)
    bqplus = p_next - lag.d2(x.q, x.qplus)
    return bq, bqplus


def _hamiltonian_blocks(ham: DiscreteHamiltonian, x: PontryaginPoint, p_next: np.ndarray):
    """(bq, bp) blocks of the Hamiltonian one-form; its dq+ block is zero."""
    if x.dim != ham.n:
        raise DimensionMismatchError("point dimension %d, Hamiltonian dimension %d" % (x.dim, ham.n))
    p_next = _covector(p_next, ham.n, "p_next")
    bq = ham.dq(x.q, p_next)
    bp = ham.dp(x.q, p_next) - x.qplus
    return bq, bp


def lagrangian_one_form(lag: DiscreteLagrangian, x: PontryaginPoint,
                        p_next: np.ndarray) -> CotangentPd:
    """Blocks (-d1 L(q, q+), 0, p_next - d2 L(q, q+)); the dp block is always zero."""
    bq, bqplus = _lagrangian_blocks(lag, x, p_next)
    return CotangentPd(bq, np.zeros(lag.n), bqplus)


def hamiltonian_one_form(ham: DiscreteHamiltonian, x: PontryaginPoint,
                         p_next: np.ndarray) -> CotangentPd:
    """Blocks (dH/dq(q, p+), dH/dp(q, p+) - q+, 0); the dq+ block is always zero."""
    bq, bp = _hamiltonian_blocks(ham, x, p_next)
    return CotangentPd(bq, bp, np.zeros(ham.n))


def retraction_constraint(dist: KinematicDistribution) -> DiscreteConstraint:
    """Pair constraint phi(q, q+) = A(q) (q+ - q) induced by the identity-chart retraction."""
    if dist.m == 0:
        return DiscreteConstraint.unconstrained(dist.n)

    def phi(q, qplus):
        return dist.matrix(q) @ (np.asarray(qplus, dtype=float) - np.asarray(q, dtype=float))

    def jac2(q, qplus):
        return dist.matrix(q)

    return DiscreteConstraint(dist.n, dist.m, phi, jac2)


def _sq_norm(v: np.ndarray) -> float:
    if v.shape[0] == 1:
        t = float(v[0])
        return t * t
    return float(v @ v)


def dirac_inclusion_residual(system: DiscreteSystem, x: PontryaginPoint,
                             p_next: np.ndarray) -> float:
    """Membership residual of the per-step inclusion at (x, p_next).

    With v the vertical lift of x.p at x and psi the system's one-form, this
    is the residual of v + psi belonging to the structure induced by the
    lifted distribution and the bundle two-form: the distance of v from the
    lifted distribution (always zero, vertical lifts have no dq block) against
    the norm of beta = psi - two_form(v, .) restricted to it, namely the full
    dp and dq+ blocks of beta plus the part of its dq block lying in
    ker A(q). Zero exactly on pairs satisfying the discrete equations of
    motion; this is the step-acceptance oracle.
    """
    if x.dim != system.n:
        raise DimensionMismatchError("point dimension %d, system dimension %d" % (x.dim, system.n))
    # The lifted vector v is the vertical lift (0, p, 0): its dq block vanishes,
    # so its projection off the lifted distribution is identically zero (part
    # (a) of the residual) and its interior product with the two-form is the
    # covector (p, 0, 0).
    if system.kind == LAGRANGIAN:
        bq, bqplus = _lagrangian_blocks(system.lagrangian, x, p_next)
        beta_q = bq - x.p
        sq = _sq_norm(bqplus)
    else:
        bq, bp = _hamiltonian_blocks(system.hamiltonian, x, p_next)
        beta_q = bq - x.p
        sq = _sq_norm(bp)
    if system.m:
        beta_q = system.dist.project_ker(x.q, beta_q)
    return math.sqrt(_sq_norm(beta_q) + sq)
