"""Discrete Lagrangian and Hamiltonian systems with constraints.

A discrete Lagrangian is a two-point generating function L(q, q+); a discrete
(right) Hamiltonian is H(q, p+). Slot derivatives come from user-supplied
analytic gradients when available and central finite differences otherwise,
with an optional consistency check at construction. One difference loop
serves every finite difference: central quotients (2n calls) for gradients,
which residuals and the certificate use, and forward ones (n + 1 calls) for
Newton iteration matrices, through ``jacobian_columns`` and
``DerivativeProvider.forward_gradient``. The generating function sets a
system's step kind: the momentum balance and the (balance, completion) slot
gradients that the stepper solves with. The module also
provides the membership residual of the per-step inclusion, which is the
step-acceptance oracle.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bundle import KinematicDistribution, PontryaginPoint
from .errors import DimensionMismatchError, EvaluationError, UnsupportedOperationError
# orthonormal_columns is not called here since the certificate projects
# through the distribution's memo; bench/tracing.py still wraps this module
# attribute by name
from .linalg import _F64, _count, _norm_inf, _real_array, _vector, orthonormal_columns  # noqa: F401

# Finite-difference step base, central and forward: the step along
# component i is FD_SCALE * max(1, |x_i|).
FD_SCALE = float(np.finfo(float).eps) ** (1.0 / 3.0)

_VALIDATION_SEED = 20240613
_VALIDATION_PROBES = 4
_VALIDATION_RTOL = 1e-5


def _differences(fun: Callable[[np.ndarray], object], x: np.ndarray,
                 central: bool = False) -> list:
    """Difference quotients of ``fun`` along each component of x, in order.

    The step along component i is h = FD_SCALE * max(1, |x_i|). Central
    quotients (fun(x + h e_i) - fun(x - h e_i)) / 2h cost 2n calls; forward
    ones (fun(x + h e_i) - fun(x)) / h cost n + 1. A single component always
    takes the central quotient: it costs the same two calls and is
    second-order.
    """
    central = central or x.shape[0] == 1
    base = None if central else fun(x)
    out = []
    for i, xi in enumerate(x.tolist()):
        h = FD_SCALE * max(1.0, abs(xi))
        xp = x.copy()
        xp[i] = xi + h
        if central:
            xm = x.copy()
            xm[i] = xi - h
            out.append((fun(xp) - fun(xm)) / (2.0 * h))
        else:
            out.append((fun(xp) - base) / h)
    return out


def _block_gradient(f: Callable[..., float], args: Sequence[np.ndarray], block: int,
                    central: bool) -> np.ndarray:
    """Gradient of the scalar f with respect to args[block], the other blocks held.

    Each of ``args`` is read by ``_real_array`` (a ValueError names 'args'
    when it is not real numbers), and so are the quotients.
    """
    work = [_real_array(a, "args") for a in args]
    x = work[block]

    def along(xb):
        work[block] = xb
        return f(*work)

    return _real_array(_differences(along, x, central)).reshape(x.shape)


def central_difference(f: Callable[..., float], args: Sequence[np.ndarray],
                       block: int) -> np.ndarray:
    """Gradient of the scalar f with respect to args[block], central differences: 2n calls.

    ``args`` must be real numbers (see ``_block_gradient``).
    """
    return _block_gradient(f, args, block, True)


def jacobian_columns(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Jacobian of a vector-valued function by forward differences, one column per input.

    It is first-order (central for a single input, at the same cost) and
    costs n + 1 calls of ``fun``. x must be a vector of real numbers, and so
    must each result of ``fun`` (see ``_vector``; a ValueError names 'x' or
    the 'residual' otherwise). The stepper uses it only for Newton iteration
    matrices, which steer the iteration but decide nothing: acceptance and
    the certificate use true residuals.
    """
    cols = _differences(lambda v: _vector(fun(v), "residual"), _vector(x, "x"))
    return np.column_stack(cols) if cols else np.zeros((0, 0))


@dataclass
class DerivativeProvider:
    """A scalar function of one or two vector blocks plus per-block gradients.

    ``grads`` holds one callable per block; a None entry falls back to central
    finite differences on ``f``.
    """

    f: Callable[..., float]
    grads: tuple

    def bound(self, block: int) -> Callable[..., np.ndarray]:
        """A single-frame callable for one block's gradient (analytic or FD).

        A finite-difference slot is ``fd_gradient`` with its block bound by
        ``functools.partial``, which adds no frame. An analytic gradient must
        return real numbers (see ``_real_array``; EvaluationError otherwise,
        as for a gradient that raises), one entry per component of its
        block's argument (DimensionMismatchError otherwise).
        """
        g = self.grads[block]
        if g is None:
            return functools.partial(self.fd_gradient, block)

        def call(*args):
            try:
                out = g(*args)
                if not (type(out) is np.ndarray and out.dtype == _F64):
                    out = _real_array(out)
            except Exception as exc:
                raise EvaluationError("analytic gradient for block %d failed: %s"
                                      % (block, exc)) from exc
            if out.ndim == 1 and len(out) == len(args[block]):
                return out
            return _vector(out, "analytic gradient for block %d" % block, np.size(args[block]))

        return call

    def fd_gradient(self, block: int, *args) -> np.ndarray:
        return self._differenced(block, args, True)

    def forward_gradient(self, block: int, *args) -> np.ndarray:
        """One block's gradient of f by forward differences: n + 1 evaluations of f.

        First-order, for Newton iteration matrices only; ``fd_gradient``
        (central, 2n evaluations) serves everything that decides acceptance.
        """
        return self._differenced(block, args, False)

    def _differenced(self, block: int, args, central: bool) -> np.ndarray:
        try:
            if central:  # through the module attribute, which bench/tracing.py wraps
                return central_difference(self.f, args, block)
            return _block_gradient(self.f, args, block, False)
        except Exception as exc:
            raise EvaluationError("finite-difference gradient for block %d failed: %s"
                                  % (block, exc)) from exc

    def max_fd_deviation(self, probes: Sequence[Sequence[np.ndarray]]) -> float:
        """Worst relative gap between analytic and finite-difference gradients.

        The gap of one block at one probe is ``_deviation`` of its analytic
        gradient from the FD one, over the analytic scale max(1,
        max|analytic|). A NaN gap sticks, as in ``_norm_inf``, whichever
        block and probe it comes from, so validation fails on it. With no
        analytic block there is no gap, and the result is 0.0.
        """
        gaps = [_deviation(self.bound(block)(*args), self.fd_gradient(block, *args))
                for args in probes for block, g in enumerate(self.grads) if g is not None]
        return _norm_inf(np.array(gaps))


def _deviation(analytic: np.ndarray, fd: np.ndarray) -> float:
    """max|analytic - fd| / max(1, max|analytic|), 0.0 for empty blocks; a NaN sticks."""
    gap = float(np.max(np.abs(analytic - fd), initial=0.0))
    return gap / max(1.0, float(np.max(np.abs(analytic), initial=0.0)))


def _standard_probes(block_dims: Sequence[int], count: int = _VALIDATION_PROBES):
    rng = np.random.default_rng(_VALIDATION_SEED)
    return [tuple(rng.standard_normal(d) for d in block_dims) for _ in range(count)]


def _validate_provider(provider: DerivativeProvider, block_dims: Sequence[int], what: str):
    worst = provider.max_fd_deviation(_standard_probes(block_dims))
    if not worst < _VALIDATION_RTOL:
        raise ValueError(
            "analytic partials of %s disagree with central differences "
            "(relative deviation %.3e, allowed %.0e); pass validate=False to skip this check"
            % (what, worst, _VALIDATION_RTOL)
        )


LAGRANGIAN = "lagrangian"
HAMILTONIAN = "hamiltonian"


class _GeneratingFunction:
    """A scalar function of (q, second slot) with one derivative per slot.

    The dimension n must be a positive integer (DimensionMismatchError
    otherwise). Each slot derivative is the analytic callable if one is
    given and central finite differences of the function otherwise. Analytic ones are checked
    against finite differences at construction unless ``validate`` is False.

    The function sets the step kind of the systems built on it: ``kind``
    names it, ``_balance`` is its momentum balance and ``_slots`` the getter
    of its (balance, completion) slot gradients. A Lagrangian step balances
    p + d1 L(q, q+) and completes q+ to p+ = d2 L(q, q+); a Hamiltonian step
    balances p - dH/dq(q, p+) and completes p+ to q+ = dH/dp(q, p+). The
    balance is the ufunc that p + g or p - g dispatches to, so calling it
    costs no more than the operator.
    """

    def __init__(self, n: int, f: Callable[[np.ndarray, np.ndarray], float],
                 grads: tuple, validate: bool):
        self.n = _count(n, "n", 1, error=DimensionMismatchError)
        self.provider = DerivativeProvider(f, grads)
        if validate:
            _validate_provider(self.provider, (self.n, self.n),
                               "the discrete " + self.kind.capitalize())


class DiscreteLagrangian(_GeneratingFunction):
    """A two-point generating function L(q, q+) with slot derivatives d1, d2."""

    kind, _balance, _slots = LAGRANGIAN, np.add, operator.attrgetter("d1", "d2")

    def __init__(self, n: int, Ld: Callable[[np.ndarray, np.ndarray], float],
                 d1: Optional[Callable] = None, d2: Optional[Callable] = None,
                 validate: bool = True):
        super().__init__(n, Ld, (d1, d2), validate)
        self.Ld = Ld
        # bound per-slot gradients keep the per-call dispatch to one frame
        self.d1 = self.provider.bound(0)
        self.d2 = self.provider.bound(1)


class DiscreteHamiltonian(_GeneratingFunction):
    """A right discrete Hamiltonian H(q, p+) with partials in q and p+."""

    kind, _balance, _slots = HAMILTONIAN, np.subtract, operator.attrgetter("dq", "dp")

    def __init__(self, n: int, Hd: Callable[[np.ndarray, np.ndarray], float],
                 dq: Optional[Callable] = None, dp: Optional[Callable] = None,
                 validate: bool = True):
        super().__init__(n, Hd, (dq, dp), validate)
        self.Hd = Hd
        self.dq = self.provider.bound(0)
        self.dp = self.provider.bound(1)


class DiscreteConstraint:
    """The pair submanifold as a zero set phi(q, q+) = 0 of codimension md.

    n must be a positive integer and md one from 0 to n
    (DimensionMismatchError otherwise); both are kept as Python ints.
    ``retracts`` names the KinematicDistribution whose retraction the
    constraint is (see ``retraction_constraint``), and is None for any other.
    """

    retracts: Optional[KinematicDistribution] = None

    def __init__(self, n: int, md: int, phi: Optional[Callable] = None,
                 jac2: Optional[Callable] = None):
        self.n = n = _count(n, "n", 1, error=DimensionMismatchError)
        self.md = md = _count(md, "md", 0, n, DimensionMismatchError)
        if md > 0 and phi is None:
            raise ValueError("a constraint function is required when md > 0")
        self.phi = phi
        self._jac2 = jac2

    @classmethod
    def unconstrained(cls, n: int) -> "DiscreteConstraint":
        return cls(n, 0)

    def _call(self, fn: Callable, q: np.ndarray, qplus: np.ndarray, shape: tuple) -> np.ndarray:
        """fn(q, q+) on the float64 vectors that ``value`` or ``jacobian2`` read, as ``shape``.

        This is phi for a 1-d shape and its Jacobian for a 2-d one. The result
        is read by ``_real_array``, which takes a float64 array as it comes,
        and then by ``atleast_1d`` or ``atleast_2d``. A failure or a result
        that is not real numbers ends in EvaluationError, and a wrong shape
        after it in DimensionMismatchError.
        """
        vector = len(shape) == 1
        try:
            out = (np.atleast_1d if vector else np.atleast_2d)(_real_array(fn(q, qplus)))
        except Exception as exc:
            raise EvaluationError("constraint %s failed: %s"
                                  % ("evaluation" if vector else "Jacobian", exc)) from exc
        if out.shape != shape:
            raise DimensionMismatchError("constraint %s shape %r, expected %r"
                                         % ("returned" if vector else "Jacobian", out.shape, shape))
        return out

    def value(self, q, qplus) -> np.ndarray:
        """phi(q, q+) as a float64 vector of length md; a float64 one is taken as it comes.

        q and q+ are read first, md = 0 included: each must be a vector of n
        real numbers (see ``_vector``; ValueError or DimensionMismatchError,
        naming 'q' or 'qplus', never EvaluationError).
        """
        q, qplus = _vector(q, "q", self.n), _vector(qplus, "qplus", self.n)
        return self._call(self.phi, q, qplus, (self.md,)) if self.md else np.zeros(0)

    def jacobian2(self, q, qplus) -> np.ndarray:
        """md x n Jacobian of phi in its second slot; a 2-d float64 one is taken as it comes.

        q and q+ are read as in ``value``. Without a ``jac2`` it is
        ``jacobian_columns`` of phi(q, .) at q+.
        """
        q, qplus = _vector(q, "q", self.n), _vector(qplus, "qplus", self.n)
        return (jacobian_columns(lambda qp: self.value(q, qp), qplus) if self._jac2 is None
                else self._call(self._jac2, q, qplus, (self.md, self.n)))


def _instance(obj, *classes):
    """``obj`` if it is an instance of one of ``classes``; UnsupportedOperationError otherwise."""
    if not isinstance(obj, classes):
        raise UnsupportedOperationError("expected a %s, got %s" % (
            " or a ".join(c.__name__ for c in classes), type(obj).__name__))
    return obj


class DiscreteSystem:
    """A discrete Lagrangian or Hamiltonian bundled with its two constraints.

    The generating function sets the kind: a DiscreteLagrangian gives a
    Lagrangian-kind system and a DiscreteHamiltonian a Hamiltonian-kind one
    (any other object raises UnsupportedOperationError); it is also read as
    ``lagrangian`` or ``hamiltonian``, the other one None. The kinematic
    distribution and the pair constraint are independent inputs, a
    KinematicDistribution and a DiscreteConstraint, or None for an
    unconstrained one (any other object raises UnsupportedOperationError);
    their coranks must agree so each step solves a square system (n + m
    unknowns against n force-balance plus md constraint equations).
    ``balance(p, g)`` is the kind's momentum balance, p + g or p - g.
    ``slots()`` returns its (balance, completion) slot gradients, (d1 L, d2 L)
    or (dH/dq, dH/dp), as the generating function holds them. A run resolves
    them once, when its engine is built, so a wrapper installed before the
    run is seen.
    """

    def __init__(self, generator: _GeneratingFunction,
                 dist: Optional[KinematicDistribution] = None,
                 constraint: Optional[DiscreteConstraint] = None,
                 label: Optional[str] = None):
        self._generator = _instance(generator, DiscreteLagrangian, DiscreteHamiltonian)
        self.kind = kind = generator.kind
        self.lagrangian, self.hamiltonian = ((generator, None) if kind == LAGRANGIAN
                                             else (None, generator))
        self.balance = generator._balance
        self.slots = functools.partial(generator._slots, generator)
        self.n = n = generator.n
        self.dist = (_instance(dist, KinematicDistribution) if dist is not None
                     else KinematicDistribution.unconstrained(n))
        self.constraint = (_instance(constraint, DiscreteConstraint) if constraint is not None
                           else DiscreteConstraint.unconstrained(n))
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
        return cls(_instance(lagrangian, DiscreteLagrangian), dist, constraint, label)

    @classmethod
    def from_hamiltonian(cls, hamiltonian: DiscreteHamiltonian,
                         dist: Optional[KinematicDistribution] = None,
                         constraint: Optional[DiscreteConstraint] = None,
                         label: Optional[str] = None) -> "DiscreteSystem":
        return cls(_instance(hamiltonian, DiscreteHamiltonian), dist, constraint, label)


def _check_dim(x: PontryaginPoint, n: int):
    if not isinstance(x, PontryaginPoint):
        raise UnsupportedOperationError("expected a PontryaginPoint, got %s" % type(x).__name__)
    if x.dim != n:
        raise DimensionMismatchError("point dimension %d, system dimension %d" % (x.dim, n))


def retraction_constraint(dist: KinematicDistribution) -> DiscreteConstraint:
    """Pair constraint phi(q, q+) = A(q) (q+ - q) induced by the identity-chart retraction.

    Its ``value`` and ``jacobian2`` evaluate A(q) (q+ - q) and A(q) through
    ``dist``, and its ``retracts`` is ``dist``. The closures cast nothing:
    ``value`` and ``jacobian2`` hand them q and q+ already read. A run whose
    system has this very distribution computes both itself, with the same
    arithmetic, from the A(q) it looks up once per step, and calls neither
    closure. A retraction of any other distribution object, even one with
    the same annihilator, is called like any pair constraint. An m = 0
    distribution takes the same path: md = 0, ``value`` is empty without a
    call of phi, and ``jacobian2`` is its (0, n) A(q).
    """
    def phi(q, qplus):
        return dist.matrix(q).dot(qplus - q)

    def jac2(q, qplus):
        return dist.matrix(q)

    constraint = DiscreteConstraint(dist.n, dist.m, phi, jac2)
    constraint.retracts = dist
    return constraint


def _sq_norm(v: np.ndarray) -> float:
    if v.shape[0] == 1:
        t = v.item()
        return t * t
    return float(v.dot(v))


def dirac_inclusion_residual(system: DiscreteSystem, x: PontryaginPoint,
                             p_next: np.ndarray, *, _held: Optional[tuple] = None) -> float:
    """Membership residual of the per-step inclusion at (x, p_next).

    With v the vertical lift of x.p at x and psi the system's one-form,
    (-d1 L(q, q+), 0, p_next - d2 L(q, q+)) for a Lagrangian and
    (dH/dq(q, p_next), dH/dp(q, p_next) - q+, 0) for a Hamiltonian, this
    is the residual of v + psi belonging to the structure induced by the
    lifted distribution and the bundle two-form: the distance of v from the
    lifted distribution (always zero, vertical lifts have no dq block) against
    the norm of beta = psi - two_form(v, .) restricted to it, namely the full
    dp and dq+ blocks of beta plus the part of its dq block lying in
    ker A(q). Zero exactly on pairs satisfying the discrete equations of
    motion; this is the step-acceptance oracle.

    Both kinds compute it the same way: with y the step's unknown (q+ or
    p_next) and ``other`` the remaining one, the dq block is
    -balance(p, grad(q, y)) and the second block is
    ±(complete(q, y) - other), the q+ block of a Lagrangian one-form or the
    dp block of a Hamiltonian one. Norms do not see the signs.

    A stepper certifies from the values its step already holds through the
    private ``_held = (balance, rows)``: balance is the momentum balance
    p + d1 L(q, q+) or p - dH/dq(q, p_next) at exactly these arrays, as the
    step's last Newton residual computed it, and rows the orthonormal row
    basis of A(q) from the step's own distribution lookup, or None to look
    it up here. The second block is then zero by construction and is not
    computed: a Lagrangian step's p_next is d2 L(q, q+), and a Hamiltonian
    step's q+ is dH/dp(q, p_next), both finite. The result equals a fresh
    evaluation. The held path reads x.q only, for the lookup when rows is
    None, so a run's engine, which holds its step's q, passes itself as x.
    It comes validated, so the held path does not check dimensions again.
    """
    # The lifted vector v is the vertical lift (0, p, 0): its dq block vanishes,
    # so its projection off the lifted distribution is identically zero (part
    # (a) of the residual) and its interior product with the two-form is the
    # covector (p, 0, 0).
    if _held is None:
        _check_dim(x, system.n)
        p_next = _vector(p_next, "p_next", system.n)
        y, other = (x.qplus, p_next) if system.kind == LAGRANGIAN else (p_next, x.qplus)
        grad, complete = system.slots()
        beta_q, c, rows = system.balance(x.p, grad(x.q, y)), complete(x.q, y), None
    else:
        (beta_q, rows), c = _held, None
    if system.m:
        beta_q = (system.dist.project_ker(x.q, beta_q) if rows is None
                  else beta_q - rows.dot(rows.T.dot(beta_q)))
    sq = _sq_norm(beta_q)
    return math.sqrt(sq if c is None else sq + _sq_norm(c - other))
