"""Implicit per-step solvers for the constrained discrete equations of motion.

One Lagrangian step advances a complete bundle point (q_k, p_k, q_{k+1}) to
(q_{k+1}, p_{k+1}, q_{k+2}) by solving force balance plus the pair constraint
for (q_{k+2}, lambda). One Hamiltonian step maps (q_k, p_k) to (p_{k+1},
lambda) and completes q_{k+1} = dH/dp(q_k, p_{k+1}). Both kinds solve the
same layout, (y, lambda) with n + m unknowns, on one path: damped Newton on
a square system, then a certificate of the accepted update against the
abstract inclusion residual before returning. A step returns its
diagnostics row, extended by the new point and the next momentum.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .bundle import DiscreteCurve, PontryaginPoint, check_admissibility
from .errors import (
    CertificationError,
    ConvergenceError,
    DimensionMismatchError,
    DiracMechError,
    EvaluationError,
    SingularJacobianError,
    StepFailureError,
    UnsupportedOperationError,
)
from .linalg import _vector
from .systems import (
    FD_SCALE,
    HAMILTONIAN,
    LAGRANGIAN,
    DiscreteSystem,
    _check_dim,
    dirac_inclusion_residual,
    jacobian_columns,
)

_PREDICTORS = ("extrapolate", "hold")

# Condition estimate above which the cross-derivative block (D2 D1 L, or the
# q-p+ block of H) triggers a regularity warning.
CROSS_BLOCK_COND_LIMIT = 1e12

# A held Newton matrix keeps contracting while a full step cuts the residual
# to at most this fraction of the current one (chord-method monitoring, as in
# Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003).
CONTRACTION = 0.1

# A damped line search that stalls at a residual within this factor of the
# round-off floor eps * ||J||_inf * ||x||_inf, or of the finite-difference
# noise floor FD_SCALE**2 * |L or H|, is reported as a tolerance the
# arithmetic cannot reach, not as a failed search.
ROUNDOFF_MARGIN = 10.0

# The damped line search gives up when its step factor falls below this.
MIN_STEP = 2.0 ** -20
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the damped Newton iteration.

    ``tol`` must be a positive finite real number, ``max_iter`` an integer
    of at least 1 (NumPy numbers will do), and ``damping`` and
    ``cross_check`` bools. ``predictor`` picks the initial guess for
    the unknown y of a step, q+ of a Lagrangian step or p+ of a Hamiltonian
    one. "hold" starts at the previous y: the current configuration, or the
    carried momentum. "extrapolate" continues a Lagrangian step at constant
    velocity and starts a Hamiltonian step at the carried momentum, until a
    step of the run needs a second Newton iteration. From that step on the
    run records its last solved y's in its cache list (see ``newton_solve``)
    and starts each step at the highest-order polynomial extrapolation they
    allow, up to the quadratic 3 y1 - 3 y2 + y3 (Hairer, Lubich and Wanner,
    Geometric Numerical Integration, 2nd ed., VIII.6.1). A run whose steps
    all converge in one iteration, and a step called without a cache list,
    keep the first rule. ``cross_check`` compares the assembled Jacobian
    against a full finite-difference Jacobian at the predictor and warns on
    disagreement.
    """

    tol: float = 1e-10
    max_iter: int = 50
    damping: bool = True
    predictor: str = "extrapolate"
    cross_check: bool = False

    def __post_init__(self):
        # a bool tol would read as 1.0 and accept steps Newton never solved
        if (isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real)
                or not 0.0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite, got %r" % (self.tol,))
        # a float bound such as nan would never end the iteration
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError("max_iter must be an integer of at least 1, got %r" % (self.max_iter,))
        if self.predictor not in _PREDICTORS:
            raise ValueError("predictor must be one of %r" % (_PREDICTORS,))
        for name in ("damping", "cross_check"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError("%s must be a bool, got %r" % (name, getattr(self, name)))


@dataclass(frozen=True, slots=True)
class StepDiagnostics:
    """Per-step record; ``jacobian_assemblies`` is 0 on steps solved on a held matrix."""

    residual: float
    inclusion_residual: float
    constraint_residual: float
    multipliers: np.ndarray
    iterations: int = 0
    jacobian_assemblies: int = 0


@dataclass(frozen=True, slots=True, kw_only=True)
class StepResult(StepDiagnostics):
    """One accepted step: its diagnostics row plus the new point.

    ``p_next`` is the momentum at the index after ``next`` (for Hamiltonian
    steps this is the carried p_{k+1}; for Lagrangian steps it is the
    momentum the following step will carry).
    """

    next: PontryaginPoint
    p_next: np.ndarray


class DiagnosticColumns(Sequence):
    """The per-step diagnostics of a run as columns, read as StepDiagnostics records.

    Each field of StepDiagnostics is one column of the same name: a length-N
    array, or (N, m) for ``multipliers``. Record k is built on access.
    """

    __slots__ = _FIELDS = ("residual", "inclusion_residual", "constraint_residual",
                           "multipliers", "iterations", "jacobian_assemblies")

    def __init__(self, *columns):
        for name, column in zip(self._FIELDS, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def _stack(cls, records) -> "DiagnosticColumns":
        records = tuple(records)
        return cls(*(np.array([getattr(d, name) for d in records]) for name in cls._FIELDS))

    def _head(self, steps: int) -> "DiagnosticColumns":
        return DiagnosticColumns(*(getattr(self, name)[:steps] for name in self._FIELDS))

    def __len__(self) -> int:
        return self.residual.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        return StepDiagnostics(float(self.residual[k]), float(self.inclusion_residual[k]),
                               float(self.constraint_residual[k]), self.multipliers[k],
                               int(self.iterations[k]), int(self.jacobian_assemblies[k]))

    def __eq__(self, other):
        if isinstance(other, tuple) and all(isinstance(d, StepDiagnostics) for d in other):
            other = DiagnosticColumns._stack(other)
        if not isinstance(other, DiagnosticColumns):
            return NotImplemented
        return len(self) == len(other) and (not len(self) or all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self._FIELDS))


@dataclass(frozen=True)
class Trajectory:
    """A solved discrete curve plus per-step diagnostics and run metadata.

    For Hamiltonian runs the curve holds the N completed points and
    ``final_state`` carries the (q_N, p_N) pair left over after the last
    step; Lagrangian runs store seed plus N points and leave it None.
    ``diagnostics`` may be given as any sequence of StepDiagnostics; it is
    kept as DiagnosticColumns. The ``max_*`` aggregates are NaN as soon as
    any step's value is NaN.
    """

    curve: DiscreteCurve
    diagnostics: DiagnosticColumns
    system_label: str
    steps: int
    options: SolverOptions
    final_state: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if check_admissibility(self.curve, 0.0) is not None:
            raise ValueError("trajectory curve violates the second-order condition")
        if not isinstance(self.diagnostics, DiagnosticColumns):
            object.__setattr__(self, "diagnostics", DiagnosticColumns._stack(self.diagnostics))
        if len(self.diagnostics) != self.steps:
            raise ValueError("expected %d diagnostic records, got %d"
                             % (self.steps, len(self.diagnostics)))

    @property
    def max_residual(self) -> float:
        return _worst(self.diagnostics.residual)

    @property
    def max_inclusion_residual(self) -> float:
        return _worst(self.diagnostics.inclusion_residual)

    @property
    def max_constraint_residual(self) -> float:
        return _worst(self.diagnostics.constraint_residual)

    @property
    def total_iterations(self) -> int:
        return int(self.diagnostics.iterations.sum())

    @property
    def total_jacobian_assemblies(self) -> int:
        return int(self.diagnostics.jacobian_assemblies.sum())


def _worst(column: np.ndarray) -> float:
    return float(np.max(column, initial=0.0))


# Vectors up to this length take the pure-Python paths of _norm_inf and
# _all_finite.
_SMALL = 8


def _norm_inf(v: np.ndarray) -> float:
    if v.shape[0] <= _SMALL:
        # a Python loop beats two ufunc calls on a few entries; a NaN
        # entry sticks, as it does in np.max
        worst = 0.0
        for t in v.tolist():
            t = abs(t)
            if t > worst or t != t:
                worst = t
        return worst
    return float(np.abs(v).max())


def _all_finite(x: np.ndarray) -> bool:
    if x.shape[0] <= _SMALL:
        return all(map(math.isfinite, x.tolist()))
    return bool(np.isfinite(x).all())


def _phase_state(q, p, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Validated float64 copies of a Hamiltonian state (q, p)."""
    q, p = _vector(q, "q", n).copy(), _vector(p, "p", n).copy()
    if not (_all_finite(q) and _all_finite(p)):
        raise ValueError("q and p entries must all be finite")
    return q, p


def _newton_step(jm: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """The solution of jm @ step = -fx; a 1x1 system solves in Python floats."""
    if jm.shape == (1, 1):
        pivot = float(jm[0, 0])
        if pivot != 0.0 and math.isfinite(pivot):
            s0 = -float(fx[0]) / pivot
            if math.isfinite(s0):
                return np.array([s0])
    else:
        try:
            step = np.linalg.solve(jm, -fx)
            if np.all(np.isfinite(step)):
                return step
        except np.linalg.LinAlgError:
            pass
    # the SVD behind cond() fails on non-finite entries
    finite = jm.shape != (1, 1) and np.isfinite(jm).all()
    cond = float(np.linalg.cond(jm)) if finite else float("inf")
    raise SingularJacobianError(
        "Newton Jacobian is singular or gives a non-finite step (condition estimate %.3e)"
        % cond, condition=cond,
    )


def newton_solve(f: Callable[[np.ndarray], np.ndarray],
                 jac: Optional[Callable[[np.ndarray], np.ndarray]],
                 x0: np.ndarray,
                 opts: Optional[SolverOptions] = None,
                 jacobian_cache: Optional[list] = None) -> Tuple[np.ndarray, int, float]:
    """Damped Newton, or chord Newton on one held matrix, for f(x) = 0.

    The iteration matrix comes from ``jac`` (a forward-difference Jacobian of
    f when None). Without ``jacobian_cache`` it is assembled at every
    iterate. ``jacobian_cache`` is a list whose slot 0 holds the matrix
    across iterations and calls: a matrix there (not None) is used from the
    start, and every assembly is stored back there. Only slot 0 is read or
    written, so a caller may keep its own data behind it: a step keeps the
    dH/dp block C of a constrained Hamiltonian matrix in slot 1 (None
    otherwise) and its run's history of solved unknowns in slot 2. A held
    matrix is reassembled at the current iterate only when it stops
    contracting there: a full step leaves a residual above CONTRACTION
    times the current one, or the solve with it is singular. Such a step is
    kept if it still lowered the residual and discarded otherwise. The
    damped line search (halving down to MIN_STEP) runs only on a freshly
    assembled matrix; when it stalls near the round-off floor (see
    ROUNDOFF_MARGIN) the error says that opts.tol is below that floor and
    gives its value.

    Convergence is ||f(x)||_inf <= opts.tol on true residuals; every gate
    fails on NaN. Returns (root, iterations, final residual).
    """
    opts = opts if opts is not None else SolverOptions()
    x = np.asarray(x0, dtype=float).copy()
    fx = _vector(f(x), "residual")
    res = _norm_inf(fx)
    held = jacobian_cache[0] if jacobian_cache else None
    iters = 0
    while not (res <= opts.tol):
        if not math.isfinite(res):
            raise ConvergenceError("residual is not finite (%r)" % res,
                                   residual=res, iterations=iters)
        if iters >= opts.max_iter:
            raise ConvergenceError(
                "no convergence in %d iterations (residual %.3e, tol %.1e)"
                % (opts.max_iter, res, opts.tol),
                residual=res, iterations=iters,
            )
        fresh = held is None
        if fresh:
            held = np.asarray(jac(x), dtype=float) if jac is not None else jacobian_columns(f, x)
            if jacobian_cache is not None:
                jacobian_cache[:1] = [held]
        try:
            step = _newton_step(held, fx)
        except SingularJacobianError:
            if fresh:
                raise
            held = None
            continue
        xt = x + step
        ft = _vector(f(xt), "residual")
        rt = _norm_inf(ft)
        if not fresh:
            if not (rt <= CONTRACTION * res or rt <= opts.tol):
                held = None  # stopped contracting: reassemble on the next pass
                if not (rt < res):
                    continue
        elif opts.damping:
            alpha = 1.0
            while not (rt < res or rt <= opts.tol):
                alpha *= 0.5
                if alpha < MIN_STEP:
                    raise _stall_error(held, x, res, opts, iters + 1)
                xt = x + alpha * step
                ft = _vector(f(xt), "residual")
                rt = _norm_inf(ft)
        x, fx, res = xt, ft, rt
        iters += 1
        if jacobian_cache is None:
            held = None
    return x, iters, res


def _stall_error(jm: np.ndarray, x: np.ndarray, res: float, opts: SolverOptions,
                 iters: int) -> ConvergenceError:
    floor = _EPS * float(np.abs(jm).sum(axis=1).max()) * _norm_inf(x)
    if res <= ROUNDOFF_MARGIN * floor:
        message = ("tol %.1e is below the round-off floor of this solve: the line search "
                   "stalled at residual %.3e, round-off floor eps*||J||*||x|| = %.3e"
                   % (opts.tol, res, floor))
    else:
        message = "line search stalled at residual %.3e (tol %.1e)" % (res, opts.tol)
    return ConvergenceError(message, residual=res, iterations=iters)


def _name_noise_floor(exc: ConvergenceError, system: DiscreteSystem, q: np.ndarray,
                      y: np.ndarray) -> None:
    """Append the finite-difference noise floor to the message of a failed solve.

    A central-difference balance gradient carries round-off of order
    eps / FD_SCALE * |L or H| = FD_SCALE**2 * |L or H|, so its residual cannot
    be trusted below that. When the balance slot has no analytic gradient
    and the finite residual of ``exc`` lies within ROUNDOFF_MARGIN of this
    floor at (q, y), the message gives the floor and says what removes it.
    """
    provider = (system.lagrangian if system.kind == LAGRANGIAN else system.hamiltonian).provider
    if provider.grads[0] is not None or not math.isfinite(exc.residual):
        return
    noise = FD_SCALE ** 2 * abs(float(provider.f(q, y)))
    if exc.residual <= ROUNDOFF_MARGIN * noise:
        exc.args = ("%s; the residual's central-difference gradient has a noise floor of "
                    "FD_SCALE**2*|L or H| = %.3e at this iterate, which analytic partials, "
                    "or a larger tol, remove" % (exc, noise),)


def check_initial_data(system: DiscreteSystem, x0: PontryaginPoint) -> float:
    """Distance of p0 + d1 L(q0, q0+) from the annihilator rows at q0.

    Zero means x0 is a consistent Lagrangian seed (for the unconstrained case,
    exactly p0 = -d1 L(q0, q1)). Hamiltonian seeds (q0, p0) carry no such
    restriction, so asking for one is an error.
    """
    if system.kind != LAGRANGIAN:
        raise UnsupportedOperationError(
            "initial-data consistency is defined for the Lagrangian kind only; "
            "Hamiltonian initial data (q0, p0) is free and q1 is reported by step residuals"
        )
    _check_dim(x0, system.n)
    g = x0.p + system.lagrangian.d1(x0.q, x0.qplus)
    return float(np.linalg.norm(system.dist.project_ker(x0.q, g)))


def _certify(inclusion: float, opts: SolverOptions) -> None:
    if not (inclusion <= 10.0 * opts.tol):
        raise CertificationError(
            "accepted step fails the inclusion residual gate (%.3e > 10 * %.1e)"
            % (inclusion, opts.tol),
            inclusion_residual=inclusion,
        )


def _maybe_cross_check(f, jac_assembled, z0):
    gap = np.max(np.abs(jac_assembled - jacobian_columns(f, z0)))
    scale = max(1.0, float(np.max(np.abs(jac_assembled))))
    if gap / scale > 1e-4:
        warnings.warn("assembled Jacobian deviates from finite differences by %.3e (relative)"
                      % (gap / scale), RuntimeWarning, stacklevel=3)


def _check_regularity(cross: np.ndarray, kind: str) -> None:
    if cross.shape == (1, 1):
        cond = 1.0 if cross[0, 0] != 0.0 else float("inf")
    elif np.isfinite(cross).all():
        cond = float(np.linalg.cond(cross))
    else:
        return  # the Newton solve reports a non-finite matrix as singular
    if cond > CROSS_BLOCK_COND_LIMIT:
        warnings.warn(
            "cross-derivative block of the %s is near singular (condition estimate %.3e); "
            "the implicit update may not be well defined" % (kind.capitalize(), cond),
            RuntimeWarning, stacklevel=3,
        )


def _matrix_slot(system: DiscreteSystem, block: int, slot: Callable) -> Callable:
    """The slot gradient that a Newton matrix differentiates.

    An analytic slot gradient is ``slot`` itself. A finite-difference one is
    taken by forward differences instead (n + 1 evaluations of L or H, not
    2n): the matrix only steers the iteration, so first order suffices.
    """
    provider = (system.lagrangian if system.kind == LAGRANGIAN else system.hamiltonian).provider
    if provider.grads[block] is None:
        return functools.partial(provider.forward_gradient, block)
    return slot


def _extrapolated(history: tuple) -> np.ndarray:
    """The next unknown continued from the last two or three solved ones, newest first."""
    y1, y2 = history[:2]
    return 3.0 * (y1 - y2) + history[2] if len(history) == 3 else (y1 + y1) - y2


def _solve_step(system: DiscreteSystem, q: np.ndarray, p: np.ndarray, y0: np.ndarray,
                opts: SolverOptions, multiplier_guess: Optional[np.ndarray],
                jacobian_cache: Optional[list]) -> StepResult:
    """Solve and certify one step of either kind from base point q and carried momentum p.

    Every step solves z = (y, lambda), n + m unknowns. The unknown y is q+
    for a Lagrangian step and p+ for a Hamiltonian one; momentum balance is
    p + d1 L(q, y) or p - dH/dq(q, y), less A(q)^T lambda when constrained.
    A constrained step adds phi(q, conf(y)) = 0, where conf is the identity
    for a Lagrangian step and dH/dp(q, .) for a Hamiltonian one. Its matrix
    block is J2(q, conf(y)) C, with C = I or the forward-difference Jacobian
    of dH/dp in p+. The step completes with q+ = y, p+ = d2 L(q, y)
    (Lagrangian) or q+ = dH/dp(q, y), p+ = y (Hamiltonian), and is certified
    with the inclusion residual at (q, p, q+) and p+. Every assembly of the
    Newton matrix checks the cross-derivative block, D2 D1 L or the q-p+
    block of H, for regularity.

    ``jacobian_cache`` is a list of three slots: the Newton matrix, the dH/dp
    block C of a constrained Hamiltonian matrix (None otherwise), and the
    history of solved unknowns; a shorter list is padded with None. A held
    matrix of a constrained step gets this step's -A^T and border J2(q,
    conf(y0)) C; a constrained Hamiltonian cache that holds a matrix but no
    C assembles afresh. The history is None until a step of the run needs a
    second Newton iteration under the "extrapolate" predictor. That step
    records (y, b), with b the previous unknown (q for a Lagrangian step, p
    for a Hamiltonian one), and every later step starts Newton at
    ``_extrapolated`` of the history and records its own y in front, keeping
    three. A history whose newest entry is not this step's b belongs to
    another state: the step then starts from ``y0`` and records afresh.

    The residual keeps the gradient, conf(y) and phi of its last call. When
    Newton returns the very array of that call, q+, the constraint residual
    and the certificate read those values instead of evaluating them again;
    otherwise they are evaluated afresh. The first residual reuses the held
    border's conf(y0), and an assembly at the last residual's argument its
    conf(y).
    """
    lagrangian = system.kind == LAGRANGIAN
    n, m = system.n, system.m
    grad, complete = system.slots()
    momentum_balance = system.balance
    base = q if lagrangian else p
    history = None
    if jacobian_cache is not None:
        if len(jacobian_cache) < 3:
            jacobian_cache.extend([None] * (3 - len(jacobian_cache)))
        if jacobian_cache[2] is not None and opts.predictor == "extrapolate":
            history = jacobian_cache[2]
            if np.array_equal(history[0], base):
                y0 = _extrapolated(history)
            else:
                history = ()
    # the argument of the residual's last call and its gradient, conf(y)
    # (constrained steps) and constraint value
    last_z = last_g = last_c = last_phi = None

    def balance(y):
        nonlocal last_z, last_g
        last_z, last_g = y, grad(q, y)
        return momentum_balance(p, last_g)
    lam0 = np.zeros(m) if multiplier_guess is None else np.asarray(multiplier_guess, dtype=float)
    if lam0.shape != (m,):
        raise DimensionMismatchError("multiplier guess has shape %r, expected (%d,)"
                                     % (lam0.shape, m))
    if m:
        a = system.dist.matrix(q)
        # (y0, conf(y0)) of the held border, for the first residual
        border = None

        def residual_fn(z):
            nonlocal last_z, last_c, last_phi, border
            y = z[:n]
            r = balance(y) - a.T @ z[n:]
            if lagrangian:
                c = y
            elif border is not None and np.array_equal(border[0], y):
                c = border[1]
            else:
                c = complete(q, y)
            last_z, last_c, border = z, c, None
            last_phi = system.constraint.value(q, c)
            return np.concatenate([r, last_phi])

        def with_constraint_blocks(jm, conf, c):
            # -A^T in the multiplier columns of the balance rows, the
            # constraint Jacobian J2(q, conf) C in the y columns of the
            # constraint rows
            jm[:n, n:] = -a.T
            j2 = system.constraint.jacobian2(q, conf)
            jm[n:, :n] = j2 if c is None else j2 @ c
            return jm

        z0 = np.concatenate([y0, lam0])
        if jacobian_cache is not None and not lagrangian and jacobian_cache[1] is None:
            jacobian_cache[0] = None  # a matrix without its C is not held
        if jacobian_cache and jacobian_cache[0] is not None:
            # a held matrix keeps its finite-difference blocks of L or H and
            # takes this step's constraint blocks at the predictor
            if lagrangian:
                conf0, c = y0, None
            else:
                conf0, c = complete(q, y0), jacobian_cache[1]
                border = (y0, conf0)
            jacobian_cache[0] = with_constraint_blocks(jacobian_cache[0].copy(), conf0, c)
    else:
        residual_fn, z0 = balance, y0
    assemblies = 0

    def slot_block(block, y):
        # the matrix block of the balance (0) or completion (1) slot gradient
        slope = _matrix_slot(system, block, (grad, complete)[block])
        return jacobian_columns(lambda v: slope(q, v), y)

    def jacobian_fn(z):
        nonlocal assemblies
        assemblies += 1
        y = z[:n]
        cross = slot_block(0, y)
        _check_regularity(cross, system.kind)
        top = cross if lagrangian else -cross
        if not m:
            return top
        jm = np.zeros((n + m, n + m))
        jm[:n, :n] = top
        c = None if lagrangian else slot_block(1, y)
        if c is not None and jacobian_cache is not None:
            jacobian_cache[1] = c
        conf = last_c if z is last_z else (y if lagrangian else complete(q, y))
        return with_constraint_blocks(jm, conf, c)

    if opts.cross_check:
        _maybe_cross_check(residual_fn, jacobian_fn(z0), z0)

    try:
        z, iters, res = newton_solve(residual_fn, jacobian_fn, z0, opts,
                                     jacobian_cache=jacobian_cache)
    except ConvergenceError as exc:
        _name_noise_floor(exc, system, q, last_z[:n])
        raise
    # the residual's last values belong to the returned root only if its
    # last call was made on this very array
    held = z is last_z
    y, lam = (z[:n], z[n:]) if m else (z, lam0)
    if lagrangian:
        qplus, p_next = y, complete(q, y)
        if not _all_finite(p_next):
            raise EvaluationError("momentum update d2 L is not finite "
                                  "at the solved configuration")
    else:
        qplus, p_next = last_c if held and m else complete(q, y), y
        if not _all_finite(qplus):
            raise EvaluationError("configuration update dH/dp is not finite "
                                  "at the solved momentum")
    if jacobian_cache is None and not assemblies:
        # Newton converged at the predictor; still report degenerate updates
        _check_regularity(slot_block(0, y), system.kind)

    # q and p come validated from the entry points, and q+ is finite by
    # Newton acceptance or by the check above
    nxt = PontryaginPoint._trusted(q, p, qplus)
    cres = _norm_inf(last_phi if held else system.constraint.value(q, qplus)) if m else 0.0
    inclusion = dirac_inclusion_residual(system, nxt, p_next, _held=last_g if held else None)
    _certify(inclusion, opts)
    if history is not None or (iters > 1 and jacobian_cache is not None
                               and opts.predictor == "extrapolate"):
        jacobian_cache[2] = (y, base) + history[1:2] if history else (y, base)
    return StepResult(res, inclusion, cres, lam, iters, assemblies, next=nxt, p_next=p_next)


def step_lagrangian(system: DiscreteSystem, x: PontryaginPoint,
                    opts: Optional[SolverOptions] = None,
                    multiplier_guess: Optional[np.ndarray] = None,
                    check_consistency: bool = True,
                    jacobian_cache: Optional[list] = None, *,
                    _carried: Optional[np.ndarray] = None) -> StepResult:
    """Advance a complete point one index.

    Solves, for (qnew, lambda), the carried momentum d2 L(q, q+) balancing
    d1 L(q+, qnew) against A(q+)^T lambda together with phi(q+, qnew) = 0,
    then certifies the accepted update with the inclusion residual
    (raising CertificationError unless it is at most 10 * tol). Warns when
    the cross-derivative block D2 D1 L is close to singular.
    ``jacobian_cache`` is the list of ``newton_solve``, holding the
    iteration matrix across the steps of one trajectory in slot 0 and the
    run's history of solved configurations in slot 2 (slot 1 stays None);
    on a constrained step the matrix's -A^T and constraint-Jacobian blocks
    are replaced by this step's, evaluated at the predictor. With a history
    the predictor is extrapolated from it (see ``SolverOptions``).

    A step evaluates d1 L once per Newton residual and d2 L once, for the
    new momentum p_next = d2 L(q+, qnew), which must be finite
    (EvaluationError otherwise). The certificate reuses d1 L from Newton's
    last residual; its q+ block p_next - d2 L(q+, qnew) is zero by
    construction. A direct call also evaluates the carried momentum
    d2 L(q, q+); ``run_trajectory`` passes the previous step's ``p_next``,
    which is that value, through the private ``_carried``.
    """
    if system.kind != LAGRANGIAN:
        raise UnsupportedOperationError("step_lagrangian needs a Lagrangian-kind system")
    _check_dim(x, system.n)
    opts = opts if opts is not None else SolverOptions()
    if check_consistency:
        r0 = check_initial_data(system, x)
        if not (r0 <= opts.tol):
            warnings.warn(
                "seed point is inconsistent (initial-data residual %.3e); "
                "the step still solves the inclusion at the next index" % r0,
                RuntimeWarning, stacklevel=2,
            )
    q1 = x.qplus
    # q1 + q1 is 2 q1 exactly, without a scalar multiply
    qnew0 = (q1 + q1) - x.q if opts.predictor == "extrapolate" else q1
    carried = system.lagrangian.d2(x.q, q1) if _carried is None else _carried
    return _solve_step(system, q1, carried, qnew0, opts, multiplier_guess, jacobian_cache)


def step_hamiltonian(system: DiscreteSystem, q: np.ndarray, p: np.ndarray,
                     opts: Optional[SolverOptions] = None,
                     multiplier_guess: Optional[np.ndarray] = None,
                     jacobian_cache: Optional[list] = None, *,
                     _owned: bool = False) -> StepResult:
    """Advance a phase-space pair one index.

    Solves, for (pnew, lambda), momentum balance p - dH/dq(q, pnew) against
    A(q)^T lambda and phi(q, dH/dp(q, pnew)) = 0: n + m unknowns, as in a
    Lagrangian step, with the configuration update qnew = dH/dp(q, pnew)
    substituted. Without constraints Newton runs on momentum balance alone
    (its matrix is minus the cross-derivative block) and qnew is evaluated
    once at the root; with them qnew is the dH/dp of Newton's last
    residual. Returns the completed point (q, p, qnew), built on copies of q
    and p, with the carried momentum pnew in ``p_next``. Warns when the
    cross-derivative block of H is close to singular, since the update map
    may then fail to exist. The check runs on each assembly of the
    iteration matrix, so a step solved on a matrix held in
    ``jacobian_cache`` skips it, constrained or not. The cache list holds
    the matrix in slot 0, the dH/dp block C of a constrained matrix in slot
    1 and the run's history of solved momenta in slot 2. A held constrained
    matrix gets this step's -A^T and border J2(q, dH/dp(q, p0)) C at the
    predictor p0: the carried momentum p, or its extrapolation from the
    history (see ``SolverOptions``). The residual at p0 reuses that
    dH/dp(q, p0).

    The certificate reuses dH/dq from Newton's last residual; its dp block
    dH/dp(q, pnew) - qnew is zero by construction. ``run_trajectory`` hands
    over its own validated arrays with the private ``_owned=True``; the step
    then builds its point on them instead of on copies.
    """
    if system.kind != HAMILTONIAN:
        raise UnsupportedOperationError("step_hamiltonian needs a Hamiltonian-kind system")
    opts = opts if opts is not None else SolverOptions()
    if not _owned:
        q, p = _phase_state(q, p, system.n)
    return _solve_step(system, q, p, p, opts, multiplier_guess, jacobian_cache)


def run_trajectory(system: DiscreteSystem, seed, steps: int,
                   opts: Optional[SolverOptions] = None) -> Trajectory:
    """Iterate the appropriate stepper ``steps`` times from the seed.

    Lagrangian seeds are complete PontryaginPoints (the curve then holds seed
    plus one point per step); Hamiltonian seeds are (q0, p0) pairs and need
    steps >= 1 to produce a curve point. On a failed step a StepFailureError
    is raised carrying the failing index and the partial trajectory. A
    Lagrangian seed of the wrong dimension raises DimensionMismatchError;
    one whose consistency check fails (d1 L or A(q) at the seed) fails
    step 0 with the seed-only trajectory.

    Every run holds one Newton iteration matrix for the whole trajectory
    and reassembles it only where it stops contracting (see
    ``newton_solve``). Its cache list also keeps the dH/dp block C of a
    constrained Hamiltonian matrix (slot 1) and, from the first step that
    needs a second Newton iteration, the last solved unknowns, from which
    each later predictor is extrapolated (slot 2; see ``SolverOptions``).
    On constrained runs each step first replaces the matrix's -A^T and
    constraint-Jacobian blocks, which are exact and cheap, by its own at
    the predictor, and keeps the finite-difference block of L or H (and, on
    Hamiltonian runs, the dH/dp block C); these are rebuilt only by a
    reassembly. Convergence is still judged on exact residuals and
    every step is certified individually. Each diagnostic records the step's
    Newton iterations and matrix assemblies.

    Each step carries the previous step's ``p_next`` as its momentum, so a
    Lagrangian step does not evaluate d2 L(q, q+) again, and a Hamiltonian
    step works on the arrays of the previous step's result.

    The run stores what it accepts in columns allocated once: configurations
    Q (N + 2 rows for a Lagrangian run, N + 1 for a Hamiltonian one), momenta
    P (N + 1 rows) and the DiagnosticColumns. Each step writes one row of
    each; point k of the curve is (Q[k], P[k], Q[k + 1]), and a Hamiltonian
    ``final_state`` is (Q[N], P[N]).
    """
    opts = opts if opts is not None else SolverOptions()
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    lagrangian = system.kind == LAGRANGIAN
    n, m = system.n, system.m
    # rows of Q ahead of P: a Lagrangian run's seed point fills Q[1] too
    ahead = 1 if lagrangian else 0
    q_col = np.empty((steps + 1 + ahead, n))
    p_col = np.empty((steps + 1, n))
    if lagrangian:
        if not isinstance(seed, PontryaginPoint):
            raise UnsupportedOperationError("Lagrangian trajectories start from a PontryaginPoint")
        _check_dim(seed, n)
        x = seed
        q_col[0], p_col[0], q_col[1] = seed.q, seed.p, seed.qplus
        p = None  # the first step evaluates its carried momentum
    else:
        try:
            q, p = seed
        except (TypeError, ValueError):
            raise UnsupportedOperationError("Hamiltonian trajectories start from a (q0, p0) pair")
        if steps == 0:
            raise ValueError("a Hamiltonian trajectory needs at least one step; "
                             "no complete bundle point exists before the first solve")
        q, p = _phase_state(q, p, n)
        q_col[0], p_col[0] = q, p
    diags = DiagnosticColumns(*np.empty((3, steps)), np.empty((steps, m)),
                              *np.empty((2, steps), dtype=np.int64))
    residual, inclusion, constraint = (diags.residual, diags.inclusion_residual,
                                       diags.constraint_residual)
    iterations, assemblies, lams = diags.iterations, diags.jacobian_assemblies, diags.multipliers

    def trajectory(done: int) -> Trajectory:
        points = done + ahead
        final = None if lagrangian else (q_col[done], p_col[done])
        return Trajectory(DiscreteCurve._stepped(q_col[:points + 1], p_col[:points]),
                          diags._head(done), system.label, done, opts, final)

    def failed(k: int, exc: DiracMechError) -> StepFailureError:
        partial = trajectory(k) if k + ahead else None
        return StepFailureError("step %d failed: %s" % (k, exc), k, partial)

    if lagrangian:
        try:
            r0 = check_initial_data(system, seed)
        except DiracMechError as exc:
            raise failed(0, exc) from exc
        if not (r0 <= opts.tol):
            warnings.warn("trajectory seed is inconsistent (initial-data residual %.3e)" % r0,
                          RuntimeWarning, stacklevel=2)
    lam_prev = None
    jac_cache = []
    for k in range(steps):
        try:
            if lagrangian:
                result = step_lagrangian(system, x, opts, multiplier_guess=lam_prev,
                                         check_consistency=False, jacobian_cache=jac_cache,
                                         _carried=p)
            else:
                result = step_hamiltonian(system, q, p, opts, multiplier_guess=lam_prev,
                                          jacobian_cache=jac_cache, _owned=True)
        except DiracMechError as exc:
            raise failed(k, exc) from exc
        x = result.next
        q, p = x.qplus, result.p_next
        q_col[k + 1 + ahead] = q
        p_col[k + 1] = x.p if lagrangian else p
        residual[k] = result.residual
        inclusion[k] = result.inclusion_residual
        constraint[k] = result.constraint_residual
        iterations[k] = result.iterations
        assemblies[k] = result.jacobian_assemblies
        if m:
            lams[k] = result.multipliers
        lam_prev = result.multipliers
    return trajectory(steps)
