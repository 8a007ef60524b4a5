"""Implicit per-step solvers for the constrained discrete equations of motion.

One Lagrangian step advances a complete bundle point (q_k, p_k, q_{k+1}) to
(q_{k+1}, p_{k+1}, q_{k+2}) by solving force balance plus the pair constraint
for (q_{k+2}, lambda). One Hamiltonian step maps (q_k, p_k) to (p_{k+1},
lambda) and completes q_{k+1} = dH/dp(q_k, p_{k+1}). Both kinds solve the
same layout, (y, lambda) with n + m unknowns, on one path: chord Newton on
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
from .linalg import _all_finite, _norm_inf, _vector
from .systems import (
    FD_SCALE,
    HAMILTONIAN,
    LAGRANGIAN,
    DiscreteSystem,
    _check_dim,
    dirac_inclusion_residual,
    jacobian_columns,
)

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


def _check_count(value, name: str, least: int) -> None:
    # a float count such as nan would never end a loop
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError("%r must be a %s integer, got %r"
                         % (name, "positive" if least else "nonnegative", value))


@dataclass(frozen=True)
class SolverOptions:
    """What a caller may set for the Newton iteration of each step.

    ``tol`` must be a positive finite real number (kept as a float) and
    ``max_iter`` an integer of at least 1 (NumPy numbers will do).
    ``cross_check`` (a bool) compares the assembled Jacobian against a full
    finite-difference Jacobian at the predictor and warns on disagreement.
    Where Newton starts is not an option: a run picks it from its own
    history (see ``_Run``).
    """

    tol: float = 1e-10
    max_iter: int = 50
    cross_check: bool = False

    def __post_init__(self):
        # a bool tol would read as 1.0 and accept steps Newton never solved,
        # and an int beyond the float range would overflow at the first gate
        real = isinstance(self.tol, numbers.Real) and not isinstance(self.tol, bool)
        try:
            tol = float(self.tol) if real else math.nan
        except OverflowError:
            tol = math.inf
        if not 0.0 < tol < math.inf:
            raise ValueError("'tol' must be positive and finite, got %r" % (self.tol,))
        object.__setattr__(self, "tol", tol)
        _check_count(self.max_iter, "max_iter", 1)
        if not isinstance(self.cross_check, (bool, np.bool_)):
            raise ValueError("'cross_check' must be a bool, got %r" % (self.cross_check,))


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
            if _all_finite(step):
                return step
        except np.linalg.LinAlgError:
            pass
    # the SVD behind cond() fails on non-finite entries
    cond = float(np.linalg.cond(jm)) if _all_finite(jm) else float("inf")
    raise SingularJacobianError(
        "Newton Jacobian is singular or gives a non-finite step (condition estimate %.3e)"
        % cond, condition=cond,
    )


def newton_solve(f: Callable[[np.ndarray], np.ndarray],
                 jac: Optional[Callable[[np.ndarray], np.ndarray]],
                 x0: np.ndarray,
                 opts: Optional[SolverOptions] = None,
                 jacobian_cache: Optional[list] = None) -> Tuple[np.ndarray, int, float]:
    """Chord Newton on one held matrix, damped where it is fresh, for f(x) = 0.

    The iteration matrix comes from ``jac`` (a forward-difference Jacobian of
    f when None). It is held across iterations and reassembled at the
    current iterate only when it stops contracting there: a full step leaves
    a residual above CONTRACTION times the current one, or the solve with it
    is singular (chord monitoring, Kelley, ch. 5). Such a step is kept if it
    still lowered the residual and discarded otherwise. ``jacobian_cache``
    is a list whose slot 0 carries the matrix across calls: a matrix there
    (not None) is used from the start, and every assembly is stored back
    there. The damped line search (halving down to MIN_STEP) runs only on a
    freshly assembled matrix; when it stalls near the round-off floor (see
    ROUNDOFF_MARGIN) the error says that opts.tol is below that floor and
    gives its value. An assembled matrix must be square with one row per
    unknown; any other shape raises DimensionMismatchError.

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
            if held.shape != (x.size, x.size):
                raise DimensionMismatchError("Newton matrix has shape %r, expected %r"
                                             % (held.shape, (x.size, x.size)))
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
        else:
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
    provider = system._generator.provider
    if provider.grads[0] is not None or not math.isfinite(exc.residual):
        return
    noise = FD_SCALE ** 2 * abs(float(provider.f(q, y)))
    if exc.residual <= ROUNDOFF_MARGIN * noise:
        exc.args = ("%s; the residual's central-difference gradient has a noise floor of "
                    "FD_SCALE**2*|L or H| = %.3e at this iterate, which analytic partials, "
                    "or a larger tol, remove" % (exc, noise),)


def _seed_certificate(system: DiscreteSystem, x0: PontryaginPoint) -> Tuple[np.ndarray, float]:
    """The carried momentum d2 L(q0, q0+) of a Lagrangian seed and the certificate at (x0, it).

    One d2 L and one d1 L call; the certificate is NaN when d2 L is not finite.
    """
    lag = system.lagrangian
    p0 = lag.d2(x0.q, x0.qplus)
    r0 = dirac_inclusion_residual(system, x0, p0, _held=lag.d1(x0.q, x0.qplus))
    # the held form reads the q+ block p0 - d2 L as zero, which it is only
    # for a finite p0
    return p0, (r0 if _all_finite(p0) else math.nan)


def check_initial_data(system: DiscreteSystem, x0: PontryaginPoint) -> float:
    """The certificate of a Lagrangian seed x0 with the momentum it carries.

    This is ``dirac_inclusion_residual`` at (x0, d2 L(q0, q0+)): the 2-norm
    of p0 + d1 L(q0, q0+) projected on ker A(q0). The first step of a run
    checks it against 10 * tol, and at an accepted point of a run it equals
    the ``inclusion_residual`` of the step that reached it. Zero means x0 is a
    consistent Lagrangian seed (for the unconstrained case, exactly
    p0 = -d1 L(q0, q1)). Hamiltonian seeds (q0, p0) carry no such
    restriction, so asking for one is an error. It evaluates d1 L and d2 L
    once each, and is NaN when d2 L is not finite.
    """
    if system.kind != LAGRANGIAN:
        raise UnsupportedOperationError(
            "initial-data consistency is defined for the Lagrangian kind only; "
            "Hamiltonian initial data (q0, p0) is free and q1 is reported by step residuals"
        )
    _check_dim(x0, system.n)
    return _seed_certificate(system, x0)[1]


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
    if not _all_finite(cross):
        return  # the Newton solve reports a non-finite matrix as singular
    cond = float(np.linalg.cond(cross))
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
    provider = system._generator.provider
    if provider.grads[block] is None:
        return functools.partial(provider.forward_gradient, block)
    return slot


def _extrapolated(history: tuple) -> np.ndarray:
    """The next unknown continued from the last two or three solved ones, newest first."""
    y1, y2 = history[:2]
    return 3.0 * (y1 - y2) + history[2] if len(history) == 3 else (y1 + y1) - y2


class _Run:
    """What one run hands from each step to the next.

    Every step belongs to a run: a direct ``step_lagrangian`` or
    ``step_hamiltonian`` call is the first step of a fresh one. ``cache`` is
    the one-slot list of ``newton_solve`` that holds the run's Newton matrix,
    and ``dhdp`` the dH/dp block C of a constrained Hamiltonian matrix.
    ``carried`` is the next step's momentum, None before the first step,
    and ``lam`` its multiplier guess, zero on the first step. ``history``
    stays None until a step of the run needs a second Newton iteration; from
    then on it holds the last two or three solved unknowns, newest first,
    and ``extrapolate`` says where the next step starts Newton: at the
    extrapolation of the history (True, as every run begins) or at the
    previous unknown. Each step sets it by which
    of the two lay closer to its own solution (see ``_solve_step``).
    """

    __slots__ = ("cache", "dhdp", "carried", "lam", "history", "extrapolate")

    def __init__(self):
        self.cache, self.extrapolate = [None], True
        self.dhdp = self.carried = self.lam = self.history = None


def _solve_step(system: DiscreteSystem, q: np.ndarray, p: np.ndarray, y0: np.ndarray,
                opts: SolverOptions, run: _Run) -> StepResult:
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
    block of H, for regularity; so does the first step of a run after its
    solve, when Newton converged at the predictor without assembling one.
    A run that never assembles is checked there only, once.

    ``run`` is the record of the run the step belongs to. The step reads its
    multiplier guess from the record and leaves p+ and lambda there. Every
    Newton matrix has the exact -A^T multiplier columns and a zero
    multiplier block, so an undamped step from (y0, lambda0) reaches the
    same iterate for every lambda0; the guess only changes the start
    residual. A held matrix of a constrained step gets this step's -A^T and
    border J2(q, conf(y0)) C. The step that switches the history on
    records (y, b), with b the previous unknown (q for a Lagrangian step, p
    for a Hamiltonian one), and every later step records its own y in
    front, keeping three. Such a step computes ex = ``_extrapolated`` of
    the history and starts Newton at ex while ``run.extrapolate`` is set,
    at b otherwise (Hairer, Lubich and Wanner, Geometric Numerical
    Integration, 2nd ed., VIII.6.1). After its solve it sets
    ``run.extrapolate`` to ||y - ex|| <= ||y - b||: the start that lay
    closer on this step serves the next, so a stiff stretch, where the
    extrapolation overshoots, falls back to b and a smooth one returns to
    ex. This costs no user evaluation.

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
    history = run.history
    if history is not None:
        ex = _extrapolated(history)
        y0 = ex if run.extrapolate else base
    # the argument of the residual's last call and its gradient, conf(y)
    # (constrained steps) and constraint value
    last_z = last_g = last_c = last_phi = None

    def balance(y):
        nonlocal last_z, last_g
        last_z, last_g = y, grad(q, y)
        return momentum_balance(p, last_g)
    lam0 = np.zeros(m) if run.lam is None else run.lam
    if m:
        at = system.dist.matrix(q).T
        # (y0, conf(y0)) of the held border, for the first residual
        border = None

        def residual_fn(z):
            nonlocal last_z, last_c, last_phi, border
            y = z[:n]
            r = balance(y) - at @ z[n:]
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
            jm[:n, n:] = -at
            j2 = system.constraint.jacobian2(q, conf)
            jm[n:, :n] = j2 if c is None else j2 @ c
            return jm

        z0 = np.concatenate([y0, lam0])
        if run.cache[0] is not None:
            # a held matrix keeps its finite-difference blocks of L or H and
            # takes this step's constraint blocks at the predictor
            if lagrangian:
                conf0, c = y0, None
            else:
                conf0, c = complete(q, y0), run.dhdp
                border = (y0, conf0)
            run.cache[0] = with_constraint_blocks(run.cache[0].copy(), conf0, c)
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
        c = run.dhdp = None if lagrangian else slot_block(1, y)
        conf = last_c if z is last_z else (y if lagrangian else complete(q, y))
        return with_constraint_blocks(jm, conf, c)

    if opts.cross_check:
        _maybe_cross_check(residual_fn, jacobian_fn(z0), z0)

    try:
        z, iters, res = newton_solve(residual_fn, jacobian_fn, z0, opts, jacobian_cache=run.cache)
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
    if run.carried is None and run.cache[0] is None:
        # the run's first step converged at its predictor without a matrix;
        # still report a degenerate update, once per run
        _check_regularity(slot_block(0, y), system.kind)

    # q and p come validated from the entry points, and q+ is finite by
    # Newton acceptance or by the check above
    nxt = PontryaginPoint._trusted(q, p, qplus)
    cres = _norm_inf(last_phi if held else system.constraint.value(q, qplus)) if m else 0.0
    inclusion = dirac_inclusion_residual(system, nxt, p_next, _held=last_g if held else None)
    _certify(inclusion, opts)
    if history is not None or iters > 1:
        run.extrapolate = history is None or _norm_inf(y - ex) <= _norm_inf(y - base)
        run.history = (y, base) + history[1:2] if history else (y, base)
    run.carried, run.lam = p_next, lam
    return StepResult(res, inclusion, cres, lam, iters, assemblies, next=nxt, p_next=p_next)


def step_lagrangian(system: DiscreteSystem, x: PontryaginPoint,
                    opts: Optional[SolverOptions] = None, *,
                    _run: Optional[_Run] = None) -> StepResult:
    """Advance a complete point one index.

    Solves, for (qnew, lambda), the carried momentum d2 L(q, q+) balancing
    d1 L(q+, qnew) against A(q+)^T lambda together with phi(q+, qnew) = 0,
    then certifies the accepted update with the inclusion residual
    (raising CertificationError unless it is at most 10 * tol). Warns when
    the cross-derivative block D2 D1 L is close to singular.

    A step evaluates d1 L once per Newton residual and d2 L once, for the
    new momentum p_next = d2 L(q+, qnew), which must be finite
    (EvaluationError otherwise). The certificate reuses d1 L from Newton's
    last residual; its q+ block p_next - d2 L(q+, qnew) is zero by
    construction.

    A direct call is the first step of a fresh run, and ``run_trajectory``
    passes its run record through the private ``_run``. The first step of
    a run evaluates the carried momentum d2 L(q, q+) and checks its seed
    with it, through the helper behind ``check_initial_data``: a d2 L that
    is not finite raises EvaluationError, and one warning is given when the
    certificate at (x, d2 L(q, q+)) exceeds 10 * tol, or when a
    constrained seed pair has |phi(q, q+)|_inf above tol. These are the
    gates every accepted step meets. Every later step takes the previous
    step's ``p_next``, which is that momentum, and the run's held matrix,
    multiplier guess and history of solved configurations. On a
    constrained step the held matrix's -A^T and constraint-Jacobian blocks
    are replaced by this step's, evaluated at the predictor. The predictor
    is q+ continued at constant velocity until the run has a history; from
    then on it is the history's extrapolation or q+ itself, whichever the
    run's last step found closer (see ``_Run``).
    """
    if system.kind != LAGRANGIAN:
        raise UnsupportedOperationError("step_lagrangian needs a Lagrangian-kind system")
    _check_dim(x, system.n)
    opts = opts if opts is not None else SolverOptions()
    run = _run if _run is not None else _Run()
    q1 = x.qplus
    # q1 + q1 is 2 q1 exactly, without a scalar multiply
    qnew0 = (q1 + q1) - x.q
    carried = run.carried
    if carried is None:
        # the seed check: check_initial_data with the carried momentum at hand
        carried, r0 = _seed_certificate(system, x)
        if not _all_finite(carried):
            raise EvaluationError("carried momentum d2 L is not finite at the seed")
        gap = _norm_inf(system.constraint.value(x.q, q1)) if system.m else 0.0
        if not (r0 <= 10.0 * opts.tol and gap <= opts.tol):
            warnings.warn(
                "seed point is inconsistent: initial-data residual %.3e (gate %.1e), discrete "
                "constraint residual %.3e (gate %.1e); the step still solves the inclusion at "
                "the next index" % (r0, 10.0 * opts.tol, gap, opts.tol),
                RuntimeWarning, stacklevel=2,
            )
    return _solve_step(system, q1, carried, qnew0, opts, run)


def step_hamiltonian(system: DiscreteSystem, q: np.ndarray, p: np.ndarray,
                     opts: Optional[SolverOptions] = None, *,
                     _run: Optional[_Run] = None) -> StepResult:
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
    iteration matrix, and on a run's first step when that step assembled
    none, so a later step solved on its run's held matrix, or without one,
    skips it, constrained or not.

    The certificate reuses dH/dq from Newton's last residual; its dp block
    dH/dp(q, pnew) - qnew is zero by construction. A direct call is the
    first step of a fresh run on copies of q and p. ``run_trajectory``
    hands over its own validated arrays and its run record with the private
    ``_run``. The step then builds its point on those arrays instead of on
    copies, and takes the run's held matrix and its dH/dp block C,
    multiplier guess and history of solved momenta. A held constrained
    matrix gets this step's -A^T and border J2(q, dH/dp(q, p0)) C at the
    predictor p0: the carried momentum p, or its extrapolation from the
    history (see ``_Run``). The residual at p0 reuses that dH/dp(q, p0).
    """
    if system.kind != HAMILTONIAN:
        raise UnsupportedOperationError("step_hamiltonian needs a Hamiltonian-kind system")
    opts = opts if opts is not None else SolverOptions()
    if _run is None:
        q, p = _phase_state(q, p, system.n)
        _run = _Run()
    return _solve_step(system, q, p, p, opts, _run)


def run_trajectory(system: DiscreteSystem, seed, steps: int,
                   opts: Optional[SolverOptions] = None) -> Trajectory:
    """Iterate the appropriate stepper ``steps`` times from the seed.

    ``steps`` must be an integer of at least 0 (NumPy integers will do),
    and one whose columns cannot be allocated raises ValueError naming it.
    Lagrangian seeds are complete PontryaginPoints (the curve then holds seed
    plus one point per step); Hamiltonian seeds are (q0, p0) pairs and need
    steps >= 1 to produce a curve point. On a failed step a StepFailureError
    is raised carrying the failing index and the partial trajectory. A
    Lagrangian seed of the wrong dimension raises DimensionMismatchError.
    The run's first step checks a Lagrangian seed and warns on an
    inconsistent one (see ``step_lagrangian``); a seed check that fails
    (d1 L, d2 L, A(q) or phi at the seed, or a d2 L that is not finite)
    fails step 0 with the seed-only trajectory. A zero-step run evaluates nothing.

    Every run holds one Newton iteration matrix for the whole trajectory
    and reassembles it only where it stops contracting (see
    ``newton_solve``). Its record, a ``_Run`` passed to every step, also
    keeps the dH/dp block C of a constrained Hamiltonian matrix and, from
    the first step that needs a second Newton iteration, the last solved
    unknowns, from which each later predictor is extrapolated or held (see
    ``_Run``).
    On constrained runs each step first replaces the matrix's -A^T and
    constraint-Jacobian blocks, which are exact and cheap, by its own at
    the predictor, and keeps the finite-difference block of L or H (and, on
    Hamiltonian runs, the dH/dp block C); these are rebuilt only by a
    reassembly. Convergence is still judged on exact residuals and
    every step is certified individually. Each diagnostic records the step's
    Newton iterations and matrix assemblies.

    Each step carries the previous step's ``p_next`` as its momentum, so a
    Lagrangian step does not evaluate d2 L(q, q+) again, and a Hamiltonian
    step works on the arrays of the previous step's result. Each step's
    multipliers are the next step's guess.

    The run stores what it accepts in columns allocated once: configurations
    Q (N + 2 rows for a Lagrangian run, N + 1 for a Hamiltonian one), momenta
    P (N + 1 rows) and the DiagnosticColumns. Each step writes one row of
    each; point k of the curve is (Q[k], P[k], Q[k + 1]), and a Hamiltonian
    ``final_state`` is (Q[N], P[N]).
    """
    opts = opts if opts is not None else SolverOptions()
    _check_count(steps, "steps", 0)
    steps = int(steps)  # Trajectory.steps is a Python int for NumPy integers too
    lagrangian = system.kind == LAGRANGIAN
    n, m = system.n, system.m
    # rows of Q ahead of P: a Lagrangian run's seed point fills Q[1] too
    ahead = 1 if lagrangian else 0
    try:
        q_col = np.empty((steps + 1 + ahead, n))
        p_col = np.empty((steps + 1, n))
        diags = DiagnosticColumns(*np.empty((3, steps)), np.empty((steps, m)),
                                  *np.empty((2, steps), dtype=np.int64))
    except (ValueError, MemoryError) as exc:  # numpy's own errors do not name steps
        raise ValueError("'steps' = %d is too many to allocate (%s)" % (steps, exc)) from exc
    if lagrangian:
        if not isinstance(seed, PontryaginPoint):
            raise UnsupportedOperationError("Lagrangian trajectories start from a PontryaginPoint")
        _check_dim(seed, n)
        x = seed
        q_col[0], p_col[0], q_col[1] = seed.q, seed.p, seed.qplus
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

    run = _Run()
    for k in range(steps):
        try:
            if lagrangian:
                result = step_lagrangian(system, x, opts, _run=run)
            else:
                result = step_hamiltonian(system, q, p, opts, _run=run)
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
    return trajectory(steps)
