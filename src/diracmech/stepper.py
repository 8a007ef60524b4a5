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
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
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
from .linalg import _all_finite, _count, _norm_inf, _real, _real_array, _vector
from .systems import (
    FD_SCALE,
    HAMILTONIAN,
    LAGRANGIAN,
    DiscreteSystem,
    _check_dim,
    _deviation,
    _differences,
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

# Where every entry of x and of a step lies below this, no entry of x + step
# can overflow.
_HALF_MAX = float(np.finfo(float).max) / 2


@dataclass(frozen=True)
class SolverOptions:
    """What a caller may set for the Newton iteration of each step.

    ``tol`` must be a positive finite real number and ``max_iter`` an
    integer of at least 1 (NumPy numbers will do; they are kept as a Python
    float and int). These two fields are exactly the solver keys of a CLI
    config. Every entry point takes them as ``opts``, None meaning the
    defaults; any other object raises UnsupportedOperationError. Where Newton
    starts is not an option: a run picks it from its own history (see
    ``_Run``), and what a run checks once, such as a user constraint
    Jacobian, it checks with no option (see ``_Run.advance``).
    """

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        # a bool tol would read as 1.0 and accept steps Newton never solved,
        # and an int beyond the float range would overflow at the first gate
        object.__setattr__(self, "tol", _real(self.tol, "tol", positive=True))
        object.__setattr__(self, "max_iter", _count(self.max_iter, "max_iter", 1))


def _options(opts: Optional[SolverOptions], name: str = "opts") -> SolverOptions:
    """``opts``, or the default SolverOptions for None; UnsupportedOperationError otherwise.

    The error names the argument ``name``: 'opts' at every entry point,
    'options' for the field of a Trajectory.
    """
    if opts is None:
        return SolverOptions()
    if not isinstance(opts, SolverOptions):
        raise UnsupportedOperationError("%s must be a SolverOptions or None, got %s"
                                        % (name, type(opts).__name__))
    return opts


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

    Each field of StepDiagnostics is one column of the same name, in the
    order of the dataclass, which is the one list of them: a length-N array,
    or (N, m) for ``multipliers``. Record k is built on access from row k of
    each column, a Python number (``.item()``) of a 1-d column and the row
    itself of ``multipliers``.
    """

    __slots__ = _FIELDS = tuple(f.name for f in fields(StepDiagnostics))

    def __init__(self, *columns):
        for name, column in zip(self._FIELDS, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def _stack(cls, records) -> "DiagnosticColumns":
        records = tuple(records)
        return cls(*(np.array([getattr(d, name) for d in records]) for name in cls._FIELDS))

    def __len__(self) -> int:
        return self.residual.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        columns = map(self.__getattribute__, self._FIELDS)
        return StepDiagnostics(*(c[k] if c.ndim > 1 else c[k].item() for c in columns))

    def __eq__(self, other):
        if isinstance(other, tuple) and all(isinstance(d, StepDiagnostics) for d in other):
            try:
                other = DiagnosticColumns._stack(other)
            except ValueError:  # multipliers of unequal lengths stack to no run's columns
                return False
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
    kept as DiagnosticColumns. ``steps`` must be a nonnegative integer
    (ValueError otherwise; it is kept as a Python int), and ``options`` a
    SolverOptions, None giving the defaults (UnsupportedOperationError
    otherwise), by the rules of every entry point. The ``max_*`` aggregates
    are NaN as soon as any step's value is NaN.
    """

    curve: DiscreteCurve
    diagnostics: DiagnosticColumns
    system_label: str
    steps: int
    options: SolverOptions
    final_state: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "steps", _count(self.steps, "steps", 0))
        object.__setattr__(self, "options", _options(self.options, "options"))
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


def _trial(x: np.ndarray, step: np.ndarray) -> Optional[np.ndarray]:
    """The trial iterate x + step, or None when the step is not finite.

    An entry that overflows reads inf, as in Python floats, and numpy does
    not warn: below _HALF_MAX in every entry (math.hypot does not square,
    and it fails the test on NaN or inf) numpy adds, and otherwise Python
    floats do.
    """
    xs, ss = x.tolist(), step.tolist()
    if math.hypot(*xs, *ss) < _HALF_MAX:
        return x + step
    return np.array([a + b for a, b in zip(xs, ss)]) if _all_finite(step) else None


def _newton_step(jm: np.ndarray, fx: np.ndarray, x: np.ndarray) -> tuple:
    """(step, x + step) for the solution of jm @ step = -fx; see ``_trial``.

    A 1x1 system solves in Python floats and returns its step as a float.
    """
    if jm.shape == (1, 1):
        pivot = jm.item()
        if pivot != 0.0 and math.isfinite(pivot):
            s0 = -fx.item() / pivot
            if math.isfinite(s0):
                return s0, np.array([x.item() + s0])
    else:
        try:
            step = np.linalg.solve(jm, -fx)
            xt = _trial(x, step)
            if xt is not None:
                return step, xt
        except np.linalg.LinAlgError:
            pass
    # the SVD behind cond() fails on non-finite entries
    cond = _condition(jm) if _all_finite(jm) else math.inf
    raise SingularJacobianError(
        "Newton Jacobian is singular or gives a non-finite step (condition estimate %.3e)"
        % cond, condition=cond,
    )


def newton_solve(f: Callable[[np.ndarray], np.ndarray],
                 jac: Optional[Callable[[np.ndarray], np.ndarray]],
                 x0: np.ndarray,
                 opts: Optional[SolverOptions] = None,
                 held: Optional[np.ndarray] = None) -> Tuple[np.ndarray, int, float]:
    """Chord Newton on one held matrix, damped where it is fresh, for f(x) = 0.

    The iteration matrix comes from ``jac`` (a forward-difference Jacobian of
    f when None). It is held across iterations and reassembled at the
    current iterate only when it stops contracting there: a full step leaves
    a residual above CONTRACTION times the current one, or the solve with it
    is singular (chord monitoring, Kelley, ch. 5). Such a step is kept if it
    still lowered the residual and discarded otherwise. A ``held`` matrix
    (not None) is used from the start; the solve writes to neither it nor
    x0, and a caller that keeps its matrices keeps them in ``jac``. The
    damped line search (halving down to MIN_STEP) runs only on a
    freshly assembled matrix; when it stalls near the round-off floor (see
    ROUNDOFF_MARGIN) the error says that opts.tol is below that floor and
    gives its value. x0, every residual and every matrix from ``jac`` must
    be real numbers (see ``_real_array``; a ValueError names 'x0',
    'residual' or 'jac(x)' otherwise). Every residual must have one entry
    per unknown, and an assembled matrix must be square with one row per
    unknown; any other shape raises DimensionMismatchError.

    Convergence is ||f(x)||_inf <= opts.tol on true residuals; every gate
    fails on NaN. Returns (root, iterations, final residual).
    """
    # a run's engine passes its own SolverOptions on every step: one type test
    opts = opts if type(opts) is SolverOptions else _options(opts)
    x = _vector(x0, "x0").copy()
    fx = _vector(f(x), "residual", x.size)
    res = _norm_inf(fx)
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
            held = _real_array(jac(x), "jac(x)") if jac is not None else jacobian_columns(f, x)
        if held.shape != (x.size, x.size):
            raise DimensionMismatchError("Newton matrix has shape %r, expected %r"
                                         % (held.shape, (x.size, x.size)))
        try:
            step, xt = _newton_step(held, fx, x)
        except SingularJacobianError:
            if fresh:
                raise
            held = None
            continue
        ft = _vector(f(xt), "residual", x.size)
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
                # a 1x1 solve's step is a float
                xt = _trial(x, alpha * np.atleast_1d(step))
                ft = _vector(f(xt), "residual", x.size)
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
    An L or H that raises there, or gives no real scalar, leaves it alone.
    """
    provider = system._generator.provider
    if provider.grads[0] is not None or not math.isfinite(exc.residual):
        return
    try:
        noise = FD_SCALE ** 2 * abs(float(_real_array(provider.f(q, y))))
    except Exception:  # a failed or non-scalar L or H leaves the ConvergenceError as it is
        return
    if exc.residual <= ROUNDOFF_MARGIN * noise:
        exc.args = ("%s; the residual's central-difference gradient has a noise floor of "
                    "FD_SCALE**2*|L or H| = %.3e at this iterate, which analytic partials, "
                    "or a larger tol, remove" % (exc, noise),)


def _seed_certificate(system: DiscreteSystem, x0) -> Tuple[np.ndarray, float]:
    """The carried momentum d2 L(q0, q0+) of a Lagrangian seed and the certificate at (x0, it).

    One d2 L and one d1 L call, and one momentum balance p0 + d1 L, which
    the certificate takes as its held balance; the certificate is NaN when
    d2 L is not finite. ``x0`` is a PontryaginPoint, or a run's engine,
    which holds its checked seed as (q, p, qplus) before its first step.
    """
    lag = system.lagrangian
    p0 = lag.d2(x0.q, x0.qplus)
    balance = system.balance(x0.p, lag.d1(x0.q, x0.qplus))
    r0 = dirac_inclusion_residual(system, x0, p0, _held=(balance, None))
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


def _condition(m: np.ndarray) -> float:
    """np.linalg.cond of a finite square matrix; a 1x1 one in closed form (1.0, inf for zero).

    The first np.linalg.cond initialises LAPACK, which nothing else on the
    one-dimensional oscillator runs touches. Without the closed form, peak
    RSS rose from 42.5 to 43.2 MB on the benchmark's osc-ham workload and
    from 40.2 to 40.9 MB on osc-cli (``bench/run.py --seconds 3``, seed 7).
    """
    if m.shape == (1, 1):
        return 1.0 if m[0, 0] else math.inf
    return float(np.linalg.cond(m))


def _warn(message: str) -> None:
    """A RuntimeWarning attributed to the first calling frame outside this package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _check_regularity(cross: np.ndarray, kind: str) -> None:
    if not _all_finite(cross):
        return  # the Newton solve reports a non-finite matrix as singular
    cond = _condition(cross)
    if cond > CROSS_BLOCK_COND_LIMIT:
        _warn("cross-derivative block of the %s is near singular (condition estimate %.3e); "
              "the implicit update may not be well defined" % (kind.capitalize(), cond))


def _check_jac2(constraint, q: np.ndarray, qplus: np.ndarray) -> None:
    # a wrong user jac2 only steers Newton badly, so nothing else reports it;
    # central differences of phi(q, .) read only, outside the Newton matrices
    jac = constraint.jacobian2(q, qplus)
    fd = np.column_stack(_differences(lambda v: constraint.value(q, v), qplus, True))
    gap = _deviation(jac, fd)
    if not (gap <= 1e-4):
        _warn("constraint Jacobian jac2 deviates from central differences of phi by "
              "%.3e (relative) at (q, q+)" % gap)


def _extrapolated(history: tuple) -> np.ndarray:
    """The next unknown continued from the last two or three solved ones, newest first."""
    y1, y2 = history[:2]
    return 3.0 * (y1 - y2) + history[2] if len(history) == 3 else (y1 + y1) - y2


class _Run:
    """The engine of one run: what its steps share, resolved once, and what each hands on.

    Every step belongs to a run: a direct ``step_lagrangian`` or
    ``step_hamiltonian`` call is the first step of a fresh one, and
    ``advance`` is the one method that takes a step. The engine
    is built as ``_Run(system, opts, seed)``, bound to its system and
    SolverOptions (the defaults for None), and resolves at construction
    what every step reads from the system. It is the one place a seed is
    checked: a Lagrangian seed must be a PontryaginPoint of the system's
    dimension (UnsupportedOperationError, DimensionMismatchError), and a
    Hamiltonian seed a (q0, p0) pair (UnsupportedOperationError) of real
    (ValueError), length-n (DimensionMismatchError) and finite (ValueError)
    vectors, which the run copies. A Newton matrix differences the slope of
    a slot: the analytic slot gradient itself, or else forward differences
    (n + 1 evaluations of L or H, not 2n), since the matrix only steers the
    iteration. ``held`` is the run's Newton matrix, None until
    ``_jacobian`` stores its first assembly, and ``dhdp`` the dH/dp block C
    of a constrained Hamiltonian matrix. ``q``, ``p`` and ``qplus`` are
    the point of the last step, and ``carried`` is the next step's
    momentum; the seed stands in for a step before the first, as the point
    (q, p, q+) with no carried momentum (None) for a Lagrangian run and as
    (q+, carried) = (q0, p0) for a Hamiltonian one. ``k`` counts the steps
    taken, so the first is the one with ``k`` 0; ``lam`` is the multiplier
    guess, zero before the first step.
    A constrained step looks its distribution up once: ``a`` is that
    step's A(q) and ``basis`` the orthonormal basis of its rows, one memo
    entry of the distribution. ``retraction`` says, once per run, whether
    the pair constraint is the retraction of the system's own distribution
    (its ``retracts`` is ``system.dist``); the run then computes phi =
    A(q) (q+ - q) and J2 = A(q) from ``a`` and calls neither closure. Any
    other constraint, a retraction of another distribution object included,
    is called through its guarded path. Each residual keeps its argument
    in ``last_z`` and its momentum balance in ``last_balance``, the one
    place the balance is computed during a step: the held certificate reads
    it from there.
    ``history`` stays None until a step of the run needs a second Newton
    iteration; from then on it holds the last two or three solved unknowns,
    newest first, and ``extrapolate`` says where the next step starts
    Newton: at the extrapolation of the history (True, as every run begins)
    or at the previous unknown. Each step sets it by which of the two lay
    closer to its own solution (see ``advance``). ``rows`` is None unless
    ``run_trajectory`` sets it to the run's columns, Q and P from the first
    row each step fills, then the DiagnosticColumns fields; step ``k`` then
    writes its row k there instead of returning a StepResult.
    """

    def __init__(self, system: DiscreteSystem, opts: Optional[SolverOptions], seed):
        self.system, self.opts, self.momentum_balance = system, _options(opts), system.balance
        self.lagrangian, self.n, self.m = system.kind == LAGRANGIAN, system.n, system.m
        self.held = self.dhdp = self.carried = self.history = self.rows = self.conf_key = None
        # the run's one seed check, leaving the state a step before the first would
        if self.lagrangian:
            _check_dim(seed, self.n)
            self.q, self.p, self.qplus = seed.q, seed.p, seed.qplus
        else:
            try:
                q, p = seed
            except (TypeError, ValueError):
                raise UnsupportedOperationError("Hamiltonian trajectories start from a (q0, p0) pair")
            self.qplus, self.carried = (_vector(q, "q", self.n).copy(),
                                        _vector(p, "p", self.n).copy())
            if not (_all_finite(self.qplus) and _all_finite(self.carried)):
                raise ValueError("q and p entries must all be finite")
        slots = self.grad, self.complete = system.slots()
        self.dist, self.constraint = system.dist, system.constraint
        # one test per run: a retraction of this system's own distribution is
        # computed from the step's A(q), any other constraint is called
        self.retraction = system.constraint.retracts is system.dist
        provider = system._generator.provider
        self.slopes = [slot if provider.grads[block] is not None
                       else functools.partial(provider.forward_gradient, block)
                       for block, slot in enumerate(slots)]
        self.extrapolate, self.k, self.lam, self.basis = True, 0, np.zeros(self.m), None
        self.incomplete = ("momentum update d2 L is not finite at the solved configuration"
                           if self.lagrangian else
                           "configuration update dH/dp is not finite at the solved momentum")

    def _conf(self, y):
        """q+ = dH/dp(q, y) of a Hamiltonian step's unknown y, evaluated once per value of y."""
        key = y.tobytes()
        if key != self.conf_key:
            self.conf_key, self.conf_value = key, self.complete(self.q, y)
        return self.conf_value

    def _balance(self, y):
        self.last_z = y
        self.last_balance = self.momentum_balance(self.p, self.grad(self.q, y))
        return self.last_balance

    def _phi(self, conf):
        # a retraction's A(q) (conf - q), as its own phi computes it; any other phi is called
        return self.a.dot(conf - self.q) if self.retraction else self.constraint.value(self.q, conf)

    def _constrained(self, z):
        n = self.n
        y = z[:n]
        r = self._balance(y) - self.a.T.dot(z[n:])
        conf = y if self.lagrangian else self._conf(y)
        self.last_z, self.last_phi = z, self._phi(conf)
        return np.concatenate([r, self.last_phi])

    def _with_constraint_blocks(self, jm, y):
        # -A^T in the multiplier columns of the balance rows, the constraint
        # Jacobian J2(q, conf(y)) C in the y columns of the constraint rows;
        # a retraction's J2 is A(q) itself
        n, c = self.n, self.dhdp
        jm[:n, n:] = -self.a.T
        j2 = self.a if self.retraction else self.constraint.jacobian2(
            self.q, y if self.lagrangian else self._conf(y))
        jm[n:, :n] = j2 if c is None else j2.dot(c)
        return jm

    def _slot_block(self, block, y):
        # the matrix block of the balance (0) or completion (1) slot gradient
        slope, q = self.slopes[block], self.q
        return jacobian_columns(lambda v: slope(q, v), y)

    def _jacobian(self, z):
        self.assemblies += 1
        n, m, lagrangian = self.n, self.m, self.lagrangian
        y = z[:n]
        cross = self._slot_block(0, y)
        _check_regularity(cross, self.system.kind)
        jm = self.held = np.zeros((n + m, n + m))
        jm[:n, :n] = cross if lagrangian else -cross
        if not m:
            return jm
        if not lagrangian:
            self.dhdp = self._slot_block(1, y)
        return self._with_constraint_blocks(jm, y)

    def advance(self) -> Optional[StepResult]:
        """Solve and certify the run's next step, of either kind, from the state its last step left.

        The step's base point q is the last q+, and p is the carried
        momentum. Every step solves z = (y, lambda), n + m unknowns. The
        unknown y is q+ for a Lagrangian step and p+ for a Hamiltonian one;
        momentum balance is p + d1 L(q, y) or p - dH/dq(q, y), less A(q)^T
        lambda when constrained. A constrained step adds phi(q, conf(y)) = 0,
        where conf is the identity for a Lagrangian step and dH/dp(q, .) for
        a Hamiltonian one. Its matrix block is J2(q, conf(y)) C, with C = I
        or the forward-difference Jacobian of dH/dp in p+. The step completes
        with q+ = y, p+ = d2 L(q, y) (Lagrangian) or q+ = dH/dp(q, y), p+ = y
        (Hamiltonian), and is certified with the inclusion residual at
        (q, p, q+) and p+. Every assembly of the Newton matrix checks the
        cross-derivative block, D2 D1 L or the q-p+ block of H, for
        regularity; so does the first step of a run after its solve, when
        Newton converged at the predictor without assembling one. A run that
        never assembles is checked there only, once. The first step of a run
        that calls a user ``jac2`` also compares jac2(q, q+) at its accepted
        (q, q+) with central differences of phi(q, .), 2n calls of phi, and
        warns when they differ by more than 1e-4 * max(1, max|jac2|) (see
        ``systems._deviation``): a wrong jac2 only slows Newton down, so
        nothing else reports it. A run with m = 0 calls no jac2, and neither
        does a run whose constraint is the retraction of the system's own
        distribution, so both skip this check.

        The first step of a Lagrangian run has no carried momentum yet: it
        evaluates d2 L(q, q+) of the seed and checks the seed with it,
        through the helper behind ``check_initial_data``. A d2 L that is not
        finite raises EvaluationError, and one warning is given when the
        certificate at the seed exceeds 10 * tol, or when a constrained seed
        pair has |phi(q, q+)|_inf above tol: the gates every accepted step
        meets. Every warning of a step names the first calling frame outside
        the package.

        Newton starts at the predictor y0, picked in one place. Until the run
        has a history it is (q+ + q+) - q, q+ continued at constant
        velocity, for a Lagrangian step and the carried p for a Hamiltonian
        one. Every Newton matrix has the exact -A^T multiplier columns and a
        zero multiplier block, so an undamped step from (y0, lambda0)
        reaches the same iterate for every lambda0; the guess only changes
        the start residual. A held matrix of a constrained step gets this
        step's -A^T and constraint block J2(q, conf(y0)) C. The step that
        switches the history on records (y, b), with b the previous unknown
        (q for a Lagrangian step, p for a Hamiltonian one), and every later
        step records its own y in front, keeping three. Such a step computes
        ex = ``_extrapolated`` of the history and starts Newton at ex while
        ``extrapolate`` is set, at b otherwise (Hairer, Lubich and Wanner,
        Geometric Numerical Integration, 2nd ed., VIII.6.1). After its solve
        it sets ``extrapolate`` to ||y - ex|| <= ||y - b||: the start that lay
        closer on this step serves the next, so a stiff stretch, where the
        extrapolation overshoots, falls back to b and a smooth one returns to
        ex. This costs no user evaluation.

        A constrained step takes A(q) and its row basis from one lookup of
        its distribution, which serves the -A^T columns of every residual and
        matrix and the certificate's ker A(q) projection. For a retraction of
        the system's own distribution it also gives phi(q, conf) = A(q)
        (conf - q) and the constraint block J2 = A(q), with the arithmetic of
        the retraction's own phi and jac2, so the step calls neither; any
        other constraint is evaluated through ``DiscreteConstraint``. The
        residual keeps the momentum balance and phi of its last call.
        ``_conf`` keeps the last dH/dp(q, y) it evaluated, keyed on the bytes
        of y, for the held matrix's constraint block at the predictor, the
        residuals, the assemblies and q+ of the step. When Newton returns the
        very array of the residual's last call, q+, the constraint residual
        and the certificate read those values instead of evaluating them
        again; otherwise they are evaluated afresh.
        """
        lagrangian, n, m, opts = self.lagrangian, self.n, self.m, self.opts
        q, p = self.qplus, self.carried
        if lagrangian and not self.k:
            # the seed check: check_initial_data with the carried momentum at
            # hand; the engine holds the seed point as (q, p, q+)
            p, r0 = _seed_certificate(self.system, self)
            if not _all_finite(p):
                raise EvaluationError("carried momentum d2 L is not finite at the seed")
            gap = _norm_inf(self.constraint.value(self.q, q))
            if not (r0 <= 10.0 * opts.tol and gap <= opts.tol):
                _warn("seed point is inconsistent: initial-data residual %.3e (gate %.1e), "
                      "discrete constraint residual %.3e (gate %.1e); the step still solves "
                      "the inclusion at the next index" % (r0, 10.0 * opts.tol, gap, opts.tol))
        base = q if lagrangian else p
        history = self.history
        if history is not None:
            ex = _extrapolated(history)
            y0 = ex if self.extrapolate else base
        else:
            # q + q is 2 q exactly, without a scalar multiply
            y0 = (q + q) - self.q if lagrangian else p
        self.q, self.p, self.assemblies = q, p, 0
        if m:
            # the step's one distribution lookup: A(q) and its row basis. q
            # moves, so every dH/dp(q, y) the memo keeps is stale
            (_, self.a, self.basis), self.conf_key = self.dist._validated(q), None
            z0, f = np.concatenate([y0, self.lam]), self._constrained
            if self.held is not None:
                # a held matrix keeps its finite-difference blocks of L or H and
                # takes this step's constraint blocks at the predictor, in place
                self._with_constraint_blocks(self.held, y0)
        else:
            z0, f = y0, self._balance
        try:
            z, iters, res = newton_solve(f, self._jacobian, z0, opts, self.held)
        except ConvergenceError as exc:
            _name_noise_floor(exc, self.system, q, self.last_z[:n])
            raise
        # the residual's last values belong to the returned root only if its
        # last call was made on this very array
        last = z is self.last_z
        y, lam = (z[:n], z[n:]) if m else (z, self.lam)
        # one completion for both kinds, d2 L(q, y) or dH/dp(q, y); the last
        # residual of a constrained Hamiltonian step has evaluated dH/dp there
        c = self._conf(y) if last and m and not lagrangian else self.complete(q, y)
        if not _all_finite(c):
            raise EvaluationError(self.incomplete)
        qplus, p_next = (y, c) if lagrangian else (c, y)
        if not self.k:
            # once per run: a degenerate update when the first step converged at
            # its predictor without a matrix, and a user jac2 that the run calls
            if self.held is None:
                _check_regularity(self._slot_block(0, y), self.system.kind)
            if m and self.constraint._jac2 is not None and not self.retraction:
                _check_jac2(self.constraint, q, qplus)
        # q and p come validated from the seed check, and q+ is finite by
        # Newton acceptance or by the check above; a held certificate reads
        # only the q and p of its point, which the engine holds
        cres = _norm_inf(self.last_phi if last else self._phi(qplus)) if m else 0.0
        inclusion = dirac_inclusion_residual(
            self.system, self if last else PontryaginPoint._trusted(q, p, qplus), p_next,
            _held=(self.last_balance, self.basis) if last else None)
        if not (inclusion <= 10.0 * opts.tol):
            raise CertificationError("accepted step fails the inclusion residual gate (%.3e > "
                                     "10 * %.1e)" % (inclusion, opts.tol),
                                     inclusion_residual=inclusion)
        if history is not None or iters > 1:
            self.extrapolate = history is None or _norm_inf(y - ex) <= _norm_inf(y - base)
            self.history = (y, base) + history[1:2] if history else (y, base)
        k = self.k
        self.qplus, self.carried, self.lam, self.k = qplus, p_next, lam, k + 1
        if self.rows is None:
            return StepResult(res, inclusion, cres, lam, iters, self.assemblies,
                              next=PontryaginPoint._trusted(q, p, qplus), p_next=p_next)
        q_rows, p_rows, residual, inclusion_col, constraint, lams, iterations, assemblies \
            = self.rows
        q_rows[k], p_rows[k] = qplus, p if lagrangian else p_next
        residual[k], inclusion_col[k], constraint[k] = res, inclusion, cres
        iterations[k], assemblies[k] = iters, self.assemblies
        if m:
            lams[k] = lam


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
    (EvaluationError otherwise). The certificate reuses the momentum
    balance p + d1 L of Newton's last residual; its q+ block p_next -
    d2 L(q+, qnew) is zero by construction.

    A direct call is the first step of a fresh run under ``opts``, built
    from the seed x, which must be a PontryaginPoint of the system's
    dimension (see ``_Run``). The first step of a run evaluates the carried
    momentum d2 L(q, q+) and checks its seed with it: a d2 L that is not
    finite raises EvaluationError, and one warning is given when the
    certificate at (x, d2 L(q, q+)) exceeds 10 * tol, or when a constrained
    seed pair has |phi(q, q+)|_inf above tol (see ``_Run.advance``).
    ``run_trajectory`` passes its engine, which carries its own options,
    through the private ``_run``, and None for x: the step then continues
    from the run's last (q+, qnew) and reads neither x nor ``opts``. Every
    later step takes the previous step's ``p_next``, which is
    the carried momentum, and the run's held matrix, multiplier guess and
    history of solved configurations. On a constrained step the held
    matrix's -A^T and constraint-Jacobian blocks are replaced by this
    step's, evaluated at the predictor. The predictor is q+ continued at
    constant velocity until the run has a history; from then on it is the
    history's extrapolation or q+ itself, whichever the run's last step
    found closer (see ``_Run.advance``). Its warnings name the caller's line.
    """
    if system.kind != LAGRANGIAN:
        raise UnsupportedOperationError("step_lagrangian needs a Lagrangian-kind system")
    return (_run or _Run(system, opts, x)).advance()


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

    The certificate reuses the momentum balance p - dH/dq of Newton's last
    residual; its dp block dH/dp(q, pnew) - qnew is zero by construction.
    A direct call is the first step of a fresh run under ``opts``, built
    from the seed (q, p), which the run checks and copies (see ``_Run``).
    ``run_trajectory``
    passes its engine, which carries its own options, through the private
    ``_run``, and None for q and p: the step then reads neither q, p nor
    ``opts``, and continues from the run's last (qnew, pnew) on the
    arrays the run solved, with the run's held matrix and its dH/dp block
    C, multiplier guess and history of solved momenta. A held constrained
    matrix gets this step's -A^T and constraint block J2(q, dH/dp(q, p0)) C
    at the predictor p0: the carried momentum p, or its extrapolation from
    the history (see ``_Run.advance``). The residual at p0 reuses that
    dH/dp(q, p0). Its warnings name the caller's line.
    """
    if system.kind != HAMILTONIAN:
        raise UnsupportedOperationError("step_hamiltonian needs a Hamiltonian-kind system")
    return (_run or _Run(system, opts, (q, p))).advance()


def run_trajectory(system: DiscreteSystem, seed, steps: int,
                   opts: Optional[SolverOptions] = None) -> Trajectory:
    """Iterate the appropriate stepper ``steps`` times from the seed.

    ``steps`` must be an integer of at least 0 (NumPy integers will do),
    and one whose columns cannot be allocated raises ValueError naming it.
    Lagrangian seeds are complete PontryaginPoints (the curve then holds seed
    plus one point per step); Hamiltonian seeds are (q0, p0) pairs and need
    steps >= 1 to produce a curve point. On a failed step a StepFailureError
    is raised carrying the failing index and the partial trajectory. The
    seed is checked where a direct step checks it, when the run's engine is
    built (see ``_Run``), and raises the same typed errors before any
    step. The run's first step checks a Lagrangian seed and warns on an
    inconsistent one (see ``_Run.advance``); a seed check that fails
    (d1 L, d2 L, A(q) or phi at the seed, or a d2 L that is not finite)
    fails step 0 with the seed-only trajectory. A zero-step run evaluates nothing.

    Every step is a call of the module's ``step_lagrangian`` or
    ``step_hamiltonian`` with the run's one engine (see ``_Run``). It holds
    one Newton iteration matrix for the whole trajectory and reassembles it
    only where it stops contracting (see ``newton_solve``). On constrained
    runs each step first replaces the matrix's -A^T and constraint-Jacobian
    blocks, which are exact and cheap, by its own at the predictor; the
    finite-difference block of L or H (and the dH/dp block C) is rebuilt
    only by a reassembly. Convergence is still judged on exact residuals
    and every step is certified individually.

    Each step writes its rows in place, with no per-step record, into
    columns allocated once: configurations Q (N + 2 rows for a Lagrangian
    run, N + 1 for a Hamiltonian one), momenta P (N + 1 rows) and the
    DiagnosticColumns (residuals, multipliers, Newton iterations and matrix
    assemblies). Point k of the curve is (Q[k], P[k], Q[k + 1]), and a
    Hamiltonian ``final_state`` is (Q[N], P[N]).
    """
    steps = _count(steps, "steps", 0)  # Trajectory.steps is a Python int for NumPy integers too
    run = _Run(system, opts, seed)
    lagrangian, n, m = run.lagrangian, run.n, run.m
    if not (lagrangian or steps):
        raise ValueError("a Hamiltonian trajectory needs at least one step; "
                         "no complete bundle point exists before the first solve")
    # rows of Q ahead of P: a Lagrangian run's seed point fills Q[1] too
    ahead = 1 if lagrangian else 0
    try:
        q_col = np.empty((steps + 1 + ahead, n))
        p_col = np.empty((steps + 1, n))
        columns = (*np.empty((3, steps)), np.empty((steps, m)),
                   *np.empty((2, steps), dtype=np.int64))
    except (ValueError, MemoryError) as exc:  # numpy's own errors do not name steps
        raise ValueError("'steps' = %d is too many to allocate (%s)" % (steps, exc)) from exc
    # the seed rows, from the state the engine holds before its first step
    if lagrangian:
        q_col[0], p_col[0], q_col[1] = run.q, run.p, run.qplus
    else:
        q_col[0], p_col[0] = run.qplus, run.carried

    def trajectory(done: int) -> Trajectory:
        points = done + ahead
        final = None if lagrangian else (q_col[done], p_col[done])
        return Trajectory(DiscreteCurve._stepped(q_col[:points + 1], p_col[:points]),
                          DiagnosticColumns(*(c[:done] for c in columns)), system.label, done,
                          run.opts, final)

    run.rows = (q_col[1 + ahead:], p_col[1:], *columns)
    for k in range(steps):
        try:
            if lagrangian:
                step_lagrangian(system, None, _run=run)
            else:
                step_hamiltonian(system, None, None, _run=run)
        except DiracMechError as exc:
            partial = trajectory(k) if k + ahead else None
            raise StepFailureError("step %d failed: %s" % (k, exc), k, partial) from exc
    return trajectory(steps)
