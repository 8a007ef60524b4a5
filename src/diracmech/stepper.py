"""Implicit per-step solvers for the constrained discrete equations of motion.

One Lagrangian step advances a complete bundle point (q_k, p_k, q_{k+1}) to
(q_{k+1}, p_{k+1}, q_{k+2}) by solving force balance plus the pair constraint
for (q_{k+2}, lambda). One Hamiltonian step maps (q_k, p_k) to (p_{k+1},
q_{k+1}, lambda). Both run damped Newton on a square system and certify the
accepted update against the abstract inclusion residual before returning.
"""

from __future__ import annotations

import math
import warnings
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
from .systems import (
    HAMILTONIAN,
    LAGRANGIAN,
    DiscreteSystem,
    dirac_inclusion_residual,
    jacobian_columns,
)

_PREDICTORS = ("extrapolate", "hold")

# Condition estimate above which the Hamiltonian cross-derivative block
# triggers a regularity warning.
CROSS_BLOCK_COND_LIMIT = 1e12

# A held Newton matrix keeps contracting while a full step cuts the residual
# to at most this fraction of the current one (chord-method monitoring, as in
# Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003).
CONTRACTION = 0.5

# A damped line search that stalls at a residual within this factor of the
# round-off floor eps * ||J||_inf * ||x||_inf is reported as a tolerance the
# arithmetic cannot reach, not as a failed search.
ROUNDOFF_MARGIN = 10.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the damped Newton iteration.

    ``predictor`` picks the initial guess for the new configuration:
    "extrapolate" continues at constant velocity, "hold" reuses the current
    one. ``cross_check`` compares the assembled Jacobian against a full
    finite-difference Jacobian at the predictor and warns on disagreement.
    """

    tol: float = 1e-10
    max_iter: int = 50
    damping: bool = True
    predictor: str = "extrapolate"
    min_step: float = 2.0 ** -20
    cross_check: bool = False

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.predictor not in _PREDICTORS:
            raise ValueError("predictor must be one of %r" % (_PREDICTORS,))


@dataclass(frozen=True)
class StepResult:
    """One accepted step: the new point, multipliers and solve diagnostics.

    ``p_next`` is the momentum at the index after ``next`` (for Hamiltonian
    steps this is the carried p_{k+1}; for Lagrangian steps it is the
    momentum the following step will carry).
    """

    next: PontryaginPoint
    multipliers: np.ndarray
    iterations: int
    residual: float
    inclusion_residual: float
    constraint_residual: float
    p_next: np.ndarray
    jacobian_assemblies: int = 0


@dataclass(frozen=True, slots=True)
class StepDiagnostics:
    """Per-step record; ``jacobian_assemblies`` is 0 on steps solved on a held matrix."""

    residual: float
    inclusion_residual: float
    constraint_residual: float
    multipliers: np.ndarray
    iterations: int = 0
    jacobian_assemblies: int = 0


@dataclass(frozen=True)
class Trajectory:
    """A solved discrete curve plus per-step diagnostics and run metadata.

    For Hamiltonian runs the curve holds the N completed points and
    ``final_state`` carries the (q_N, p_N) pair left over after the last
    step; Lagrangian runs store seed plus N points and leave it None. The
    ``max_*`` aggregates are NaN as soon as any step's value is NaN.
    """

    curve: DiscreteCurve
    diagnostics: Tuple[StepDiagnostics, ...]
    system_label: str
    steps: int
    options: SolverOptions
    final_state: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if check_admissibility(self.curve, 0.0) is not None:
            raise ValueError("trajectory curve violates the second-order condition")
        if len(self.diagnostics) != self.steps:
            raise ValueError("expected %d diagnostic records, got %d"
                             % (self.steps, len(self.diagnostics)))

    @property
    def max_residual(self) -> float:
        return _worst(d.residual for d in self.diagnostics)

    @property
    def max_inclusion_residual(self) -> float:
        return _worst(d.inclusion_residual for d in self.diagnostics)

    @property
    def max_constraint_residual(self) -> float:
        return _worst(d.constraint_residual for d in self.diagnostics)

    @property
    def total_iterations(self) -> int:
        return sum(d.iterations for d in self.diagnostics)

    @property
    def total_jacobian_assemblies(self) -> int:
        return sum(d.jacobian_assemblies for d in self.diagnostics)


def _worst(values) -> float:
    return float(np.max(np.fromiter(values, float), initial=0.0))


_F64 = np.dtype(float)

# Vectors up to this length take the pure-Python paths of _norm_inf and
# _all_finite.
_SMALL = 8


def _as_f64(x) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype == _F64:
        return x
    return np.asarray(x, dtype=float)


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


def _state_block(x, n: int, name: str) -> np.ndarray:
    if not (type(x) is np.ndarray and x.dtype == _F64 and x.shape == (n,)):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (n,):
            raise DimensionMismatchError("%s has shape %r, expected (%d,)" % (name, x.shape, n))
    if not _all_finite(x):
        raise ValueError("%s entries must all be finite" % name)
    return x


def _newton_step(jm: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """The solution of jm @ step = -fx; 1x1 and 2x2 systems solve in Python floats."""
    if jm.shape == (1, 1):
        pivot = float(jm[0, 0])
        if pivot != 0.0 and math.isfinite(pivot):
            s0 = -float(fx[0]) / pivot
            if math.isfinite(s0):
                return np.array([s0])
    elif jm.shape == (2, 2):
        a, b = float(jm[0, 0]), float(jm[0, 1])
        c, d = float(jm[1, 0]), float(jm[1, 1])
        det = a * d - b * c
        if det != 0.0 and math.isfinite(det):
            r0, r1 = -float(fx[0]), -float(fx[1])
            s0 = (d * r0 - b * r1) / det
            s1 = (a * r1 - c * r0) / det
            if math.isfinite(s0) and math.isfinite(s1):
                return np.array([s0, s1])
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

    The iteration matrix comes from ``jac`` (a central-difference Jacobian of
    f when None). Without ``jacobian_cache`` it is assembled at every
    iterate. ``jacobian_cache`` is a one-slot list that holds the matrix
    across iterations and calls: a matrix in it is used from the start, and
    every assembly is stored back into it. A held matrix is reassembled at
    the current iterate only when it stops contracting there: a full step
    leaves a residual above CONTRACTION times the current one, or the solve
    with it is singular. Such a step is kept if it still lowered the
    residual and discarded otherwise. The damped line search (halving down
    to opts.min_step) runs only on a freshly assembled matrix; when it
    stalls near the round-off floor (see ROUNDOFF_MARGIN) the error says
    that opts.tol is below that floor and gives its value.

    Convergence is ||f(x)||_inf <= opts.tol on true residuals; every gate
    fails on NaN. Returns (root, iterations, final residual).
    """
    opts = opts if opts is not None else SolverOptions()
    x = np.asarray(x0, dtype=float).copy()
    fx = _as_f64(f(x))
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
                jacobian_cache[:] = [held]
        try:
            step = _newton_step(held, fx)
        except SingularJacobianError:
            if fresh:
                raise
            held = None
            continue
        xt = x + step
        ft = _as_f64(f(xt))
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
                if alpha < opts.min_step:
                    raise _stall_error(held, x, res, opts, iters + 1)
                xt = x + alpha * step
                ft = _as_f64(f(xt))
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


def _hold_constraint_blocks(jacobian_cache: list, a: np.ndarray, cjac: np.ndarray) -> None:
    """Swap the held matrix for a copy carrying this step's constraint blocks.

    -A^T goes in the first n rows of the last m (multiplier) columns, and
    ``cjac`` in the last m (constraint) rows of the n configuration columns
    before them. The finite-difference block of L or H is kept as held.
    """
    m, n = a.shape
    jm = jacobian_cache[0].copy()
    k = jm.shape[0] - m
    jm[:n, k:] = -a.T
    jm[k:, k - n:k] = cjac
    jacobian_cache[0] = jm


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
    if x0.dim != system.n:
        raise DimensionMismatchError("point dimension %d, system dimension %d" % (x0.dim, system.n))
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


def step_lagrangian(system: DiscreteSystem, x: PontryaginPoint,
                    opts: Optional[SolverOptions] = None,
                    multiplier_guess: Optional[np.ndarray] = None,
                    check_consistency: bool = True,
                    jacobian_cache: Optional[list] = None) -> StepResult:
    """Advance a complete point one index.

    Solves, for (qnew, lambda), the carried momentum d2 L(q, q+) balancing
    d1 L(q+, qnew) against A(q+)^T lambda together with phi(q+, qnew) = 0,
    then certifies the accepted update with the inclusion residual
    (raising CertificationError unless it is at most 10 * tol).
    ``jacobian_cache`` is the one-slot list of ``newton_solve``, holding the
    iteration matrix across the steps of one trajectory; on a constrained
    step its -A^T and constraint-Jacobian blocks are replaced by this
    step's, evaluated at the predictor.
    """
    if system.kind != LAGRANGIAN:
        raise UnsupportedOperationError("step_lagrangian needs a Lagrangian-kind system")
    if x.dim != system.n:
        raise DimensionMismatchError("point dimension %d, system dimension %d" % (x.dim, system.n))
    opts = opts if opts is not None else SolverOptions()
    if check_consistency:
        r0 = check_initial_data(system, x)
        if r0 > opts.tol:
            warnings.warn(
                "seed point is inconsistent (initial-data residual %.3e); "
                "the step still solves the inclusion at the next index" % r0,
                RuntimeWarning, stacklevel=2,
            )

    lag = system.lagrangian
    n, m = system.n, system.m
    q1 = x.qplus
    d1 = lag.d1
    p1 = lag.d2(x.q, x.qplus)

    if m:
        a1 = system.dist.matrix(q1)

        def residual_fn(z):
            qnew = z[:n]
            r1 = p1 + d1(q1, qnew) - a1.T @ z[n:]
            return np.concatenate([r1, system.constraint.value(q1, qnew)])
    else:
        def residual_fn(qnew):
            return p1 + d1(q1, qnew)

    assemblies = [0]

    def jacobian_fn(z):
        assemblies[0] += 1
        qnew = z[:n]
        j11 = jacobian_columns(lambda qn: d1(q1, qn), qnew, lag.provider.fd_scale)
        if not m:
            return j11
        top = np.hstack([j11, -a1.T])
        bottom = np.hstack([system.constraint.jacobian2(q1, qnew), np.zeros((m, m))])
        return np.vstack([top, bottom])

    if opts.predictor == "extrapolate":
        qnew0 = (q1 + q1) - x.q  # q1 + q1 is 2 q1 exactly, without a scalar multiply
    else:
        qnew0 = q1.copy()
    lam0 = np.zeros(m) if multiplier_guess is None else np.asarray(multiplier_guess, dtype=float)
    if lam0.shape != (m,):
        raise DimensionMismatchError("multiplier guess has shape %r, expected (%d,)"
                                     % (lam0.shape, m))
    z0 = np.concatenate([qnew0, lam0]) if m else qnew0
    if m and jacobian_cache:
        _hold_constraint_blocks(jacobian_cache, a1, system.constraint.jacobian2(q1, qnew0))
    if opts.cross_check:
        _maybe_cross_check(residual_fn, jacobian_fn(z0), z0)

    z, iters, res = newton_solve(residual_fn, jacobian_fn, z0, opts,
                                 jacobian_cache=jacobian_cache)
    qnew, lam = (z[:n], z[n:]) if m else (z, lam0)

    # q1 aliases x.qplus, so admissibility holds exactly; p1 and qnew are
    # freshly computed and finite (the accepted Newton residual was finite)
    nxt = PontryaginPoint._trusted(q1, p1, qnew)
    p_next = lag.d2(q1, qnew)
    cres = float(np.max(np.abs(system.constraint.value(q1, qnew)))) if m else 0.0
    inclusion = dirac_inclusion_residual(system, nxt, p_next)
    _certify(inclusion, opts)
    return StepResult(nxt, lam, iters, res, inclusion, cres, p_next, assemblies[0])


def step_hamiltonian(system: DiscreteSystem, q: np.ndarray, p: np.ndarray,
                     opts: Optional[SolverOptions] = None,
                     multiplier_guess: Optional[np.ndarray] = None,
                     jacobian_cache: Optional[list] = None) -> StepResult:
    """Advance a phase-space pair one index.

    Solves, for (pnew, qnew, lambda), momentum balance p - dH/dq(q, pnew)
    against A(q)^T lambda, the configuration update qnew = dH/dp(q, pnew), and
    phi(q, qnew) = 0. Without constraints the update is explicit in pnew, so
    Newton runs on momentum balance alone (its matrix is minus the
    cross-derivative block) and qnew is evaluated once at the root. Returns
    the completed point (q, p, qnew) with the carried momentum pnew in
    ``p_next``. Warns when the cross-derivative block of H is close to
    singular, since the update map may then fail to exist. The check runs
    on each assembly of the iteration matrix, so a step solved on a matrix
    held in ``jacobian_cache`` skips it, constrained or not; a held
    constrained matrix gets this step's -A^T and constraint-Jacobian blocks
    at the predictor.
    """
    if system.kind != HAMILTONIAN:
        raise UnsupportedOperationError("step_hamiltonian needs a Hamiltonian-kind system")
    opts = opts if opts is not None else SolverOptions()
    ham = system.hamiltonian
    n, m = system.n, system.m
    q = _state_block(q, n, "q")
    p = _state_block(p, n, "p")
    dq_grad = ham.dq
    dp_grad = ham.dp

    def cross_block(pnew):
        return jacobian_columns(lambda pn: dq_grad(q, pn), pnew, ham.provider.fd_scale)

    def check_regularity(cross):
        if n == 1:
            cond = 1.0 if cross[0, 0] != 0.0 else float("inf")
        else:
            cond = float(np.linalg.cond(cross))
        if cond > CROSS_BLOCK_COND_LIMIT:
            warnings.warn(
                "cross-derivative block of the Hamiltonian is near singular "
                "(condition estimate %.3e); the implicit update may not be well defined"
                % cond, RuntimeWarning, stacklevel=3,
            )

    assemblies = [0]
    lam0 = np.zeros(m) if multiplier_guess is None else np.asarray(multiplier_guess, dtype=float)
    if lam0.shape != (m,):
        raise DimensionMismatchError("multiplier guess has shape %r, expected (%d,)"
                                     % (lam0.shape, m))

    if m:
        a0 = system.dist.matrix(q)

        def residual_fn(z):
            pnew, qnew = z[:n], z[n:2 * n]
            return np.concatenate([p - dq_grad(q, pnew) - a0.T @ z[2 * n:],
                                   qnew - dp_grad(q, pnew),
                                   system.constraint.value(q, qnew)])

        def jacobian_fn(z):
            assemblies[0] += 1
            pnew = z[:n]
            cross = cross_block(pnew)
            check_regularity(cross)
            jm = np.zeros((2 * n + m, 2 * n + m))
            jm[:n, :n] = -cross
            jm[n:2 * n, :n] = -jacobian_columns(lambda pn: dp_grad(q, pn), pnew,
                                                ham.provider.fd_scale)
            jm[n:2 * n, n:2 * n] = np.eye(n)
            jm[:n, 2 * n:] = -a0.T
            jm[2 * n:, n:2 * n] = system.constraint.jacobian2(q, z[n:2 * n])
            return jm

        z0 = np.concatenate([p, dp_grad(q, p), lam0])
        if jacobian_cache:
            _hold_constraint_blocks(jacobian_cache, a0,
                                    system.constraint.jacobian2(q, z0[n:2 * n]))
    else:
        def residual_fn(pnew):
            return p - dq_grad(q, pnew)

        def jacobian_fn(pnew):
            assemblies[0] += 1
            cross = cross_block(pnew)
            check_regularity(cross)
            return -cross

        z0 = p.copy()
    if opts.cross_check:
        _maybe_cross_check(residual_fn, jacobian_fn(z0), z0)

    z, iters, res = newton_solve(residual_fn, jacobian_fn, z0, opts,
                                 jacobian_cache=jacobian_cache)
    if m:
        pnew, qnew, lam = z[:n], z[n:2 * n], z[2 * n:]
    else:
        pnew, qnew, lam = z, dp_grad(q, z), lam0
        if not _all_finite(qnew):
            raise EvaluationError("configuration update dH/dp is not finite "
                                  "at the solved momentum")
    if jacobian_cache is None and not assemblies[0]:
        # Newton converged at the predictor; still report degenerate updates
        check_regularity(cross_block(pnew))

    # q and p were validated on entry; qnew is finite by Newton acceptance
    # or by the check above
    nxt = PontryaginPoint._trusted(q, p, qnew)
    cres = float(np.max(np.abs(system.constraint.value(q, qnew)))) if m else 0.0
    inclusion = dirac_inclusion_residual(system, nxt, pnew)
    _certify(inclusion, opts)
    return StepResult(nxt, lam, iters, res, inclusion, cres, pnew, assemblies[0])


def run_trajectory(system: DiscreteSystem, seed, steps: int,
                   opts: Optional[SolverOptions] = None) -> Trajectory:
    """Iterate the appropriate stepper ``steps`` times from the seed.

    Lagrangian seeds are complete PontryaginPoints (the curve then holds seed
    plus one point per step); Hamiltonian seeds are (q0, p0) pairs and need
    steps >= 1 to produce a curve point. On a failed step a StepFailureError
    is raised carrying the failing index and the partial trajectory.

    Every run holds one Newton iteration matrix for the whole trajectory
    and reassembles it only where it stops contracting (see
    ``newton_solve``). On constrained runs each step first replaces the
    matrix's -A^T and constraint-Jacobian blocks, which are exact and cheap,
    by its own at the predictor, and keeps the finite-difference block of L
    or H; that block is rebuilt only by a reassembly. Convergence is still
    judged on exact residuals and every step is certified individually.
    Each diagnostic records the step's Newton iterations and matrix
    assemblies.
    """
    opts = opts if opts is not None else SolverOptions()
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    lagrangian = system.kind == LAGRANGIAN
    if lagrangian:
        if not isinstance(seed, PontryaginPoint):
            raise UnsupportedOperationError("Lagrangian trajectories start from a PontryaginPoint")
        r0 = check_initial_data(system, seed)
        if r0 > opts.tol:
            warnings.warn("trajectory seed is inconsistent (initial-data residual %.3e)" % r0,
                          RuntimeWarning, stacklevel=2)
        points = [seed]
    else:
        try:
            q, p = seed
        except (TypeError, ValueError):
            raise UnsupportedOperationError("Hamiltonian trajectories start from a (q0, p0) pair")
        if steps == 0:
            raise ValueError("a Hamiltonian trajectory needs at least one step; "
                             "no complete bundle point exists before the first solve")
        q = np.atleast_1d(np.asarray(q, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        points = []
    diags = []
    lam_prev = None
    jac_cache = []
    for k in range(steps):
        try:
            if lagrangian:
                result = step_lagrangian(system, points[-1], opts, multiplier_guess=lam_prev,
                                         check_consistency=False, jacobian_cache=jac_cache)
            else:
                result = step_hamiltonian(system, q, p, opts, multiplier_guess=lam_prev,
                                          jacobian_cache=jac_cache)
        except DiracMechError as exc:
            partial = None
            if points:
                partial = Trajectory(DiscreteCurve(points), tuple(diags), system.label,
                                     len(diags), opts, None if lagrangian else (q, p))
            raise StepFailureError("step %d failed: %s" % (k, exc), k, partial) from exc
        points.append(result.next)
        diags.append(StepDiagnostics(result.residual, result.inclusion_residual,
                                     result.constraint_residual, result.multipliers,
                                     result.iterations, result.jacobian_assemblies))
        lam_prev = result.multipliers
        if not lagrangian:
            q, p = result.next.qplus, result.p_next
    return Trajectory(DiscreteCurve(points), tuple(diags), system.label, steps, opts,
                      None if lagrangian else (q, p))
