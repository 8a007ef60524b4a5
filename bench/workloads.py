"""The benchmark's workloads: seeded inputs, one timed job each, and output checks.

A workload builds its state in ``setup`` (imports done by the caller, then
system construction), draws one job's inputs with ``make_input`` (untimed),
runs the job with ``run`` (timed: one CLI call or one ``run_trajectory``
call) and validates the job's output with ``check``, which returns None or a
one-line reason. Every check recomputes the dynamics with the benchmark's own
arithmetic; none of them trusts a residual the library reports about itself,
except the CLI's ``inclusion_residual`` column, which the check requires to
stay under the library's own gate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

H = 0.1          # time step of the built-in workloads
LAM = 1.0        # oscillator stiffness
TOL = 1e-10      # default SolverOptions.tol; every workload runs default options
FD_N = 20        # dimension of the finite-difference Hamiltonian
FD_H = 0.05      # its time step

# Check tolerances. Newton stops at a residual of TOL in momentum units, so a
# solved configuration is off by about H * TOL and a momentum by about TOL;
# the bounds below leave two orders of magnitude on top of that and still
# catch any corruption of 1e-6 or more.
Q_TOL = 1e-9
P_TOL = 1e-8
FD_TOL = 1e-8    # five-point differences of a finite-difference solution


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple                  # diracmech modules imported during set-up
    setup: Callable                 # (modules, rng) -> state
    make_input: Callable            # (state, rng, steps) -> job input
    run: Callable                   # (state, job input) -> output
    check: Callable                 # (state, job input, output) -> None or reason
    steps: int                      # certified steps per job
    trace_jobs_per_s: float         # traced job pairs per second of --seconds


def _relative(err: float, scale: float) -> float:
    return err / max(1.0, scale)


def _oscillator_recurrence_error(q: np.ndarray, h: float, lam: float) -> float:
    """Worst gap of q_{k+1} = (2 - h^2 lam) q_k - q_{k-1}, relative to the amplitude."""
    pred = (2.0 - h * h * lam) * q[1:-1] - q[:-2]
    return _relative(float(np.max(np.abs(q[2:] - pred), initial=0.0)), float(np.abs(q).max()))


# -- osc-cli: diracmech.cli.main on a harmonic_oscillator config ---------------

def _cli_setup(out_dir: Path):
    def setup(modules, rng):
        cli = modules["cli"]
        config = cli.parse_config(json.dumps(_cli_config([0.0, 0.1], 1, out_dir / "setup.csv")))
        cli.build_system(config)
        return {"cli": cli, "out_dir": out_dir}
    return setup


def _cli_config(seed, steps: int, output: Path) -> dict:
    return {"system": "harmonic_oscillator", "h": H, "lambda": LAM, "seed": seed,
            "steps": steps, "output": str(output), "format": "csv"}


def _cli_input(state, rng, steps: int):
    q0 = float(rng.uniform(-1.0, 1.0))
    q1 = q0 + H * float(rng.uniform(-1.0, 1.0))
    output = state["out_dir"] / "osc-cli.csv"
    config = state["out_dir"] / "osc-cli.json"
    config.write_text(json.dumps(_cli_config([q0, q1], steps, output)))
    return {"config": str(config), "output": output, "seed": (q0, q1), "steps": steps}


def _cli_run(state, inp):
    return state["cli"].main([inp["config"], "--quiet"])


_CLI_COLUMNS = ["k", "q0", "p0", "qplus0", "residual", "inclusion_residual",
                "constraint_residual"]


def _cli_check(state, inp, rc):
    if rc != 0:
        return "exit code %r" % (rc,)
    with open(inp["output"], newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _CLI_COLUMNS:
            return "unexpected CSV header"
        table = np.empty((inp["steps"] + 1, len(_CLI_COLUMNS) - 1))
        rows = 0
        for k, row in enumerate(reader):
            if k >= len(table) or len(row) != len(_CLI_COLUMNS):
                return "row %d is malformed or beyond the step count" % k
            try:
                if int(row[0]) != k:
                    return "row %d is numbered %s" % (k, row[0])
                table[k] = [float(x) for x in row[1:]]
            except ValueError:
                return "row %d does not parse" % k
            rows += 1
    if rows != len(table):
        return "%d rows for %d steps" % (rows, inp["steps"])
    q, p, qplus, inclusion = table[:, 0], table[:, 1], table[:, 2], table[:, 4]
    if (q[0], qplus[0]) != inp["seed"]:
        return "seed row does not hold the configured seed"
    if not np.array_equal(qplus[:-1], q[1:]):
        return "q+ of a row differs from q of the next row"
    if not np.all(inclusion <= 10.0 * TOL):
        return "inclusion_residual above 10 * tol"
    qs = np.append(q, qplus[-1])
    err = _oscillator_recurrence_error(qs, H, LAM)
    if not err <= Q_TOL:
        return "q leaves the closed-form recurrence by %.3e" % err
    perr = _relative(float(np.max(np.abs(p[1:] - (q[1:] - q[:-1]) / H))), float(np.abs(p).max()))
    if not perr <= P_TOL:
        return "p differs from (q_k - q_{k-1}) / h by %.3e" % perr
    return None


# -- nonholonomic: run_trajectory on nonholonomic_particle ----------------------

def _nh_setup(modules, rng):
    return {"stepper": modules["stepper"], "builtin": modules["builtin"],
            "system": modules["builtin"].nonholonomic_particle(H)}


def _nh_input(state, rng, steps: int):
    q0 = rng.uniform(-1.0, 1.0, 3)
    v = rng.uniform(-1.0, 1.0, 3)
    v[2] = q0[1] * v[0]  # A(q0) v = 0, so the seed respects the distribution
    seed = state["builtin"].lagrangian_seed(state["system"], q0, q0 + H * v)
    return {"seed": seed, "steps": steps}


def _trajectory_run(state, inp):
    return state["stepper"].run_trajectory(state["system"], inp["seed"], inp["steps"])


def _nh_check(state, inp, traj):
    qs = np.array([pt.q for pt in traj.curve.points] + [traj.curve[-1].qplus])
    ps = np.array([pt.p for pt in traj.curve.points])
    if qs.shape != (inp["steps"] + 2, 3):
        return "curve has %d configurations for %d steps" % (len(qs), inp["steps"])
    qplus = np.array([pt.qplus for pt in traj.curve.points])
    if not np.array_equal(qplus[:-1], qs[1:-1]):
        return "q+ of a point differs from q of the next point"
    scale = float(np.abs(qs).max())
    # phi(q, q+) = A(q) (q+ - q) with A(q) = [-q_2, 0, 1]
    dq = qs[1:] - qs[:-1]
    phi = -qs[:-1, 1] * dq[:, 0] + dq[:, 2]
    err = _relative(float(np.abs(phi).max()), scale)
    if not err <= Q_TOL:
        return "|phi| reaches %.3e" % err
    # unit mass: (q_k - q_{k-1})/h - (q_{k+1} - q_k)/h must lie in span A(q_k)^T
    force = (dq[:-1] - dq[1:]) / H
    rows = np.stack([-qs[1:-1, 1], np.zeros(len(force)), np.ones(len(force))], axis=1)
    along = np.sum(force * rows, axis=1) / np.sum(rows * rows, axis=1)
    off = force - along[:, None] * rows
    err = _relative(float(np.abs(off).max()), float(np.abs(ps).max()))
    if not err <= P_TOL:
        return "force balance leaves the row span of A(q) by %.3e" % err
    perr = _relative(float(np.abs(ps[1:] - dq[:-1] / H).max()), float(np.abs(ps).max()))
    if not perr <= P_TOL:
        return "p differs from (q_k - q_{k-1}) / h by %.3e" % perr
    return None


# -- fd-ham-20: custom n=20 Hamiltonian with no analytic partials -----------------

def _fd_hamiltonian(rng, n: int = FD_N, h: float = FD_H):
    """H(q, p+) = q.p+ + h [|p+|^2/2 + e.p+^4/4 + q.Kq/2 + d.(sin(q) p+)].

    The quartic term makes the update nonlinear in p+, so Newton iterates;
    the cross block d2H/dq dp+ = I + h diag(d cos q) stays regular.
    """
    e = rng.uniform(0.5, 1.0, n)
    d = rng.uniform(0.05, 0.15, n)
    k = np.diag(rng.uniform(0.5, 1.5, n))
    c = rng.uniform(-0.05, 0.05, (n, n))
    k = k + 0.5 * (c + c.T)

    def ham(q, pp):
        return q @ pp + h * (0.5 * (pp @ pp) + 0.25 * (e @ pp ** 4)
                             + 0.5 * (q @ (k @ q)) + d @ (np.sin(q) * pp))

    return ham


def _fd_setup(modules, rng):
    dm = modules["diracmech"]
    ham = _fd_hamiltonian(rng)
    system = dm.DiscreteSystem.from_hamiltonian(dm.DiscreteHamiltonian(FD_N, ham),
                                                label="fd-ham-20")
    return {"stepper": modules["stepper"], "system": system, "ham": ham}


def _ham_input(n: int, amplitude: float):
    def make(state, rng, steps: int):
        q0 = amplitude * rng.uniform(-1.0, 1.0, n)
        p0 = amplitude * rng.uniform(-1.0, 1.0, n)
        return {"seed": (q0, p0), "steps": steps}
    return make


def _hamiltonian_path(traj, inp):
    """(q, p) at indices 0..N, or a reason the curve is malformed."""
    q = np.array([pt.q for pt in traj.curve.points] + [traj.final_state[0]])
    p = np.array([pt.p for pt in traj.curve.points] + [traj.final_state[1]])
    if len(q) != inp["steps"] + 1:
        return "curve has %d points for %d steps" % (len(q) - 1, inp["steps"])
    qplus = np.array([pt.qplus for pt in traj.curve.points])
    if not np.array_equal(qplus, q[1:]):
        return "q+ of a point differs from q of the next point"
    q0, p0 = inp["seed"]
    if not (np.array_equal(q[0], np.atleast_1d(q0)) and np.array_equal(p[0], np.atleast_1d(p0))):
        return "curve does not start at the seed"
    return q, p


def _five_point_gradient(f, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step * max(1.0, abs(x[i]))
        grad[i] = (8.0 * (f(x + e) - f(x - e)) - (f(x + 2 * e) - f(x - 2 * e))) / (12.0 * e[i])
    return grad


def _fd_check(state, inp, traj):
    path = _hamiltonian_path(traj, inp)
    if isinstance(path, str):
        return path
    q, p = path
    ham = state["ham"]
    worst = 0.0
    for k in range(inp["steps"]):
        # discrete Hamilton equations: p_k = dH/dq(q_k, p_{k+1}), q_{k+1} = dH/dp(q_k, p_{k+1})
        hq = _five_point_gradient(lambda x: ham(x, p[k + 1]), q[k])
        hp = _five_point_gradient(lambda x: ham(q[k], x), p[k + 1])
        worst = max(worst, float(np.abs(p[k] - hq).max()), float(np.abs(q[k + 1] - hp).max()))
    err = _relative(worst, max(float(np.abs(q).max()), float(np.abs(p).max())))
    if not err <= FD_TOL:
        return "discrete Hamilton equations fail by %.3e" % err
    return None


# -- osc-ham: run_trajectory on harmonic_oscillator_hamiltonian ---------------------

def _oh_setup(modules, rng):
    return {"stepper": modules["stepper"],
            "system": modules["builtin"].harmonic_oscillator_hamiltonian(H, LAM)}


def _oh_check(state, inp, traj):
    path = _hamiltonian_path(traj, inp)
    if isinstance(path, str):
        return path
    q, p = path
    err = _oscillator_recurrence_error(q[:, 0], H, LAM)
    if not err <= Q_TOL:
        return "q leaves the closed-form recurrence by %.3e" % err
    # q_{k+1} = q_k + h p_{k+1}
    perr = _relative(float(np.abs(p[1:, 0] - (q[1:, 0] - q[:-1, 0]) / H).max()),
                     float(np.abs(p).max()))
    if not perr <= P_TOL:
        return "p differs from (q_k - q_{k-1}) / h by %.3e" % perr
    return None


def workloads(out_dir: Path):
    """The four workloads by name. ``out_dir`` receives the CLI's files."""
    return {w.name: w for w in (
        Workload("osc-cli", ("diracmech", "diracmech.cli"), _cli_setup(out_dir), _cli_input,
                 _cli_run, _cli_check, steps=10000, trace_jobs_per_s=0.5),
        Workload("nonholonomic", ("diracmech", "diracmech.builtin"), _nh_setup, _nh_input,
                 _trajectory_run, _nh_check, steps=2000, trace_jobs_per_s=0.5),
        Workload("fd-ham-20", ("diracmech",), _fd_setup, _ham_input(FD_N, 0.5),
                 _trajectory_run, _fd_check, steps=8, trace_jobs_per_s=0.9),
        Workload("osc-ham", ("diracmech", "diracmech.builtin"), _oh_setup, _ham_input(1, 1.0),
                 _trajectory_run, _oh_check, steps=10000, trace_jobs_per_s=0.5),
    )}
