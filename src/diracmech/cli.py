"""Command line front end: JSON run configs in, trajectory tables out.

A config names a built-in system, its parameters, the seed configurations
[q0, q1] (the seed momentum is derived, p0 = -d1 L(q0, q1)), a step count and
optional solver overrides. One table row is written per step after the seed
row; floats are printed with 17 significant digits so files re-parse to the
exact doubles that were computed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import builtin
from .errors import ConfigError, DiracMechError, StepFailureError
from .stepper import SolverOptions, Trajectory, run_trajectory
from .systems import DiscreteSystem

_FORMATS = ("csv", "json")

# Per-system parameter schema: name -> (required, default).
_SYSTEM_PARAMS = {
    "harmonic_oscillator": {"h": (True, None), "lambda": (False, 1.0)},
    "free_particle": {"h": (True, None), "n": (False, 1), "mass": (False, 1.0)},
    "nonholonomic_particle": {"h": (True, None), "mass": (False, 1.0)},
}
_COMMON_KEYS = {"system", "seed", "steps", "solver", "output", "format", "diagnostics"}
_SOLVER_KEYS = {"tol", "max_iter", "damping", "predictor"}


@dataclass
class RunConfig:
    system: str
    params: dict
    seed: np.ndarray
    steps: int
    solver: SolverOptions
    output: Path
    fmt: str
    diagnostics: bool = True


@dataclass
class RunSummary:
    steps_completed: int
    max_residual: float
    max_inclusion_residual: float
    max_constraint_residual: float
    wall_time: float
    total_iterations: int = 0
    total_jacobian_assemblies: int = 0

    @classmethod
    def of(cls, trajectory: Trajectory, wall_time: float) -> "RunSummary":
        return cls(trajectory.steps, trajectory.max_residual, trajectory.max_inclusion_residual,
                   trajectory.max_constraint_residual, wall_time, trajectory.total_iterations,
                   trajectory.total_jacobian_assemblies)

    def lines(self):
        return [
            "steps_completed: %d" % self.steps_completed,
            "max_residual: %.17g" % self.max_residual,
            "max_inclusion_residual: %.17g" % self.max_inclusion_residual,
            "max_constraint_residual: %.17g" % self.max_constraint_residual,
            "wall_time: %.6f s" % self.wall_time,
        ]


def _require_number(value, name: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("field %r must be a number, got %r" % (name, value), field=name)
    value = float(value)
    if positive and value <= 0.0:
        raise ConfigError("field %r must be positive, got %g" % (name, value), field=name)
    return value


def system_dimension(system: str, params: dict) -> int:
    if system == "harmonic_oscillator":
        return 1
    if system == "free_particle":
        return int(params["n"])
    return 3


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run config, applying defaults.

    Unknown keys are rejected; validation errors name the offending field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("parse error at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    system = raw.get("system")
    if system is None:
        raise ConfigError("missing required field 'system'", field="system")
    if system not in _SYSTEM_PARAMS:
        raise ConfigError("unknown system %r (built-ins: %s)"
                          % (system, ", ".join(sorted(_SYSTEM_PARAMS))), field="system")

    schema = _SYSTEM_PARAMS[system]
    allowed = _COMMON_KEYS | set(schema)
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError("unknown key %r for system %r" % (sorted(unknown)[0], system),
                          field=sorted(unknown)[0])

    params = {}
    for name, (required, default) in schema.items():
        if name in raw:
            params[name] = raw[name]
        elif required:
            raise ConfigError("system %r requires parameter %r" % (system, name), field=name)
        else:
            params[name] = default
    params["h"] = _require_number(params["h"], "h", positive=True)
    if "lambda" in params:
        lam = _require_number(params["lambda"], "lambda")
        if lam < 0.0:
            raise ConfigError("field 'lambda' must be nonnegative", field="lambda")
        params["lambda"] = lam
    if "n" in params:
        if isinstance(params["n"], bool) or not isinstance(params["n"], int) or params["n"] < 1:
            raise ConfigError("field 'n' must be a positive integer", field="n")
    if "mass" in params:
        if isinstance(params["mass"], list):
            entries = [_require_number(v, "mass", positive=True) for v in params["mass"]]
            if len(entries) != system_dimension(system, params):
                raise ConfigError("field 'mass' must have one entry per dimension (%d)"
                                  % system_dimension(system, params), field="mass")
            params["mass"] = entries
        else:
            params["mass"] = _require_number(params["mass"], "mass", positive=True)

    steps = raw.get("steps")
    if steps is None:
        raise ConfigError("missing required field 'steps'", field="steps")
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
        raise ConfigError("field 'steps' must be a nonnegative integer, got %r" % (steps,),
                          field="steps")

    n = system_dimension(system, params)
    seed = raw.get("seed")
    if seed is None:
        raise ConfigError("missing required field 'seed'", field="seed")
    try:
        seed = np.asarray(seed, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise ConfigError("field 'seed' must be a flat list of numbers", field="seed")
    if seed.shape != (2 * n,):
        raise ConfigError("seed for %r must hold [q0, q1], 2 * %d numbers, got %d"
                          % (system, n, seed.shape[0]), field="seed")
    if not np.all(np.isfinite(seed)):
        raise ConfigError("seed entries must be finite", field="seed")

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigError("field 'solver' must be an object", field="solver")
    unknown = set(solver_raw) - _SOLVER_KEYS
    if unknown:
        raise ConfigError("unknown solver key %r" % sorted(unknown)[0], field=sorted(unknown)[0])
    kwargs = {}
    if "tol" in solver_raw:
        kwargs["tol"] = _require_number(solver_raw["tol"], "solver.tol", positive=True)
    if "max_iter" in solver_raw:
        mi = solver_raw["max_iter"]
        if isinstance(mi, bool) or not isinstance(mi, int) or mi < 1:
            raise ConfigError("field 'solver.max_iter' must be a positive integer",
                              field="max_iter")
        kwargs["max_iter"] = mi
    if "damping" in solver_raw:
        if not isinstance(solver_raw["damping"], bool):
            raise ConfigError("field 'solver.damping' must be a boolean", field="damping")
        kwargs["damping"] = solver_raw["damping"]
    if "predictor" in solver_raw:
        kwargs["predictor"] = solver_raw["predictor"]
    try:
        solver = SolverOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError("invalid solver options: %s" % exc, field="solver") from exc

    fmt = raw.get("format", "csv")
    if fmt not in _FORMATS:
        raise ConfigError("field 'format' must be one of %r" % (_FORMATS,), field="format")
    output = raw.get("output")
    if output is None:
        output = "%s_trajectory.%s" % (system, fmt)
    if not isinstance(output, (str, Path)):
        raise ConfigError("field 'output' must be a path string", field="output")

    diagnostics = raw.get("diagnostics", True)
    if not isinstance(diagnostics, bool):
        raise ConfigError("field 'diagnostics' must be a boolean", field="diagnostics")

    return RunConfig(system, params, seed, steps, solver, Path(output), fmt, diagnostics)


def build_system(config: RunConfig) -> DiscreteSystem:
    if config.system == "harmonic_oscillator":
        return builtin.harmonic_oscillator(config.params["h"], config.params["lambda"])
    if config.system == "free_particle":
        return builtin.free_particle(config.params["h"], config.params["n"],
                                     config.params["mass"])
    return builtin.nonholonomic_particle(config.params["h"], config.params["mass"])


def _fmt(x: float) -> str:
    return "%.17g" % x


def _columns(n: int, m: int, diagnostics: bool):
    cols = ["k"]
    cols += ["q%d" % i for i in range(n)]
    cols += ["p%d" % i for i in range(n)]
    cols += ["qplus%d" % i for i in range(n)]
    if diagnostics:
        cols += ["residual", "inclusion_residual", "constraint_residual"]
        cols += ["lambda%d" % i for i in range(m)]
    return cols


def _rows(trajectory: Trajectory, m: int, diagnostics: bool):
    rows = []
    for k, point in enumerate(trajectory.curve):
        row = [k]
        row += list(point.q) + list(point.p) + list(point.qplus)
        if diagnostics:
            if k == 0:
                row += [0.0, 0.0, 0.0] + [0.0] * m
            else:
                d = trajectory.diagnostics[k - 1]
                row += [d.residual, d.inclusion_residual, d.constraint_residual]
                row += list(d.multipliers)
        rows.append(row)
    return rows


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [str(row[0])] + [_fmt(x) for x in row[1:]]
            fh.write(",".join(cells) + "\n")


def _write_json(path: Path, columns, rows, metadata, summary: Optional[RunSummary]):
    doc = {
        "metadata": dict(metadata, columns=columns),
        "rows": [[row[0]] + [float(x) for x in row[1:]] for row in rows],
        "summary": None if summary is None else {
            "steps_completed": summary.steps_completed,
            "max_residual": summary.max_residual,
            "max_inclusion_residual": summary.max_inclusion_residual,
            "max_constraint_residual": summary.max_constraint_residual,
            "wall_time": summary.wall_time,
            "total_iterations": summary.total_iterations,
            "total_jacobian_assemblies": summary.total_jacobian_assemblies,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _emit(config: RunConfig, system: DiscreteSystem, trajectory: Trajectory,
          summary: Optional[RunSummary]):
    columns = _columns(system.n, system.m, config.diagnostics)
    rows = _rows(trajectory, system.m, config.diagnostics)
    metadata = {
        "system": config.system,
        "params": config.params,
        "steps": trajectory.steps,
        "solver": {"tol": config.solver.tol, "max_iter": config.solver.max_iter,
                   "damping": config.solver.damping, "predictor": config.solver.predictor},
    }
    if config.fmt == "csv":
        _write_csv(config.output, columns, rows)
    else:
        _write_json(config.output, columns, rows, metadata, summary)


def run(config: RunConfig, quiet: bool = False) -> RunSummary:
    """Run the configured trajectory and write the output table.

    On a failed step the partial table is still written before the
    StepFailureError propagates.
    """
    system = build_system(config)
    n = system.n
    x0 = builtin.lagrangian_seed(system, config.seed[:n], config.seed[n:])
    if system.m:
        gap = float(np.max(np.abs(system.constraint.value(x0.q, x0.qplus))))
        if gap > config.solver.tol:
            warnings.warn("seed pair violates the discrete constraint (|phi| = %.3e)" % gap,
                          RuntimeWarning, stacklevel=2)

    start = time.perf_counter()
    try:
        trajectory = run_trajectory(system, x0, config.steps, config.solver)
    except StepFailureError as exc:
        wall = time.perf_counter() - start
        if exc.trajectory is not None:
            _emit(config, system, exc.trajectory, RunSummary.of(exc.trajectory, wall))
        print(str(exc), file=sys.stderr)
        raise
    wall = time.perf_counter() - start

    summary = RunSummary.of(trajectory, wall)
    _emit(config, system, trajectory, summary)
    if not quiet:
        for line in summary.lines():
            print(line)
        print("output: %s" % config.output)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracmech",
        description="Integrate a built-in constrained discrete mechanical system "
                    "and emit its trajectory with per-step certification data.",
    )
    parser.add_argument("config", help="path to a JSON run config")
    parser.add_argument("--output", help="override the output path")
    parser.add_argument("--format", choices=_FORMATS, help="override the output format")
    parser.add_argument("--steps", type=int, help="override the step count")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print("cannot read config: %s" % exc, file=sys.stderr)
        return 1

    try:
        config = parse_config(text)
        if args.steps is not None:
            if args.steps < 0:
                raise ConfigError("--steps must be nonnegative", field="steps")
            config.steps = args.steps
        if args.format is not None:
            if "output" not in json.loads(text) and args.output is None:
                config.output = Path("%s_trajectory.%s" % (config.system, args.format))
            config.fmt = args.format
        if args.output is not None:
            config.output = Path(args.output)
    except ConfigError as exc:
        print("invalid config: %s" % exc, file=sys.stderr)
        return 1

    try:
        run(config, quiet=args.quiet)
    except StepFailureError:
        return 2
    except ConfigError as exc:
        print("invalid config: %s" % exc, file=sys.stderr)
        return 1
    except DiracMechError as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
