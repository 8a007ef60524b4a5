"""Command line front end: JSON run configs in, trajectory tables out.

A config names a built-in system, its parameters, the seed configurations
[q0, q1] (the seed momentum is derived, p0 = -d1 L(q0, q1)), a step count and
optional solver overrides. One table row is written per step after the seed
row; floats are printed with 17 significant digits so files re-parse to the
exact doubles that were computed. The trajectory's columns are copied into
one float64 table, written in chunks of ``_CHUNK_ROWS`` rows through one row
template, so the text held in memory does not grow with the step count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import builtin
from .errors import ConfigError, StepFailureError
from .linalg import _count, _real
from .stepper import SolverOptions, Trajectory, run_trajectory
from .systems import DiscreteSystem

_FORMATS = ("csv", "json")

# The built-in systems: name -> (dimension of the parameters, builder, parameter
# defaults in the builder's argument order, None marking a required one).
_SYSTEMS = {
    "harmonic_oscillator": (lambda params: 1, builtin.harmonic_oscillator,
                            {"h": None, "lambda": 1.0}),
    "free_particle": (lambda params: params["n"], builtin.free_particle,
                      {"h": None, "n": 1, "mass": 1.0}),
    "nonholonomic_particle": (lambda params: 3, builtin.nonholonomic_particle,
                              {"h": None, "mass": 1.0}),
}
_COMMON_KEYS = {"system", "seed", "steps", "solver", "output", "format", "diagnostics"}
# the fields of SolverOptions, in the order of the JSON metadata
_SOLVER_KEYS = tuple(field.name for field in dataclasses.fields(SolverOptions))
# Rows formatted per write: one chunk's text is the largest transient object
# of a CSV write, whatever the row count.
_CHUNK_ROWS = 1024


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
            "total_iterations: %d" % self.total_iterations,
            "total_jacobian_assemblies: %d" % self.total_jacobian_assemblies,
        ]


def _checked(field: str, check, /, *args, **kwargs):
    """``check(*args, **kwargs)``, with its ValueError raised as a ConfigError on ``field``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field) from exc


def _required(raw: dict, name: str):
    value = raw.get(name)
    if value is None:
        raise ConfigError("missing required field %r" % name, field=name)
    return value


def _load(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("parse error at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run config, applying defaults.

    Unknown keys are rejected; validation errors name the offending field.
    """
    return _validate(_load(text))


def _validate(raw: dict) -> RunConfig:
    system = _required(raw, "system")
    if not isinstance(system, str) or system not in _SYSTEMS:
        raise ConfigError("unknown system %r (built-ins: %s)"
                          % (system, ", ".join(sorted(_SYSTEMS))), field="system")
    dimension, _, defaults = _SYSTEMS[system]
    unknown = set(raw) - _COMMON_KEYS - set(defaults)
    if unknown:
        raise ConfigError("unknown key %r for system %r" % (sorted(unknown)[0], system),
                          field=sorted(unknown)[0])

    params = {}
    for name, default in defaults.items():
        if default is None and name not in raw:
            raise ConfigError("system %r requires parameter %r" % (system, name), field=name)
        params[name] = raw.get(name, default)
    params["h"] = _checked("h", _real, params["h"], "h", positive=True)
    if "lambda" in params:
        lam = params["lambda"] = _checked("lambda", _real, params["lambda"], "lambda")
        if lam < 0.0:
            raise ConfigError("field 'lambda' must be nonnegative", field="lambda")
    if "n" in params:
        params["n"] = _checked("n", _count, params["n"], "n", 1)
    n = dimension(params)
    if "mass" in params:
        mass = params["mass"]
        if isinstance(mass, list):
            params["mass"] = [_checked("mass", _real, v, "mass", positive=True) for v in mass]
            if len(mass) != n:
                raise ConfigError("field 'mass' must have one entry per dimension (%d)" % n,
                                  field="mass")
        else:
            params["mass"] = _checked("mass", _real, mass, "mass", positive=True)

    steps = _checked("steps", _count, _required(raw, "steps"), "steps", 0)
    seed = _required(raw, "seed")
    if not isinstance(seed, list):
        raise ConfigError("field 'seed' must be a flat list of numbers", field="seed")
    seed = np.array([_checked("seed", _real, x, "seed") for x in seed])
    if seed.shape != (2 * n,):
        raise ConfigError("seed for %r must hold [q0, q1], 2 * %d numbers, got %d"
                          % (system, n, seed.shape[0]), field="seed")

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigError("field 'solver' must be an object", field="solver")
    # SolverOptions owns the rules; setting one key at a time names the field
    solver = SolverOptions()
    for key, value in solver_raw.items():
        if key not in _SOLVER_KEYS:
            raise ConfigError("unknown solver key %r" % key, field=key)
        solver = _checked(key, dataclasses.replace, solver, **{key: value})

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
    _, build, defaults = _SYSTEMS[config.system]
    return build(*(config.params[name] for name in defaults))


def _table(trajectory: Trajectory, diagnostics: bool):
    """The output's column names and its table, one float64 array with a row per curve point.

    Row k holds k (exact in float64), point k of the curve and, with
    diagnostics, the record of the step that produced it; the seed row holds
    zeros in the diagnostic columns. A vector block names one column per
    entry (q0, q1, ...), and every block is copied into the table once.
    """
    curve, diags = trajectory.curve, trajectory.diagnostics
    blocks = [("k", np.arange(len(curve))), ("q", curve.q), ("p", curve.p), ("qplus", curve.qplus)]
    if diagnostics:
        blocks += [(name, getattr(diags, name)) for name in
                   ("residual", "inclusion_residual", "constraint_residual")]
        blocks.append(("lambda", diags.multipliers))
    columns, spans = [], []
    for name, values in blocks:
        start = len(columns)
        columns += [name] if values.ndim == 1 else ["%s%d" % (name, i)
                                                    for i in range(values.shape[1])]
        spans.append((start, len(columns), values))
    table = np.zeros((len(curve), len(columns)))
    for start, stop, values in spans:
        # a diagnostics column has no seed row: it fills the rows below it
        table[len(table) - len(values):, start:stop] = values.reshape(len(values), stop - start)
    return columns, table


def _write_csv(path: Path, columns, table: np.ndarray):
    row = "%d," + ",".join(["%.17g"] * (table.shape[1] - 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start:start + _CHUNK_ROWS]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _write_json(path: Path, columns, table: np.ndarray, metadata, summary: RunSummary):
    doc = {
        "metadata": dict(metadata, columns=columns),
        "rows": [[k] + row[1:] for k, row in enumerate(table.tolist())],
        "summary": asdict(summary),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _emit(config: RunConfig, trajectory: Trajectory, summary: RunSummary):
    columns, table = _table(trajectory, config.diagnostics)
    metadata = {
        "system": config.system,
        "params": config.params,
        "steps": trajectory.steps,
        "solver": asdict(config.solver),
    }
    if config.fmt == "csv":
        _write_csv(config.output, columns, table)
    else:
        _write_json(config.output, columns, table, metadata, summary)


def run(config: RunConfig, quiet: bool = False) -> RunSummary:
    """Run the configured trajectory and write the output table.

    An output whose directory does not exist, or that is itself a
    directory, raises OSError before the system is built, so no step runs
    and no file is created. A seed whose derived momentum is not finite
    raises ConfigError, also before any step, and so does a step count whose
    columns cannot be allocated (field ``steps``). On a failed step the partial
    table is still written before the StepFailureError propagates. An
    OSError from writing the table propagates as is.
    """
    if not config.output.parent.is_dir():
        raise OSError("output directory %s does not exist" % config.output.parent)
    if config.output.is_dir():
        raise IsADirectoryError("output %s is a directory" % config.output)
    system = build_system(config)
    n = system.n
    try:
        x0 = builtin.lagrangian_seed(system, config.seed[:n], config.seed[n:])
    except ValueError as exc:  # q0 and q1 are finite, so p0 = -d1 L(q0, q1) is not
        raise ConfigError("field 'seed' derives a non-finite momentum p0 = -d1 L(q0, q1): %s"
                          % exc, field="seed") from exc

    start = time.perf_counter()
    try:
        trajectory = run_trajectory(system, x0, config.steps, config.solver)
    except StepFailureError as exc:
        wall = time.perf_counter() - start
        print(str(exc), file=sys.stderr)
        # a Lagrangian run's partial trajectory holds at least its seed point
        _emit(config, exc.trajectory, RunSummary.of(exc.trajectory, wall))
        raise
    except ValueError as exc:  # what is left of a validated config: too many steps
        raise ConfigError(str(exc), field="steps") from exc
    wall = time.perf_counter() - start

    summary = RunSummary.of(trajectory, wall)
    _emit(config, trajectory, summary)
    if not quiet:
        for line in summary.lines():
            print(line)
        print("output: %s" % config.output)
    return summary


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, the code of every other config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def main(argv=None) -> int:
    parser = _Parser(
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
        raw = _load(text)
        # a flag replaces the config's field before validation, so the
        # default output path follows the final format
        for key, value in (("steps", args.steps), ("format", args.format),
                           ("output", args.output)):
            if value is not None:
                raw[key] = value
        run(_validate(raw), quiet=args.quiet)
    except StepFailureError:
        return 2
    except ConfigError as exc:
        print("invalid config: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("cannot write output: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
