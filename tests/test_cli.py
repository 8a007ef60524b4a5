"""Command line front end: config validation, emission formats, exit codes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diracmech
from diracmech import builtin, cli, run_trajectory
from diracmech.cli import _CHUNK_ROWS, _write_csv, build_system, main, parse_config, run
from diracmech.errors import ConfigError, StepFailureError

MINIMAL = {"system": "harmonic_oscillator", "h": 0.1, "lambda": 1.0,
           "seed": [0, 0.1], "steps": 10}


def write_config(tmp_path, overrides=None, **extra):
    doc = dict(MINIMAL)
    if overrides:
        doc.update(overrides)
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestParseConfig:
    def test_minimal_oscillator_config(self):
        config = parse_config(json.dumps(MINIMAL))
        assert config.system == "harmonic_oscillator"
        assert config.steps == 10
        assert config.solver.tol == 1e-10
        assert config.solver.max_iter == 50
        assert config.fmt == "csv"
        assert config.output.name == "harmonic_oscillator_trajectory.csv"
        assert np.array_equal(config.seed, [0.0, 0.1])

    def test_negative_steps(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(json.dumps(dict(MINIMAL, steps=-1)))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="frequency"):
            parse_config(json.dumps(dict(MINIMAL, frequency=2.0)))

    def test_unknown_system(self):
        with pytest.raises(ConfigError, match="system"):
            parse_config(json.dumps(dict(MINIMAL, system="double_pendulum")))

    def test_missing_required_parameter(self):
        doc = dict(MINIMAL)
        del doc["h"]
        with pytest.raises(ConfigError, match="'h'"):
            parse_config(json.dumps(doc))

    def test_nonpositive_h(self):
        with pytest.raises(ConfigError, match="h"):
            parse_config(json.dumps(dict(MINIMAL, h=0.0)))

    def test_non_finite_numbers_rejected(self):
        # 1e400 parses to inf, json also reads NaN and Infinity, and a repeated
        # key overrides the one in MINIMAL
        text = json.dumps(MINIMAL)[:-1]
        for extra, field in ((', "h": 1e400}', "'h'"), (', "h": 1%s}' % ("0" * 400), "'h'"),
                             (', "lambda": NaN}', "lambda"),
                             (', "solver": {"tol": 1e400}}', "tol"),
                             (', "solver": {"tol": NaN}}', "tol"),
                             (', "solver": {"tol": Infinity}}', "tol")):
            with pytest.raises(ConfigError, match=field):
                parse_config(text + extra)

    def test_seed_length(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps(dict(MINIMAL, seed=[0.0, 0.1, 0.2])))

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{"system": "harmonic_oscillator",\n "h": }')

    def test_solver_overrides_and_unknown_solver_key(self):
        config = parse_config(json.dumps(dict(MINIMAL, solver={"tol": 1e-8, "max_iter": 9})))
        assert config.solver.tol == 1e-8
        assert config.solver.max_iter == 9
        with pytest.raises(ConfigError, match="verbose"):
            parse_config(json.dumps(dict(MINIMAL, solver={"verbose": True})))

    def test_lambda_default(self):
        doc = dict(MINIMAL)
        del doc["lambda"]
        config = parse_config(json.dumps(doc))
        assert config.params["lambda"] == 1.0

    def test_free_particle_dimension(self):
        doc = {"system": "free_particle", "h": 0.05, "n": 2, "mass": [1.0, 2.0],
               "seed": [0, 0, 0.1, 0.2], "steps": 3}
        config = parse_config(json.dumps(doc))
        assert config.params["n"] == 2

    def test_format_validation(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(json.dumps(dict(MINIMAL, format="xml")))

    def test_mass_vector_validation(self):
        doc = {"system": "free_particle", "h": 0.05, "n": 2, "seed": [0, 0, 0.1, 0.2],
               "steps": 1}
        with pytest.raises(ConfigError, match="mass"):
            parse_config(json.dumps(dict(doc, mass=[1.0, 2.0, 3.0])))
        with pytest.raises(ConfigError, match="mass"):
            parse_config(json.dumps(dict(doc, mass=[1.0, "heavy"])))
        with pytest.raises(ConfigError, match="mass"):
            parse_config(json.dumps(dict(doc, mass=-2.0)))

    def test_seed_must_be_finite(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps(dict(MINIMAL, seed=[0.0, None])))

    @pytest.mark.parametrize("seed", [["0", "0.1"], [True, False], [[0], [0.1]], [0, [0.1]],
                                      "0 0.1", 0.1, {"q0": 0, "q1": 0.1}, [0, 10 ** 400]])
    def test_seed_must_be_a_flat_list_of_numbers(self, seed):
        with pytest.raises(ConfigError, match="seed") as info:
            parse_config(json.dumps(dict(MINIMAL, seed=seed)))
        assert info.value.field == "seed"


FREE = {"system": "free_particle", "h": 0.05, "n": 2, "seed": [0, 0, 0.1, 0.2], "steps": 1}


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# (config, extra command-line arguments, ConfigError.field, message pattern)
REJECTED = [
    (without(MINIMAL, "system"), [], "system", "missing required field 'system'"),
    (dict(MINIMAL, system="double_pendulum"), [], "system", "unknown system 'double_pendulum'"),
    (dict(MINIMAL, frequency=2.0), [], "frequency", "unknown key 'frequency'"),
    (dict(FREE, **{"lambda": 1.0}), [], "lambda", "unknown key 'lambda'"),
    (without(MINIMAL, "h"), [], "h", "requires parameter 'h'"),
    (dict(MINIMAL, h=0.0), [], "h", "'h' must be positive"),
    (dict(MINIMAL, h="0.1"), [], "h", "'h' must be a number"),
    (dict(MINIMAL, **{"lambda": -1.0}), [], "lambda", "'lambda' must be nonnegative"),
    (dict(MINIMAL, **{"lambda": True}), [], "lambda", "'lambda' must be a number"),
    (dict(FREE, n=0), [], "n", "'n' must be a positive integer"),
    (dict(FREE, n=1.5), [], "n", "'n' must be a positive integer"),
    (dict(FREE, n=True), [], "n", "'n' must be a positive integer"),
    (dict(FREE, mass=[1.0, 2.0, 3.0]), [], "mass", r"one entry per dimension \(2\)"),
    (dict(FREE, mass=-2.0), [], "mass", "'mass' must be positive"),
    (dict(FREE, mass=[1.0, "heavy"]), [], "mass", "'mass' must be a number"),
    (without(MINIMAL, "steps"), [], "steps", "missing required field 'steps'"),
    (dict(MINIMAL, steps=-1), [], "steps", "'steps' must be a nonnegative integer"),
    (dict(MINIMAL, steps=2.5), [], "steps", "'steps' must be a nonnegative integer"),
    (dict(MINIMAL, steps=True), [], "steps", "'steps' must be a nonnegative integer"),
    (without(MINIMAL, "seed"), [], "seed", "missing required field 'seed'"),
    (dict(MINIMAL, seed=[0.0, 0.1, 0.2]), [], "seed", r"must hold \[q0, q1\]"),
    (dict(MINIMAL, seed="0 0.1"), [], "seed", "must be a flat list of numbers"),
    (dict(MINIMAL, solver=[]), [], "solver", "'solver' must be an object"),
    (dict(MINIMAL, solver={"verbose": True}), [], "verbose", "unknown solver key 'verbose'"),
    (dict(MINIMAL, solver={"tol": -1.0}), [], "tol", "'tol' must be positive and finite"),
    (dict(MINIMAL, solver={"tol": float("inf")}), [], "tol", "'tol' must be positive and finite"),
    (dict(MINIMAL, solver={"max_iter": 0}), [], "max_iter",
     "'max_iter' must be a positive integer"),
    (dict(MINIMAL, solver={"max_iter": True}), [], "max_iter",
     "'max_iter' must be a positive integer"),
    (dict(MINIMAL, solver={"max_iter": 2.5}), [], "max_iter",
     "'max_iter' must be a positive integer"),
    # where Newton starts, and whether it damps, are not options
    (dict(MINIMAL, solver={"damping": True}), [], "damping", "unknown solver key 'damping'"),
    (dict(MINIMAL, solver={"predictor": "hold"}), [], "predictor",
     "unknown solver key 'predictor'"),
    (dict(MINIMAL, format="xml"), [], "format", "'format' must be one of"),
    (dict(MINIMAL, output=5), [], "output", "'output' must be a path string"),
    (dict(MINIMAL, diagnostics="yes"), [], "diagnostics", "'diagnostics' must be a boolean"),
    (MINIMAL, ["--steps", "-1"], "steps", "nonnegative"),
    # a finite seed whose derived momentum p0 = -d1 L(q0, q1) overflows
    (dict(MINIMAL, seed=[0, 1e308]), [], "seed", "non-finite momentum p0"),
    # numpy rejects this many rows before it allocates anything
    (dict(MINIMAL, steps=10 ** 30), [], "steps", "'steps' = 10{30} is too many"),
]


@pytest.fixture
def raised(monkeypatch):
    """Every ConfigError the CLI raises, recorded as it is constructed."""
    errors = []

    class Recorded(ConfigError):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            errors.append(self)

    monkeypatch.setattr(cli, "ConfigError", Recorded)
    return errors


@pytest.mark.parametrize("doc, argv, field, pattern", REJECTED)
def test_rejected_input_names_its_field(tmp_path, capsys, raised, doc, argv, field, pattern):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)] + argv) == 1
    assert len(raised) == 1
    assert raised[0].field == field
    assert re.search(pattern, str(raised[0]))
    assert "invalid config: %s" % raised[0] in capsys.readouterr().err


class TestRun:
    def test_oscillator_first_row_values(self, tmp_path):
        out = tmp_path / "ho.csv"
        config = parse_config(json.dumps(dict(MINIMAL, steps=1, output=str(out))))
        summary = run(config, quiet=True)
        assert summary.steps_completed == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "k,q0,p0,qplus0,residual,inclusion_residual,constraint_residual"
        row0 = lines[1].split(",")
        assert row0[:4] == ["0", "0", "1", "0.10000000000000001"]
        row1 = lines[2].split(",")
        assert float(row1[1]) == pytest.approx(0.1, abs=1e-12)
        assert float(row1[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(row1[3]) == pytest.approx(0.199, abs=1e-12)

    def test_zero_steps_writes_seed_row_only(self, tmp_path):
        out = tmp_path / "seed.csv"
        config = parse_config(json.dumps(dict(MINIMAL, steps=0, output=str(out))))
        run(config, quiet=True)
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header plus seed row

    def test_csv_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "traj.csv"
        config = parse_config(json.dumps(dict(MINIMAL, steps=7, output=str(out))))
        run(config, quiet=True)
        system = builtin.harmonic_oscillator(0.1, 1.0)
        x0 = builtin.lagrangian_seed(system, [0.0], [0.1])
        traj = run_trajectory(system, x0, 7)
        lines = out.read_text().splitlines()[1:]
        for k, line in enumerate(lines):
            cells = line.split(",")
            point = traj.curve[k]
            assert float(cells[1]) == point.q[0]
            assert float(cells[2]) == point.p[0]
            assert float(cells[3]) == point.qplus[0]

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "traj.json"
        config = parse_config(json.dumps(dict(MINIMAL, steps=3, output=str(out),
                                              format="json")))
        run(config, quiet=True)
        doc = json.loads(out.read_text())
        assert doc["metadata"]["system"] == "harmonic_oscillator"
        assert doc["metadata"]["columns"][0] == "k"
        assert len(doc["rows"]) == 4
        assert doc["rows"][1][1] == pytest.approx(0.1, abs=1e-12)
        assert doc["summary"]["steps_completed"] == 3
        assert doc["metadata"]["solver"] == {"tol": 1e-10, "max_iter": 50}
        # the linear oscillator solves each step in one iteration on one held matrix
        assert doc["summary"]["total_iterations"] == 3
        assert doc["summary"]["total_jacobian_assemblies"] == 1

    def test_nonholonomic_constraint_column(self, tmp_path):
        out = tmp_path / "nh.csv"
        doc = {"system": "nonholonomic_particle", "h": 0.1,
               "seed": [0.0, 0.5, 0.0, 0.1, 0.52, 0.05], "steps": 100,
               "output": str(out)}
        config = parse_config(json.dumps(doc))
        summary = run(config, quiet=True)
        assert summary.max_constraint_residual < 1e-10
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        con_col = header.index("constraint_residual")
        lam_col = header.index("lambda0")
        assert lam_col == len(header) - 1
        for line in lines[2:]:
            assert float(line.split(",")[con_col]) < 1e-10
        # one Newton iteration per step: the run never needs a history
        assert summary.total_iterations == 100

    def test_diagnostics_toggle(self, tmp_path):
        out = tmp_path / "plain.csv"
        config = parse_config(json.dumps(dict(MINIMAL, steps=2, output=str(out),
                                              diagnostics=False)))
        run(config, quiet=True)
        header = out.read_text().splitlines()[0]
        assert header == "k,q0,p0,qplus0"

    def test_seed_violating_pair_constraint_warns(self, tmp_path):
        doc = {"system": "nonholonomic_particle", "h": 0.1,
               "seed": [0.0, 0.5, 0.0, 0.1, 0.52, 0.4], "steps": 1,
               "output": str(tmp_path / "warn.csv")}
        config = parse_config(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="discrete constraint"):
            run(config, quiet=True)


class TestMain:
    def test_seed_pair_off_the_constraint_warns_on_stderr(self, tmp_path):
        # A(q0) (q1 - q0) = 1e-3 for A(q) = [-q2, 0, 1]; the run still steps
        q0 = [0.0, 0.5, 0.0]
        q1 = [0.1, 0.52, 0.051]
        path = tmp_path / "nh.json"
        path.write_text(json.dumps({"system": "nonholonomic_particle", "h": 0.1, "seed": q0 + q1,
                                    "steps": 10, "output": str(tmp_path / "nh.csv")}))
        env = dict(os.environ, PYTHONPATH=str(Path(diracmech.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "diracmech", str(path), "--quiet"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning: seed point is inconsistent" in done.stderr
        assert "discrete constraint residual 1.000e-03" in done.stderr
        assert len((tmp_path / "nh.csv").read_text().splitlines()) == 1 + 11

    def test_success_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, output=str(tmp_path / "t.csv"))
        assert main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "steps_completed: 10" in captured.out

    def test_summary_reports_solver_totals(self, tmp_path, capsys):
        # the text summary carries the same solver totals as the JSON summary
        path, _ = write_config(tmp_path, output=str(tmp_path / "t.csv"))
        assert main([str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the linear oscillator solves each step in one iteration on one held matrix
        assert "total_iterations: 10" in lines
        assert "total_jacobian_assemblies: 1" in lines

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, output=str(tmp_path / "t.csv"))
        assert main([str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_validation_error_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, steps=-3)
        assert main([str(path)]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 1

    def test_step_failure_exit_code_and_partial_output(self, tmp_path, capsys):
        # an unreachable tolerance stalls an early Newton line search
        out = tmp_path / "partial.csv"
        path, _ = write_config(tmp_path, solver={"tol": 1e-30}, output=str(out))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "failed" in err and "line search" in err
        lines = out.read_text().splitlines()
        assert 2 <= len(lines) < 12  # header plus seed plus the completed steps

    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return run_trajectory(*args, **kwargs)

        monkeypatch.setattr(cli, "run_trajectory", counting)
        out = tmp_path / "missing" / "t.csv"
        path, _ = write_config(tmp_path, output=str(out))
        assert main([str(path)]) == 1
        # a missing directory is found before any step runs
        assert calls == []
        captured = capsys.readouterr()
        assert "cannot write output" in captured.err and "missing" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.parent.exists()
        # so is an output that is itself a directory
        path, _ = write_config(tmp_path, output=str(tmp_path))
        assert main([str(path)]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert "cannot write output" in captured.err and "is a directory" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unwritable_partial_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "partial.csv"
        path, _ = write_config(tmp_path, solver={"tol": 1e-30}, output=str(out))
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        # the missing directory is reported before the first step could fail
        assert "cannot write output" in err and "line search" not in err
        assert not out.parent.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("solver, step_fails", [({}, False), ({"tol": 1e-30}, True)])
    def test_write_failure_after_the_run_exit_code(self, tmp_path, capsys, solver, step_fails):
        # /dev/full passes the early check and opens, but every write fails
        # (ENOSPC) once the table (full, or partial after a failed step) is
        # written
        path, _ = write_config(tmp_path, solver=solver, output="/dev/full")
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        assert "cannot write output" in captured.err
        assert ("line search" in captured.err) == step_fails
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--steps", "1e3"],
        ["--format", "xml"],
        ["--bogus"],
        [],
    ], ids=["bad-value", "bad-choice", "unknown-flag", "missing-config"])
    def test_usage_error_exit_code(self, tmp_path, capsys, flags):
        # usage errors are config errors (1); 2 is reserved for a failed step
        path, _ = write_config(tmp_path, output=str(tmp_path / "t.csv"))
        with pytest.raises(SystemExit) as exc:
            main(([str(path)] if flags else []) + flags)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "usage: diracmech" in captured.err and "error:" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "t.csv").exists()

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: diracmech" in capsys.readouterr().out

    def test_steps_and_output_overrides(self, tmp_path):
        out = tmp_path / "override.csv"
        path, _ = write_config(tmp_path)
        assert main([str(path), "--steps", "2", "--output", str(out), "--quiet"]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_negative_steps_override_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main([str(path), "--steps", "-1"]) == 1
        assert "steps" in capsys.readouterr().err

    def test_format_override(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main([str(path), "--format", "json", "--output",
                     str(tmp_path / "o.json"), "--quiet"]) == 0
        doc = json.loads((tmp_path / "o.json").read_text())
        assert "rows" in doc

    def test_null_output_follows_the_format_override(self, tmp_path, monkeypatch):
        # the default output path is derived from the final format
        monkeypatch.chdir(tmp_path)
        path, _ = write_config(tmp_path, output=None)
        assert main([str(path), "--format", "json", "--quiet"]) == 0
        doc = json.loads((tmp_path / "harmonic_oscillator_trajectory.json").read_text())
        assert len(doc["rows"]) == MINIMAL["steps"] + 1
        assert not (tmp_path / "harmonic_oscillator_trajectory.csv").exists()

    def test_non_string_system_is_a_config_error(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, system=["harmonic_oscillator"])
        assert main([str(path)]) == 1
        assert "unknown system" in capsys.readouterr().err

    def test_byte_stable_reruns(self, tmp_path):
        out = tmp_path / "stable.csv"
        path, _ = write_config(tmp_path, output=str(out))
        assert main([str(path), "--quiet"]) == 0
        first = out.read_bytes()
        assert main([str(path), "--quiet"]) == 0
        assert out.read_bytes() == first

    def test_byte_stable_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys

        out = tmp_path / "proc.csv"
        path, _ = write_config(tmp_path, output=str(out))
        env = dict(os.environ)
        src = str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "diracmech.cli", str(path), "--quiet"]
        assert subprocess.run(cmd, env=env).returncode == 0
        first = out.read_bytes()
        assert subprocess.run(cmd, env=env).returncode == 0
        assert out.read_bytes() == first
        assert main([str(path), "--quiet"]) == 0  # in-process run matches too
        assert out.read_bytes() == first


def reference_rows(trajectory, m, diagnostics=True):
    """The table row by row, one Python value per cell, read point by point."""
    rows = []
    for k, point in enumerate(trajectory.curve):
        row = [k] + [float(x) for x in (*point.q, *point.p, *point.qplus)]
        if diagnostics:
            if k == 0:
                row += [0.0] * (3 + m)
            else:
                d = trajectory.diagnostics[k - 1]
                row += [d.residual, d.inclusion_residual, d.constraint_residual]
                row += [float(x) for x in d.multipliers]
        rows.append(row)
    return rows


def reference_csv(trajectory, n, m, diagnostics=True):
    """The CSV text formatted one cell at a time: str(k), then "%.17g" per float."""
    header = ["k"] + ["%s%d" % (block, i) for block in ("q", "p", "qplus") for i in range(n)]
    if diagnostics:
        header += ["residual", "inclusion_residual", "constraint_residual"]
        header += ["lambda%d" % i for i in range(m)]
    lines = [",".join(header)]
    for row in reference_rows(trajectory, m, diagnostics):
        lines.append(",".join([str(row[0])] + ["%.17g" % x for x in row[1:]]))
    return "\n".join(lines) + "\n"


NONHOLONOMIC = {"system": "nonholonomic_particle", "h": 0.1,
                "seed": [0.0, 0.5, 0.0, 0.1, 0.52, 0.05]}


def reference_trajectory(doc):
    """The system and the (possibly partial) trajectory a config describes."""
    config = parse_config(json.dumps(doc))
    system = build_system(config)
    n = system.n
    x0 = builtin.lagrangian_seed(system, config.seed[:n], config.seed[n:])
    try:
        return system, run_trajectory(system, x0, config.steps, config.solver)
    except StepFailureError as exc:
        return system, exc.trajectory


class TestEmission:
    """The chunked emitter against a cell-by-cell reference formatter."""

    def _check_csv(self, tmp_path, doc, exit_code=0):
        out = tmp_path / "out.csv"
        doc = dict(doc, output=str(out))
        system, trajectory = reference_trajectory(doc)
        diagnostics = doc.get("diagnostics", True)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main([str(path), "--quiet"]) == exit_code
        text = out.read_bytes().decode()
        assert text == reference_csv(trajectory, system.n, system.m, diagnostics)
        return text

    @pytest.mark.parametrize("rows", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                      3 * _CHUNK_ROWS + 7])
    def test_oscillator_across_chunk_boundaries(self, tmp_path, rows):
        text = self._check_csv(tmp_path, dict(MINIMAL, steps=rows - 1))
        assert text.count("\n") == rows + 1

    def test_nonholonomic_multiplier_column(self, tmp_path):
        self._check_csv(tmp_path, dict(NONHOLONOMIC, steps=300))

    def test_free_particle_in_two_dimensions(self, tmp_path):
        self._check_csv(tmp_path, {"system": "free_particle", "h": 0.05, "n": 2,
                                   "mass": [1.0, 2.0], "seed": [0, 0, 0.1, 0.2], "steps": 40})

    @pytest.mark.parametrize("steps", [0, 5, _CHUNK_ROWS])
    def test_without_diagnostics(self, tmp_path, steps):
        self._check_csv(tmp_path, dict(MINIMAL, steps=steps, diagnostics=False))
        self._check_csv(tmp_path, dict(NONHOLONOMIC, steps=steps, diagnostics=False))

    def test_seed_row_only(self, tmp_path):
        text = self._check_csv(tmp_path, dict(NONHOLONOMIC, steps=0))
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[10:] == ["0"] * 4  # residuals and lambda0

    def test_partial_table_on_step_failure(self, tmp_path):
        doc = dict(MINIMAL, solver={"tol": 1e-30})
        text = self._check_csv(tmp_path, doc, exit_code=2)
        assert 2 <= text.count("\n") < 12

    @pytest.mark.parametrize("doc", [dict(MINIMAL, steps=_CHUNK_ROWS + 3),
                                     dict(NONHOLONOMIC, steps=50),
                                     dict(NONHOLONOMIC, steps=7, diagnostics=False)])
    def test_json_rows(self, tmp_path, doc):
        out = tmp_path / "out.json"
        doc = dict(doc, output=str(out), format="json")
        system, trajectory = reference_trajectory(doc)
        config = parse_config(json.dumps(doc))
        run(config, quiet=True)
        rows = json.loads(out.read_text())["rows"]
        assert rows == reference_rows(trajectory, system.m, doc.get("diagnostics", True))
        assert all(type(row[0]) is int for row in rows)

    def test_write_memory_does_not_grow_with_rows(self, tmp_path):
        # 20k rows of oscillator width; a whole-file join holds all of their
        # text (and the Python floats behind it) at once
        table = np.random.default_rng(5).standard_normal((20000, 7))
        table[:, 0] = np.arange(len(table))
        columns = ["k"] + ["c%d" % i for i in range(6)]
        bound = 2 * 1024 * 1024

        tracemalloc.start()
        try:
            _write_csv(tmp_path / "big.csv", columns, table)
            chunked = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            template = "%d," + ",".join(["%.17g"] * 6) + "\n"
            whole = (template * len(table)) % tuple(table.ravel().tolist())
            joined = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").read_text().count("\n") == len(table) + 1
        assert len(whole) > 0
        assert chunked < bound < joined
