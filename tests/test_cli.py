"""Command line front end: config validation, emission formats, exit codes."""

import json

import numpy as np
import pytest

from diracmech import builtin, run_trajectory
from diracmech.cli import main, parse_config, run
from diracmech.errors import ConfigError

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
    def test_success_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, output=str(tmp_path / "t.csv"))
        assert main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "steps_completed: 10" in captured.out

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
