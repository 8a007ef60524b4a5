"""Tests of the benchmark itself, at tiny job sizes.

Run from the repository root with ``python3 -m pytest -q bench/selftest.py``.
The file name keeps it out of the library's own test collection.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_STEPS = {"osc-cli": 40, "nonholonomic": 20, "fd-ham-20": 2, "osc-ham": 40}


def tiny(name, out_dir, **changes):
    return dataclasses.replace(workloads.workloads(out_dir)[name], steps=TINY_STEPS[name],
                               **changes)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.workloads(BENCH))


@pytest.mark.parametrize("name", list(TINY_STEPS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    result, record = run.run_benchmark(tiny(name, tmp_path), 3, 0.0, False, tmp_path)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["job_ms_tail"]["jobs"] == result["attempted"]


def _perturb_csv_q(state, inp):
    rc = state["cli"].main([inp["config"], "--quiet"])
    with open(inp["output"], newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][1] = repr(float(rows[5][1]) + 1e-6)
    with open(inp["output"], "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return rc


def _shift_p(index):
    def corrupt(state, inp):
        traj = state["stepper"].run_trajectory(state["system"], inp["seed"], inp["steps"])
        traj.curve.points[index].p[0] += 1e-6
        return traj
    return corrupt


@pytest.mark.parametrize("name, corrupt", [
    ("osc-cli", _perturb_csv_q),
    ("nonholonomic", _shift_p(3)),
    ("fd-ham-20", _shift_p(1)),
    ("osc-ham", _shift_p(7)),
])
def test_corrupted_output_is_caught_and_counted(name, corrupt, tmp_path):
    result, record = run.run_benchmark(tiny(name, tmp_path, run=corrupt), 5, 0.0, False,
                                       tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_JOBS
    assert result["metrics"]["certified_frac"]["value"] == 0.0
    assert len(record["failures"]) == min(20, result["attempted"])


_COUNT_UNITS = ("count", "ratio")


@pytest.mark.parametrize("name", list(TINY_STEPS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, _ = run.run_benchmark(tiny(name, tmp_path), 11, 0.0, True, tmp_path)
    second, record = run.run_benchmark(tiny(name, tmp_path), 11, 0.0, True, tmp_path)
    assert first["correct"] and second["correct"]
    assert set(second["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] in _COUNT_UNITS and not k.startswith("trace.")}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["stepper.newton_iters_per_step"] > 0
    assert record["spans"]["count"] > 0
    # every wrapper is gone again once the traced run ends
    stepper = sys.modules["diracmech.stepper"]
    assert not hasattr(stepper.newton_solve, "__wrapped__")
    assert not hasattr(sys.modules["diracmech.bundle"].KinematicDistribution.matrix,
                       "__wrapped__")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "osc-ham", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
