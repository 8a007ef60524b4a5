"""The summary of tools/bench_pairs.py, on canned result lines: no subprocess runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "steps_per_s", "better": "higher"}, {"name": "job_ms.tail", "better": "lower"}]


def _runs(rates, tails, failed):
    return [{"failed": f, "metrics": {"steps_per_s": {"value": r}, "job_ms.tail": {"value": t}}}
            for r, t, f in zip(rates, tails, failed)]


def test_quartiles_are_inclusive_and_take_one_value():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_reports_medians_iqr_ratio_wins_and_failures():
    parent = _runs([100.0, 110.0, 90.0, 105.0, 95.0], [10.0, 11.0, 9.0, 10.0, 12.0],
                   [0, 1, 0, 0, 0])
    # the change wins pairs 1, 2, 4 and 5 in rate (pair 3 ties), and pairs 1,
    # 3 and 5 in tail (lower is better; pair 4 ties)
    change = _runs([110.0, 120.0, 90.0, 115.0, 100.0], [9.0, 12.0, 8.0, 10.0, 11.0],
                   [0, 0, 0, 2, 0])
    header, rate, tail, failed = bench_pairs.summarize(METRICS, parent, change)
    assert header.split()[0] == "metric"
    fields = rate.split()
    assert fields[0] == "steps_per_s"
    # parent quartiles 95 / 100 / 105, change 100 / 110 / 115
    assert [float(v) for v in fields[1:7]] == [95.0, 100.0, 105.0, 100.0, 110.0, 115.0]
    assert float(fields[7]) == 10.0  # the parent IQR
    assert fields[8:] == ["1.1000", "4/5"]
    fields = tail.split()
    assert fields[0] == "job_ms.tail" and fields[-1] == "3/5"
    assert float(fields[8]) == pytest.approx(10.0 / 10.0)
    assert failed == "failed jobs: parent 1, change 2"


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError, match="same positive number"):
        bench_pairs.summarize(METRICS, _runs([1.0], [1.0], [0]), [])
