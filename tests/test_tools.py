"""The summaries of tools/bench_pairs.py, tools/bench_layers.py and tools/work_precision.py,
on canned input: no subprocess runs but git, which reads the commits that checked-in BENCH
files name."""

import importlib.util
import io
import json
import shutil
import subprocess
import tarfile
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "bench_pairs.py"
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


def test_compare_keeps_each_sides_values_with_the_summary():
    parent = _runs([100.0, 110.0, 90.0], [10.0, 11.0, 9.0], [0, 0, 1])
    change = _runs([120.0, 100.0, 95.0], [9.0, 9.0, 9.0], [0, 0, 0])
    report = bench_pairs.compare(METRICS, parent, change)
    rate = report["metrics"]["steps_per_s"]
    assert rate["parent"] == [100.0, 110.0, 90.0] and rate["change"] == [120.0, 100.0, 95.0]
    assert rate["parent_quartiles"] == [95.0, 100.0, 105.0]
    assert rate["change_quartiles"] == [97.5, 100.0, 110.0]
    assert (rate["parent_iqr"], rate["ratio"], rate["wins"]) == (10.0, 1.0, 2)
    assert report["metrics"]["job_ms.tail"]["wins"] == 2
    assert report["failed"] == {"parent": 1, "change": 0}


def test_out_file_collects_one_record_per_call(tmp_path):
    out = tmp_path / "BENCH_0.json"
    parent, change = _runs([1.0], [2.0], [0]), _runs([2.0], [1.0], [0])
    for workload in ("osc-ham", "nonholonomic"):
        bench_pairs.append_record(out, {"workload": workload,
                                        **bench_pairs.compare(METRICS, parent, change)})
    records = json.loads(out.read_text())
    assert [r["workload"] for r in records] == ["osc-ham", "nonholonomic"]
    assert records[1]["metrics"]["steps_per_s"]["ratio"] == 2.0


def test_source_digest_reads_the_package_sources(tmp_path):
    (tmp_path / "src" / "diracmech").mkdir(parents=True)
    source = tmp_path / "src" / "diracmech" / "core.py"
    source.write_text("x = 1\n")
    first = bench_pairs.source_digest(tmp_path)
    (tmp_path / "notes.txt").write_text("not a source")
    assert bench_pairs.source_digest(tmp_path) == first and len(first) == 64
    source.write_text("x = 2\n")
    assert bench_pairs.source_digest(tmp_path) != first


def _bench_sides():
    for path in sorted(_ROOT.glob("BENCH_*.json")):
        for k, record in enumerate(json.loads(path.read_text())):
            for side in ("parent", "change"):
                yield pytest.param(record[side], id="%s-%d-%s" % (path.stem, k, side))


def _git(*args):
    return subprocess.run(["git", "-C", str(_ROOT), *args], capture_output=True)


@pytest.mark.parametrize("identity", list(_bench_sides()))
def test_bench_records_name_commits_of_this_history_with_their_sources(identity, tmp_path):
    """Each side of a checked-in BENCH record names a commit of this repository
    whose package sources hash, by ``source_digest``'s rule, to its src_sha256."""
    if shutil.which("git") is None or _git("rev-parse", "--git-dir").returncode:
        pytest.skip("no git repository")
    if _git("rev-parse", "--is-shallow-repository").stdout.strip() != b"false":
        pytest.skip("the repository history is shallow")
    commit = identity["commit"]
    assert not _git("rev-parse", "--verify", "--quiet", commit + "^{commit}").returncode, commit
    archive = _git("archive", "--format=tar", commit, "src/diracmech")
    assert not archive.returncode, archive.stderr
    package = tmp_path / "src" / "diracmech"
    package.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        for member in tar.getmembers():
            if member.isfile() and Path(member.name).parent == Path("src/diracmech"):
                (package / Path(member.name).name).write_bytes(tar.extractfile(member).read())
    assert bench_pairs.source_digest(tmp_path) == identity["src_sha256"], commit


_LAYERS_PATH = _ROOT / "tools" / "bench_layers.py"
_LAYERS_SPEC = importlib.util.spec_from_file_location("bench_layers", _LAYERS_PATH)
bench_layers = importlib.util.module_from_spec(_LAYERS_SPEC)
_LAYERS_SPEC.loader.exec_module(bench_layers)


def _layer_results(scale):
    # every layer of every lane, less the A(q) lookup of the unconstrained lanes
    return {lane: {layer: scale * (i + 1) for i, layer in
                   enumerate(bench_layers.LAYERS + (bench_layers.CALLS,))
                   if lane == "nonholonomic" or layer != "A(q) lookup"}
            for lane in bench_layers.LANES}


def test_layer_table_has_a_row_per_lane_and_layer_and_a_ratio_for_two_trees():
    rows = len(bench_layers.LANES) * (len(bench_layers.LAYERS) + 1)
    lines = bench_layers.table(["parent", "change"], [_layer_results(2.0), _layer_results(1.0)])
    assert lines[:2] == ["tree 1: parent", "tree 2: change"]
    assert lines[2].split() == ["lane", "layer", "tree", "1", "tree", "2", "ratio"]
    body = lines[3:]
    assert len(body) == rows
    first = body[0].split()
    assert first == ["osc-L", "residual", "2.000", "1.000", "0.500"]
    lookups = [line.split() for line in body if "A(q) lookup" in line]
    assert [cells[0] for cells in lookups] == list(bench_layers.LANES)
    assert lookups[0][-3:] == ["-", "-", "-"] and lookups[-1][-1] == "0.500"
    assert body[-1].startswith("nonholonomic  py calls / step")
    # one tree: no ratio column
    lines = bench_layers.table(["tree"], [_layer_results(1.0)])
    assert lines[1].split() == ["lane", "layer", "tree", "1"] and len(lines) == 2 + rows


def test_layer_figures_are_the_best_over_rounds():
    slow, fast = _layer_results(3.0), _layer_results(1.0)
    slow["osc-H"]["newton"] = 0.5
    best = bench_layers.best_of([slow, fast])
    assert best["osc-H"]["newton"] == 0.5 and best["osc-L"]["newton"] == fast["osc-L"]["newton"]
    assert "A(q) lookup" not in best["osc-H"]


_WP_PATH = _ROOT / "tools" / "work_precision.py"
_WP_SPEC = importlib.util.spec_from_file_location("work_precision", _WP_PATH)
work_precision = importlib.util.module_from_spec(_WP_SPEC)
_WP_SPEC.loader.exec_module(work_precision)


def test_work_precision_table_has_a_row_per_lane_and_step_size_with_its_work():
    rows = [(lane, h, round(work_precision.T / h), 1e-3 * h, 10.0)
            for lane in work_precision.LANES for h in work_precision.HS]
    lines = work_precision.table(rows)
    assert lines[0].split() == ["lane", "h", "steps", "error", "us/step", "ms", "to", "T"]
    assert len(lines) == 1 + len(work_precision.LANES) * len(work_precision.HS)
    # 50 steps at 10 µs each take 0.5 ms to reach T
    assert lines[1].split() == ["osc-L", "0.04", "50", "4.000e-05", "10.00", "0.50"]
    assert lines[-1].split()[0] == "midpoint"
