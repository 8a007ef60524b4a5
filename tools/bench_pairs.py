"""Run alternating parent/change pairs of one benchmark workload and summarize them.

PARENT and CHANGE are two checkouts of this repository. Pair i runs

    python3 DIR/bench/run.py --workload W --seed S0+i --seconds T --trace 0

in each of them, with the same seed on both sides; the parent runs first in
even pairs and the change first in odd ones, so that a slow phase of the host
falls on both sides alike. For every end-to-end metric that CHANGE's
BENCHMARK.json lists, it prints the median and quartiles of each side, the
parent's interquartile range (IQR), the ratio of the medians (change over
parent) and the number of pairs in which the change did better, by the
metric's ``better`` direction; then the failed jobs of each side. With
``--out FILE`` (a ``BENCH_<pr>.json``) it also appends what it printed to the
list of records in FILE: the workload, run length and seeds, each side's
commit and the sha256 of its package sources, the host (nproc, Python,
numpy), and per metric each side's values and quartiles, the parent IQR, the
ratio and the wins. Each bench/run.py also keeps its own run record under its
checkout's bench/out/, as it always does.

Usage: python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N]
       [--seconds T] [--seed0 S] [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of ``values``, by the inclusive method."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(metrics, parent_runs, change_runs) -> dict:
    """The comparison of paired runs, per metric and in failed jobs.

    ``metrics`` are the ``end_to_end`` entries of BENCHMARK.json (each with a
    ``name`` and a ``better`` of "higher" or "lower"); ``parent_runs`` and
    ``change_runs`` are the result lines of bench/run.py, pair i at index i
    on both sides. A pair is won when the change is strictly better.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("expected the same positive number of parent and change runs")
    report = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        before = [run["metrics"][name]["value"] for run in parent_runs]
        after = [run["metrics"][name]["value"] for run in change_runs]
        (p1, pm, p3), change = quartiles(before), quartiles(after)
        report[name] = {
            "better": metric["better"], "parent": before, "change": after,
            "parent_quartiles": [p1, pm, p3], "change_quartiles": list(change),
            "parent_iqr": p3 - p1, "ratio": change[1] / pm if pm else float("nan"),
            "wins": sum((a > b) if higher else (a < b) for a, b in zip(after, before)),
        }
    failed = {"parent": sum(run["failed"] for run in parent_runs),
              "change": sum(run["failed"] for run in change_runs)}
    return {"metrics": report, "failed": failed}


def summarize(metrics, parent_runs, change_runs) -> list:
    """The report lines of paired runs (see ``compare``)."""
    report = compare(metrics, parent_runs, change_runs)
    lines = ["%-14s %32s %32s %9s %7s %6s" % ("metric", "parent q1 / median / q3",
                                           "change q1 / median / q3", "par. IQR", "ratio",
                                           "wins")]
    for name, row in report["metrics"].items():
        lines.append("%-14s %10.6g %10.6g %10.6g %10.6g %10.6g %10.6g %9.3g %7.4f %3d/%d"
                     % (name, *row["parent_quartiles"], *row["change_quartiles"],
                        row["parent_iqr"], row["ratio"], row["wins"], len(row["parent"])))
    lines.append("failed jobs: parent %(parent)d, change %(change)d" % report["failed"])
    return lines


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list of records in ``path``, which it creates if absent."""
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def source_digest(checkout: Path) -> str:
    """The sha256 of the package sources of ``checkout``, by file name and bytes."""
    digest = hashlib.sha256()
    for source in sorted((checkout / "src" / "diracmech").glob("*.py")):
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    return digest.hexdigest()


def checkout_identity(checkout: Path) -> dict:
    """The commit of ``checkout`` (None outside git) and the digest of its package sources."""
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return {"commit": head.stdout.strip() if head.returncode == 0 else None,
            "src_sha256": source_digest(checkout)}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced bench/run.py in ``checkout``."""
    out = subprocess.run([sys.executable, str(checkout / "bench" / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"], cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    checkouts = args.parent.resolve(), args.change.resolve()
    metrics = json.loads((checkouts[1] / "BENCHMARK.json").read_text())["end_to_end"]
    first, runs = metrics[0]["name"], ([], [])
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run_once(checkouts[side], args.workload, seed, args.seconds))
        print("pair %d (seed %d): %s parent %.5g, change %.5g"
              % (i + 1, seed, first, runs[0][-1]["metrics"][first]["value"],
                 runs[1][-1]["metrics"][first]["value"]), file=sys.stderr)
    print("\n".join(summarize(metrics, *runs)))
    if args.out is not None:
        append_record(args.out, {
            "workload": args.workload, "seconds": args.seconds,
            "seeds": [args.seed0 + i for i in range(args.pairs)],
            "parent": checkout_identity(checkouts[0]), "change": checkout_identity(checkouts[1]),
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__},
            **compare(metrics, *runs)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
