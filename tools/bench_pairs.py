"""Run alternating parent/change pairs of one benchmark workload and summarize them.

PARENT and CHANGE are two checkouts of this repository. Pair i runs

    python3 DIR/bench/run.py --workload W --seed S0+i --seconds T --trace 0

in each of them, with the same seed on both sides; the parent runs first in
even pairs and the change first in odd ones, so that a slow phase of the host
falls on both sides alike. For every end-to-end metric that CHANGE's
BENCHMARK.json lists, it prints the median and quartiles of each side, the
parent's interquartile range (IQR), the ratio of the medians (change over
parent) and the number of pairs in which the change did better, by the
metric's ``better`` direction; then the failed jobs of each side. The tool
writes no file: each bench/run.py keeps its own run record under its
checkout's bench/out/, as it always does.

Usage: python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N]
       [--seconds T] [--seed0 S]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of ``values``, by the inclusive method."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metrics, parent_runs, change_runs) -> list:
    """The report lines of paired runs.

    ``metrics`` are the ``end_to_end`` entries of BENCHMARK.json (each with a
    ``name`` and a ``better`` of "higher" or "lower"); ``parent_runs`` and
    ``change_runs`` are the result lines of bench/run.py, pair i at index i
    on both sides. A pair is won when the change is strictly better.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("expected the same positive number of parent and change runs")
    lines = ["%-14s %32s %32s %9s %7s %6s" % ("metric", "parent q1 / median / q3",
                                           "change q1 / median / q3", "par. IQR", "ratio",
                                           "wins")]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        before = [run["metrics"][name]["value"] for run in parent_runs]
        after = [run["metrics"][name]["value"] for run in change_runs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
        ratio = cm / pm if pm else float("nan")
        lines.append("%-14s %10.6g %10.6g %10.6g %10.6g %10.6g %10.6g %9.3g %7.4f %3d/%d"
                     % (name, p1, pm, p3, c1, cm, c3, p3 - p1, ratio, wins, len(before)))
    lines.append("failed jobs: parent %d, change %d"
                 % (sum(run["failed"] for run in parent_runs),
                    sum(run["failed"] for run in change_runs)))
    return lines


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
