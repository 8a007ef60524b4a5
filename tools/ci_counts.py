"""Check the traced per-step counts of the benchmark workloads against one table.

Each workload's traced report is the output of

    python bench/run.py --workload W --seed 1 --seconds 1 --trace 1

saved as ``bench-W-trace1.txt`` in REPORT_DIR; its last line is the JSON
result. Every count of the table is printed with the value it must have, and
the exit code is 1 when any count misses its value by more than its
tolerance (a tolerance of 0 asks for equality; NaN always misses).

Usage: python tools/ci_counts.py REPORT_DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# (workload, metric, expected value, tolerance)
COUNTS = [
    # the observed predictor choice keeps extrapolating on a smooth lane;
    # holding the previous momentum instead takes 240-245 evaluations per step
    ("fd-ham-20", "stepper.newton_iters_per_step", 2.0, 0.0),
    ("fd-ham-20", "systems.user_evals_per_step", 215.125, 0.0),
    # one rank test, one Newton iteration and three evaluations per
    # constrained step: 2000 steps per job and one more rank test for its
    # seed check; the seed check in the first step adds no evaluation of its own
    ("nonholonomic", "linalg.orthonormal_columns.calls_per_step", 1.0005, 1e-9),
    ("nonholonomic", "stepper.newton_iters_per_step", 1.0, 0.0),
    ("nonholonomic", "systems.user_evals_per_step", 3.0035, 1e-9),
    # calls of KinematicDistribution.matrix, the memo lookup the tracer wraps,
    # not A(q) evaluations (about one per step): a step reads its one memo
    # entry without it, and its own retraction without phi or jac2, whose
    # jac2 the first step does not check either, so what is left per
    # 2000-step job is the seed check's phi (1). The row reads this until
    # the tracer counts evaluations instead of lookups
    ("nonholonomic", "bundle.annihilator.calls_per_step", 0.0005, 1e-12),
    # the seed check adds no user evaluation to a CLI run: 10000 steps per
    # job, d1 L twice and d2 L once per step, plus the seed momentum, the
    # seed check and the first assembly
    ("osc-cli", "systems.user_evals_per_step", 3.0005, 1e-9),
    # the held matrix serves every later step: one assembly per 2000-step
    # constrained job, whose exact constraint blocks each step writes into it
    ("nonholonomic", "stepper.jac_fresh_per_step", 0.0005, 1e-12),
    ("nonholonomic", "stepper.jac_reuse_ratio", 0.9995, 1e-12),
    # one assembly per 8-step FD-only job: each job is a fresh run, whose
    # held matrix serves its seven later steps
    ("fd-ham-20", "stepper.jac_fresh_per_step", 0.125, 1e-12),
    ("fd-ham-20", "stepper.jac_reuse_ratio", 0.875, 1e-12),
    # one held Newton iteration per oscillator step, and three evaluations:
    # two residuals and the completion; 10000 steps per job, plus the n + 1 = 2
    # dH/dq calls of the first assembly. These pin that the solve saves its
    # bookkeeping, not iterations or evaluations
    ("osc-ham", "stepper.newton_iters_per_step", 1.0, 0.0),
    ("osc-ham", "systems.user_evals_per_step", 3.0002, 1e-9),
] + [
    # one Jacobian assembly per 10,000-step job, seen through the wrapped
    # step functions
    (workload, metric, value, tolerance) for workload in ("osc-ham", "osc-cli")
    for metric, value, tolerance in (("stepper.jac_fresh_per_step", 1e-4, 1e-12),
                                     ("stepper.jac_reuse_ratio", 0.9999, 1e-12),
                                     ("stepper.newton_calls_per_step", 1.0, 0.0))
]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    metrics, missed = {}, 0
    for workload, metric, expected, tolerance in COUNTS:
        if workload not in metrics:
            report = Path(args[0]) / ("bench-%s-trace1.txt" % workload)
            metrics[workload] = json.loads(report.read_text().splitlines()[-1])["metrics"]
        value = metrics[workload][metric]["value"]
        ok = abs(value - expected) <= tolerance
        missed += not ok
        print("%-4s %-12s %-42s %r (expected %r, tolerance %g)"
              % ("ok" if ok else "MISS", workload, metric, value, expected, tolerance))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
