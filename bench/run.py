"""diracmech benchmark: certified steps per second on four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload osc-cli --seed 1 --seconds 25 --trace 0

One process and one thread drive the library from outside as a closed loop:
each job (one CLI call or one ``run_trajectory`` call, with inputs drawn from
the seed) starts when the previous one has been checked. An untraced run
(``--trace 0``) reports the end-to-end metrics; a traced run (``--trace 1``)
wraps the library's functions with spans and reports per-layer metrics. The
last line of standard output is one JSON object; a fuller run record (raw
and normalized job times, calibrations, versions) goes to ``bench/out/``.

Host-speed normalization: the host this runs on changes speed by up to 2x in
phases of seconds, which CPU time does not see. A fixed calibration kernel
(pure Python plus a tiny numpy dot, no diracmech) is timed right before and
right after every job, and the job's time is rescaled by the mean of the two
to a nominal host on which the kernel takes ``CAL_NOMINAL_S``.
"""

from __future__ import annotations

import os

# before numpy loads: a multi-threaded BLAS would spread the 40 x 40 solve
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

CAL_ITERS = 2000
CAL_NOMINAL_S = 2.0e-3
SETUP_REPS = 15
MIN_JOBS = 11          # the tail percentile needs ten jobs beyond it
MIN_TRACE_JOBS = 3
WARM_JOB = 2 ** 32     # job index of the untimed warm-up input
_CAL_VEC = np.linspace(0.0, 1.0, 8)
_MODULES = ("stepper", "systems", "bundle", "linalg", "builtin", "cli")


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    vec = _CAL_VEC
    for i in range(CAL_ITERS):
        x = float(vec @ vec)
        parts = [x, float(i)]
        acc += parts[0] * 1e-3 + (i & 7)
    return time.perf_counter() - start


def timed(fn):
    """(output, error, raw seconds, calibration seconds) of one job.

    GC runs between jobs and stays enabled during the job, since users pay
    for collection too.
    """
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a failed job is counted, not fatal
        out, err = None, "%s: %s" % (type(exc).__name__, exc)
    raw = time.perf_counter() - start
    after = calibrate()
    return out, err, raw, 0.5 * (before + after)


def _rng(seed: int, *stream: int):
    return np.random.default_rng((seed % 2 ** 64,) + stream)


def _loaded_modules():
    mods = {"diracmech": sys.modules.get("diracmech")}
    for short in _MODULES:
        mods[short] = sys.modules.get("diracmech." + short)
    return mods


def _purge_diracmech():
    for name in [m for m in sys.modules if m == "diracmech" or m.startswith("diracmech.")]:
        del sys.modules[name]


def measure_setup(workload, seed: int):
    """Import diracmech and build the workload's state ``SETUP_REPS`` times.

    Returns the state and modules of the last repetition, plus the raw and
    calibration seconds of every repetition.
    """
    raws, cals = [], []
    for _ in range(SETUP_REPS):
        _purge_diracmech()
        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        for name in workload.modules:
            importlib.import_module(name)
        state = workload.setup(_loaded_modules(), _rng(seed, 0))
        raws.append(time.perf_counter() - start)
        cals.append(0.5 * (before + calibrate()))
    for short in _MODULES:
        importlib.import_module("diracmech." + short)
    return state, _loaded_modules(), raws, cals


def _job(workload, state, seed: int, index: int, call=None):
    inp = workload.make_input(state, _rng(seed, 1, index), workload.steps)
    run = call or workload.run
    out, err, raw, cal = timed(lambda: run(state, inp))
    if err is None:
        err = workload.check(state, inp, out)
    return err, raw, cal


def tail(values):
    """(value, percentile, jobs): the highest percentile with ten jobs beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def _run_untraced(workload, state, seed: int, seconds: float):
    """(error, raw seconds, calibration seconds) of each job of a closed loop."""
    jobs = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        jobs.append(_job(workload, state, seed, len(jobs)))
    return jobs


def _run_traced(workload, state, modules, seed: int, seconds: float):
    """Each job runs twice, untraced then traced, so both see the same host phase.

    The job count follows from ``seconds`` alone, never from the clock, so
    the per-layer counts of two traced runs on one seed repeat exactly.
    """
    tracer = tracing.Tracer()
    traced_run = tracer.wrap(tracing.JOB, workload.run)
    plain, traced = [], []
    for index in range(max(MIN_TRACE_JOBS, int(seconds * workload.trace_jobs_per_s))):
        plain.append(_job(workload, state, seed, index))
        tracer.current_job = index
        with tracer.install(modules):
            if "system" in state:
                tracer.instrument_system(state["system"])
            traced.append(_job(workload, state, seed, index, traced_run))
        tracer.current_job = -1
    return tracer, plain, traced


def _normalized(raws, cals):
    return [raw * CAL_NOMINAL_S / cal for raw, cal in zip(raws, cals)]


def environment(seed: int):
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (deps.get("name"), deps.get("version"))
    except Exception:  # show_config's layout differs across numpy versions
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _commit(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_benchmark(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR):
    """Run one workload; returns (result line, run record)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    state, modules, setup_raw, setup_cal = measure_setup(workload, seed)
    setup_norm = _normalized(setup_raw, setup_cal)
    warm = _job(workload, state, seed, WARM_JOB)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "steps_per_job": workload.steps, "env": environment(seed),
        "calibration": {"nominal_s": CAL_NOMINAL_S, "iters": CAL_ITERS},
        "setup": {"raw_s": setup_raw, "calibration_s": setup_cal, "normalized_s": setup_norm},
        "warm_job": {"error": warm[0], "raw_s": warm[1]},
    }
    if not trace:
        errors, raws, cals = zip(*_run_untraced(workload, state, seed, seconds))
        norm = _normalized(raws, cals)
        tail_s, tail_pct, jobs = tail(norm)
        metrics = {
            "steps_per_s": (workload.steps / statistics.median(norm), "1/s"),
            "job_ms.tail": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(setup_norm), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["jobs"] = {"raw_s": raws, "calibration_s": cals, "normalized_s": norm}
        record["job_ms_tail"] = {"percentile": tail_pct, "jobs": jobs}
    else:
        tracer, plain, traced = _run_traced(workload, state, modules, seed, seconds)
        plain_errors, plain_raws, plain_cals = zip(*plain)
        traced_errors, traced_raws, traced_cals = zip(*traced)
        errors = plain_errors + traced_errors
        plain_rate = workload.steps / statistics.median(_normalized(plain_raws, plain_cals))
        traced_rate = workload.steps / statistics.median(_normalized(traced_raws, traced_cals))
        steps = workload.steps * sum(err is None for err in traced_errors)
        spans = tracer.arrays()
        scale = [CAL_NOMINAL_S / cal for cal in traced_cals]
        metrics, coverage = tracing.layer_metrics(spans, tracer.counts, max(steps, 1), scale)
        metrics["trace.traced_steps_per_s"] = (traced_rate, "1/s")
        metrics["trace.untraced_steps_per_s"] = (plain_rate, "1/s")
        metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
        metrics["trace.coverage"] = (coverage, "ratio")
        spans_path = out_dir / ("%s-seed%d.spans.npz" % (workload.name, seed))
        np.savez_compressed(spans_path, **spans)
        record["spans"] = {"file": spans_path.name, "count": len(spans["start"])}
        record["jobs"] = {"untraced_raw_s": plain_raws, "untraced_calibration_s": plain_cals,
                          "traced_raw_s": traced_raws, "traced_calibration_s": traced_cals}
        record["counts"] = dict(tracer.counts)
    failed = sum(err is not None for err in errors)
    if not trace:
        metrics["certified_frac"] = ((len(errors) - failed) / len(errors), "ratio")
    record["failures"] = [err for err in errors if err is not None][:20]
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result = {"correct": failed == 0 and warm[0] is None, "attempted": len(errors),
              "failed": failed, "metrics": record["metrics"]}
    name = "%s-seed%d-trace%d.json" % (workload.name, seed, int(trace))
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diracmech" / "__init__.py").is_file():
        print("diracmech sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads(OUT_DIR)
    if args.workload not in table:
        print("unknown workload %r (known: %s)" % (args.workload, ", ".join(table)),
              file=sys.stderr)
        return 2
    result, _ = run_benchmark(table[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
