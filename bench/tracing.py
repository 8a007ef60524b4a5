"""Span tracing for the benchmark's traced run, installed from outside the library.

The tracer replaces module globals, one class method and per-system instance
attributes that diracmech resolves at call time with thin wrappers that open
and close spans. Every span records its name, start, end, parent span and
job. Spans are kept in memory as flat arrays and written out after the run,
and the per-layer metrics are computed from them. ``install`` is a context
manager that puts every original attribute back on exit.

Blind spots: the residual and Jacobian closures built inside the steppers
cannot be wrapped, so their time shows as Newton self time; and
``DerivativeProvider.fd_gradient`` is captured by ``DerivativeProvider.bound``
at construction, so finite-difference gradients are seen through
``central_difference`` and the slot wrappers instead.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

JOB = "job"
CLI_RUN = "cli.run"
RUN_TRAJECTORY = "stepper.run_trajectory"
STEP = "stepper.step"
NEWTON = "stepper.newton"
ADMISSIBILITY = "bundle.admissibility"
ANNIHILATOR = "bundle.annihilator"
JACOBIAN_COLUMNS = "systems.jacobian_columns"
FD_GRADIENT = "systems.fd_gradient"
CERTIFY = "systems.certify"
CONSTRAINT = "systems.constraint"
SLOT = "systems.slot"            # a finite-difference slot gradient (d1, d2, dq, dp)
USER_GRAD = "systems.user_grad"  # an analytic slot gradient: one user evaluation
USER_F = "systems.user_f"        # the generating function itself: one user evaluation
ORTHONORMAL = "linalg.orthonormal_columns"

# (module, attribute, span name) for module globals the library looks up per call.
_MODULE_WRAPS = (
    ("stepper", "run_trajectory", RUN_TRAJECTORY),
    ("stepper", "step_lagrangian", STEP),
    ("stepper", "step_hamiltonian", STEP),
    ("stepper", "jacobian_columns", JACOBIAN_COLUMNS),
    ("stepper", "dirac_inclusion_residual", CERTIFY),
    ("stepper", "check_admissibility", ADMISSIBILITY),
    ("cli", "run", CLI_RUN),
    ("cli", "run_trajectory", RUN_TRAJECTORY),
    ("systems", "orthonormal_columns", ORTHONORMAL),
    ("systems", "central_difference", FD_GRADIENT),
    ("systems", "jacobian_columns", JACOBIAN_COLUMNS),
    ("bundle", "orthonormal_columns", ORTHONORMAL),
)


class Tracer:
    """In-memory span store plus the solver counters read at wrapped boundaries.

    ``current_job`` is set by the caller before each job; spans opened while
    it is negative belong to no job.
    """

    def __init__(self):
        self.names = []
        self.calls = []
        self._name_ids = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.nested = array("b")
        self._stack = []
        self._depth = {}
        self._saved = []
        self._instrumented = set()
        self.current_job = -1
        self.counts = {"newton_iters": 0, "jac_fresh": 0, "steps_without_fresh": 0}

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        nid = self._id(name)
        self.calls[nid] += 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.nested.append(1 if depth else 0)
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int, name: str):
        self.end[sid] = perf_counter()
        self._stack.pop()
        self._depth[name] -= 1

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid, name)

        return traced

    def _wrap_newton(self, fn):
        tracer = self
        traced = self.wrap(NEWTON, fn)
        jid = self._id(JACOBIAN_COLUMNS)

        def counted(jac):
            # a matrix is a fresh assembly when producing it differenced
            # something; the frozen matrix of Jacobian reuse does not
            def jac_counted(x):
                before = tracer.calls[jid]
                out = jac(x)
                if tracer.calls[jid] != before:
                    tracer.counts["jac_fresh"] += 1
                return out
            return jac_counted

        @functools.wraps(fn)
        def newton(f, jac, *rest, **kwargs):
            out = traced(f, None if jac is None else counted(jac), *rest, **kwargs)
            tracer.counts["newton_iters"] += int(out[1])
            return out

        return newton

    def _wrap_step(self, fn):
        tracer = self
        traced = self.wrap(STEP, fn)

        @functools.wraps(fn)
        def step(*args, **kwargs):
            before = tracer.counts["jac_fresh"]
            try:
                return traced(*args, **kwargs)
            finally:
                if tracer.counts["jac_fresh"] == before:
                    tracer.counts["steps_without_fresh"] += 1

        return step

    def _replace(self, obj, attr, value):
        had = attr in vars(obj)
        self._saved.append((obj, attr, had, vars(obj)[attr] if had else None))
        setattr(obj, attr, value)

    def instrument_system(self, system):
        """Wrap one system's slot gradients, generating function and constraint."""
        if id(system) in self._instrumented:
            return
        self._instrumented.add(id(system))
        lagrangian = system.lagrangian is not None
        gen = system.lagrangian if lagrangian else system.hamiltonian
        for block, attr in enumerate(("d1", "d2") if lagrangian else ("dq", "dp")):
            name = USER_GRAD if gen.provider.grads[block] is not None else SLOT
            self._replace(gen, attr, self.wrap(name, getattr(gen, attr)))
        self._replace(gen.provider, "f", self.wrap(USER_F, gen.provider.f))
        for attr in ("value", "jacobian2"):
            self._replace(system.constraint, attr,
                          self.wrap(CONSTRAINT, getattr(system.constraint, attr)))

    @contextlib.contextmanager
    def install(self, modules):
        """Wrap the library in place; ``modules`` maps short names to diracmech modules."""
        try:
            for mod, attr, name in _MODULE_WRAPS:
                fn = getattr(modules[mod], attr)
                self._replace(modules[mod], attr,
                              self._wrap_step(fn) if name == STEP else self.wrap(name, fn))
            stepper = modules["stepper"]
            self._replace(stepper, "newton_solve", self._wrap_newton(stepper.newton_solve))
            dist_cls = modules["bundle"].KinematicDistribution
            self._replace(dist_cls, "matrix", self.wrap(ANNIHILATOR, dist_cls.matrix))
            build = modules["cli"].build_system

            def build_system(config):
                system = build(config)
                self.instrument_system(system)
                return system

            self._replace(modules["cli"], "build_system", build_system)
            yield self
        finally:
            for obj, attr, had, old in reversed(self._saved):
                if had:
                    setattr(obj, attr, old)
                else:
                    delattr(obj, attr)
            self._saved.clear()
            self._instrumented.clear()

    def arrays(self):
        """The spans as numpy columns; span i is row i of every column."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "job": np.asarray(self.job, dtype=np.int64),
            "nested": np.asarray(self.nested, dtype=bool),
        }


def layer_metrics(spans, counts, steps: int, job_scale):
    """Per-layer metrics from the spans of ``steps`` certified steps.

    ``job_scale[j]`` is the host-speed factor of job j; every span duration
    of that job is rescaled by it. Times are in microseconds per step.
    Returns (metrics, coverage): metrics maps a name to (value, unit), and
    coverage is the share of job time spent inside named spans.
    """
    names = list(spans["names"])
    nid = spans["name_id"]
    parent = spans["parent"]
    job = spans["job"]
    scale = np.where(job >= 0, np.asarray(job_scale, dtype=float)[np.maximum(job, 0)], 1.0)
    dur = (spans["end"] - spans["start"]) * scale
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def mask(name):
        return nid == names.index(name) if name in names else np.zeros(nid.shape, bool)

    def calls(name):
        return int(mask(name).sum())

    def inclusive(name):
        return float(dur[mask(name) & ~spans["nested"]].sum())

    def self_us(name):
        return float(self_time[mask(name)].sum())

    per = 1e6 / steps
    # cli.run outside its run_trajectory child: config, system, rows and file
    under_cli = mask(RUN_TRAJECTORY) & has_parent
    under_cli[under_cli] = mask(CLI_RUN)[parent[under_cli]]
    step_us = np.sort(dur[mask(STEP)]) * 1e6
    user_evals = calls(USER_F) + calls(USER_GRAD)
    metrics = {
        "cli.emit.us_per_step": ((inclusive(CLI_RUN) - float(dur[under_cli].sum())) * per, "us"),
        "stepper.run_trajectory.self_us_per_step": (self_us(RUN_TRAJECTORY) * per, "us"),
        "stepper.step.self_us_per_step": (self_us(STEP) * per, "us"),
        "stepper.newton.self_us_per_step": (self_us(NEWTON) * per, "us"),
        "stepper.step_us.p50": (_nearest_rank(step_us, 0.50), "us"),
        "stepper.step_us.p99": (_nearest_rank(step_us, 0.99), "us"),
        "stepper.newton_iters_per_step": (counts["newton_iters"] / steps, "count"),
        "stepper.newton_calls_per_step": (calls(NEWTON) / steps, "count"),
        "stepper.jac_fresh_per_step": (counts["jac_fresh"] / steps, "count"),
        "stepper.jac_reuse_ratio": (counts["steps_without_fresh"] / steps, "ratio"),
        "systems.jacobian_columns.us_per_step": (inclusive(JACOBIAN_COLUMNS) * per, "us"),
        "systems.jacobian_columns.calls_per_step": (calls(JACOBIAN_COLUMNS) / steps, "count"),
        "systems.fd_gradient.us_per_step": (inclusive(FD_GRADIENT) * per, "us"),
        "systems.certify.us_per_step": (inclusive(CERTIFY) * per, "us"),
        "systems.constraint.us_per_step": (inclusive(CONSTRAINT) * per, "us"),
        "systems.user_evals_per_step": (user_evals / steps, "count"),
        "systems.user_eval.us_per_step": ((inclusive(USER_F) + inclusive(USER_GRAD)) * per, "us"),
        "bundle.annihilator.calls_per_step": (calls(ANNIHILATOR) / steps, "count"),
        "bundle.annihilator.us_per_step": (inclusive(ANNIHILATOR) * per, "us"),
        "bundle.admissibility.us_per_step": (inclusive(ADMISSIBILITY) * per, "us"),
        "linalg.orthonormal_columns.calls_per_step": (calls(ORTHONORMAL) / steps, "count"),
        "linalg.orthonormal_columns.us_per_step": (inclusive(ORTHONORMAL) * per, "us"),
    }
    jobs = mask(JOB)
    coverage = float(child[jobs].sum() / dur[jobs].sum()) if jobs.any() else 0.0
    return metrics, coverage


def _nearest_rank(sorted_values, q: float) -> float:
    if not len(sorted_values):
        return 0.0
    return float(sorted_values[max(0, int(np.ceil(q * len(sorted_values))) - 1)])
