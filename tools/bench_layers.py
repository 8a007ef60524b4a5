"""Time each layer of a lane's step engine at a fixed state, in one or two trees.

TREE is a checkout of this repository; each of ROUNDS rounds measures every
tree given, in a fresh interpreter that imports diracmech from TREE/src, and
with two trees the order alternates between rounds, so that a slow phase of
the host falls on both alike. A lane is a built-in system at h = 0.1 and a
fixed seed, run by ``run_trajectory`` for WARM + 1 steps with the last step's calls
of ``newton_solve`` and ``dirac_inclusion_residual`` recorded; every layer is
timed at that step's state with ``timeit`` (GC off), best of REPEAT:

- residual: one Newton residual at the step's predictor;
- assembly: one assembly of the Newton matrix there;
- newton: the step's Newton solve, from the predictor with its held matrix;
- A(q) lookup: one distribution lookup that misses the memo (constrained
  lanes only; two base points alternate);
- certificate held / fresh: the step's certificate from the values of its
  last residual, and from the point alone;
- advance: one step, the mean per step of a 200-step ``run_trajectory``
  from the seed.

Each figure is the best over all rounds, in µs per call. The last row of a
lane counts the Python-level calls (``sys.setprofile`` "call" events) of one
step of ``run_trajectory``, over 200 steps: a noise-free companion of the
times, which numpy versions move. With two trees the table gives their
ratio, second over first.

Usage: python tools/bench_layers.py TREE [TREE]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np

LANES = ("osc-L", "osc-H", "nonholonomic")
LAYERS = ("residual", "assembly", "newton", "A(q) lookup", "certificate held",
          "certificate fresh", "advance")
CALLS = "py calls / step"
H = 0.1
WARM, STEPS, NUMBER, REPEAT, ROUNDS = 50, 200, 2000, 7, 6


def _lane(diracmech, lane):
    """(system, seed) of a lane."""
    builtin = diracmech.builtin
    if lane == "osc-H":
        return builtin.harmonic_oscillator_hamiltonian(H), ([0.3], [0.1])
    if lane == "osc-L":
        system = builtin.harmonic_oscillator(H)
        return system, builtin.lagrangian_seed(system, [0.3], [0.31])
    system = builtin.nonholonomic_particle(H)
    q0 = np.array([0.0, 0.5, 0.0])
    return system, builtin.lagrangian_seed(system, q0, q0 + H * np.array([1.0, 0.2, 0.5]))


def _best(stmt, number):
    """The best µs per call of ``stmt`` over REPEAT runs of ``number`` calls, GC off."""
    return min(timeit.repeat(stmt, number=number, repeat=REPEAT)) / number * 1e6


def measure_lane(diracmech, lane):
    """{layer: µs per call} of one lane, with its Python-level calls per step under CALLS."""
    stepper = diracmech.stepper
    system, seed = _lane(diracmech, lane)
    calls = {}
    solve, certify = stepper.newton_solve, stepper.dirac_inclusion_residual

    def record(name, fun):
        def recorded(*args, **kwargs):
            calls[name] = args, kwargs
            return fun(*args, **kwargs)
        return recorded

    stepper.newton_solve = record("newton", solve)
    stepper.dirac_inclusion_residual = record("certificate", certify)
    try:
        # the last step's point is the curve's last one, for both kinds
        point = stepper.run_trajectory(system, seed, WARM + 1).curve[-1]
    finally:
        stepper.newton_solve, stepper.dirac_inclusion_residual = solve, certify
    (f, jac, z0, opts, held), _ = calls["newton"]
    cert_args, cert_kwargs = calls["certificate"]
    held, p_next = held.copy(), cert_args[2]
    times = {
        "residual": _best(lambda: f(z0), NUMBER),
        "assembly": _best(lambda: jac(z0), NUMBER // 10),
        "newton": _best(lambda: solve(f, jac, z0, opts, held), NUMBER),
        "certificate held": _best(lambda: certify(*cert_args, **cert_kwargs), NUMBER),
        "certificate fresh": _best(lambda: certify(system, point, p_next), NUMBER),
        "advance": _best(lambda: stepper.run_trajectory(system, seed, STEPS), 1) / STEPS,
    }
    if system.m:
        lookup, other = system.dist._validated, point.qplus
        times["A(q) lookup"] = _best(lambda: (lookup(point.q), lookup(other)), NUMBER) / 2.0
    times[CALLS] = _calls_per_step(stepper, system, seed)
    return times


def _calls_per_step(stepper, system, seed):
    count = [0]

    def profile(frame, event, arg):
        if event == "call":
            count[0] += 1

    sys.setprofile(profile)
    try:
        stepper.run_trajectory(system, seed, STEPS)
    finally:
        sys.setprofile(None)
    return count[0] / STEPS


def measure(tree: Path) -> dict:
    """{lane: {layer: µs, CALLS: count}} of the diracmech in ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    import diracmech.builtin
    import diracmech.stepper  # noqa: F401
    return {lane: measure_lane(diracmech, lane) for lane in LANES}


def table(trees, results) -> list:
    """The report lines of each tree's best figures, ``results[i]`` for ``trees[i]``.

    A layer a lane does not have reads "-"; with two trees the last column
    is their ratio, tree 2 over tree 1.
    """
    lines = ["tree %d: %s" % (i + 1, tree) for i, tree in enumerate(trees)]
    lines.append("%-13s %-18s" % ("lane", "layer")
                 + "".join(" %10s" % ("tree %d" % (i + 1)) for i in range(len(trees)))
                 + (" %7s" % "ratio" if len(trees) == 2 else ""))
    for lane in LANES:
        for layer in LAYERS + (CALLS,):
            values = [result[lane].get(layer) for result in results]
            cells = "".join(" %10s" % ("-" if v is None else "%.3f" % v) for v in values)
            if len(values) == 2:
                cells += " %7s" % ("-" if None in values or not values[0]
                                   else "%.3f" % (values[1] / values[0]))
            lines.append("%-13s %-18s%s" % (lane, layer, cells))
    return lines


def best_of(rounds) -> dict:
    """The per-layer minimum over rounds of one tree's results."""
    return {lane: {layer: min(r[lane][layer] for r in rounds) for layer in rounds[0][lane]}
            for lane in rounds[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", type=Path, nargs="+")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    if args.child:
        print(json.dumps(measure(trees[0])))
        return 0
    if len(trees) > 2:
        parser.error("give one or two trees")
    rounds = [[] for _ in trees]
    for r in range(ROUNDS):
        for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
            out = subprocess.run([sys.executable, __file__, str(trees[i]), "--child"],
                                 check=True, capture_output=True, text=True).stdout
            rounds[i].append(json.loads(out))
    print("\n".join(table([str(t) for t in trees], [best_of(r) for r in rounds])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
