"""Print the byte-identity digests of six fixed runs of the diracmech package.

Four lanes run through ``run_trajectory`` at h = 0.1 and default solver
options; their digest is the sha256 of the bytes of q, p and q+ of the
curve, every DiagnosticColumns field in order, and then ``final_state``
(q, p) when the run has one. Two lanes are CLI configs; their digest is the
sha256 of the CSV file the CLI writes. Each line gives the first 16 hex
digits and the lane. A change that keeps every line keeps the bits of
these runs; the bits of the small dense solves may differ between numpy and
LAPACK builds, so compare digests made on one host.

Usage: python tools/lane_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diracmech import DiscreteSystem, builtin, cli, run_trajectory  # noqa: E402

H = 0.1
CONFIGS = (
    ("CLI CSV, oscillator, 500 steps",
     {"system": "harmonic_oscillator", "h": H, "seed": [0.0, 0.1], "steps": 500}),
    ("CLI CSV, nonholonomic particle, 200 steps",
     {"system": "nonholonomic_particle", "h": H, "seed": [0.0, 0.5, 0.0, 0.1, 0.52, 0.05],
      "steps": 200}),
)


def _prefix(digest) -> str:
    return digest.hexdigest()[:16]


def trajectory_digest(traj) -> str:
    digest = hashlib.sha256()
    blocks = [traj.curve.q, traj.curve.p, traj.curve.qplus]
    blocks += [getattr(traj.diagnostics, name) for name in traj.diagnostics._FIELDS]
    blocks += list(traj.final_state or ())
    for block in blocks:
        digest.update(np.ascontiguousarray(block).tobytes())
    return _prefix(digest)


def lanes():
    """(label, system, seed, steps) of the four run_trajectory lanes."""
    oscillator = builtin.harmonic_oscillator(H)
    nonholonomic = builtin.nonholonomic_particle(H)
    q0 = np.array([0.0, 0.5, 0.0])
    q1 = q0 + H * np.array([1.0, 0.2, 0.5])  # A(q0) (q1 - q0) = 0
    particle = DiscreteSystem.from_hamiltonian(
        builtin.free_particle_hamiltonian(H, 3).hamiltonian, nonholonomic.dist,
        nonholonomic.constraint)
    return (
        ("oscillator L, 3000 steps", oscillator,
         builtin.lagrangian_seed(oscillator, [0.0], [0.1]), 3000),
        ("oscillator H, 3000 steps", builtin.harmonic_oscillator_hamiltonian(H),
         ([0.0], [1.0]), 3000),
        ("nonholonomic L, 2000 steps", nonholonomic,
         builtin.lagrangian_seed(nonholonomic, q0, q1), 2000),
        ("constrained H particle, 300 steps", particle,
         ([0.0, 0.5, 0.0], [1.0, 0.2, 0.3]), 300),
    )


def main() -> int:
    for label, system, seed, steps in lanes():
        print("%s  %s" % (trajectory_digest(run_trajectory(system, seed, steps)), label))
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, config) in enumerate(CONFIGS):
            path = Path(tmp) / ("config%d.json" % k)
            output = Path(tmp) / ("out%d.csv" % k)
            path.write_text(json.dumps(dict(config, output=str(output))))
            if cli.main([str(path), "--quiet"]) != 0:
                print("%s failed" % label, file=sys.stderr)
                return 1
            print("%s  %s" % (_prefix(hashlib.sha256(output.read_bytes())), label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
