"""The package's public surface: every exported name resolves, once, and every numeric
argument keeps the one rule of its kind."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracmech
from diracmech import (
    DimensionMismatchError,
    DiscreteConstraint,
    DiscreteHamiltonian,
    DiscreteLagrangian,
    KinematicDistribution,
    LinSubspace,
    SkewForm,
    SolverOptions,
    builtin,
    is_dirac,
    run_trajectory,
)

# the tangent/cotangent object layer: the certificate computes these blocks
# directly, and linalg's induced structures are the one general representation
RETIRED = ("TangentPd", "CotangentPd", "pontryagin_two_form", "vertical_lift",
           "interior_product", "lift_annihilator", "lagrangian_one_form",
           "hamiltonian_one_form")


def test_every_exported_name_exists_once():
    assert len(diracmech.__all__) == len(set(diracmech.__all__))
    assert [name for name in diracmech.__all__ if not hasattr(diracmech, name)] == []


def test_star_import_in_a_fresh_interpreter():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "from diracmech import *; import diracmech; print(len(diracmech.__all__))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == len(diracmech.__all__)


def test_retired_names_are_not_exported():
    for name in RETIRED:
        assert name not in diracmech.__all__
        assert not hasattr(diracmech, name)


H = 0.1
_OSC = builtin.harmonic_oscillator(H)
_SEED = builtin.lagrangian_seed(_OSC, [0.0], [0.1])


def _ld(q, qp):
    return float((qp - q) @ (qp - q))


def _rows(q):
    return np.array([[1.0, 0.0, 0.0]])


# (owner, argument, a call with the value in its place, what the argument is:
# the least count and, for md and m, the most, or "real" or "positive", and
# the class that rejects it); the dimensions of the system classes raise
# DimensionMismatchError, every other argument a plain ValueError
ARGUMENTS = [
    ("SolverOptions", "tol", lambda v: SolverOptions(tol=v), "positive", ValueError),
    ("SolverOptions", "max_iter", lambda v: SolverOptions(max_iter=v), (1, None), ValueError),
    ("run_trajectory", "steps", lambda v: run_trajectory(_OSC, _SEED, v), (0, None), ValueError),
    ("DiscreteLagrangian", "n", lambda v: DiscreteLagrangian(v, _ld), (1, None),
     DimensionMismatchError),
    ("DiscreteHamiltonian", "n", lambda v: DiscreteHamiltonian(v, _ld), (1, None),
     DimensionMismatchError),
    ("DiscreteConstraint", "n", lambda v: DiscreteConstraint(v, 1, _ld), (1, None),
     DimensionMismatchError),
    ("DiscreteConstraint", "md", lambda v: DiscreteConstraint(3, v, _ld), (0, 3),
     DimensionMismatchError),
    ("KinematicDistribution", "n", lambda v: KinematicDistribution(v, 1, _rows), (1, None),
     DimensionMismatchError),
    ("KinematicDistribution", "m", lambda v: KinematicDistribution(3, v, _rows), (0, 3),
     DimensionMismatchError),
    ("LinSubspace", "ambient_dim", lambda v: LinSubspace(v, np.eye(2)), (1, None),
     DimensionMismatchError),
    ("LinSubspace.full", "n", lambda v: LinSubspace.full(v), (1, None), DimensionMismatchError),
    ("LinSubspace.trivial", "n", lambda v: LinSubspace.trivial(v), (1, None),
     DimensionMismatchError),
    ("SkewForm.zero", "n", lambda v: SkewForm.zero(v), (0, None), DimensionMismatchError),
    ("is_dirac", "n", lambda v: is_dirac(LinSubspace.full(2), v), (1, None),
     DimensionMismatchError),
    ("harmonic_oscillator", "h", lambda v: builtin.harmonic_oscillator(v), "positive", ValueError),
    ("harmonic_oscillator", "lam", lambda v: builtin.harmonic_oscillator(H, v), "real", ValueError),
    ("harmonic_oscillator_hamiltonian", "h",
     lambda v: builtin.harmonic_oscillator_hamiltonian(v), "positive", ValueError),
    ("harmonic_oscillator_hamiltonian", "lam",
     lambda v: builtin.harmonic_oscillator_hamiltonian(H, v), "real", ValueError),
] + [row for build in (builtin.free_particle, builtin.free_particle_lagrangian,
                       builtin.free_particle_hamiltonian) for row in (
    (build.__name__, "h", lambda v, build=build: build(v, 2), "positive", ValueError),
    (build.__name__, "n", lambda v, build=build: build(H, v), (1, None), ValueError),
    (build.__name__, "mass", lambda v, build=build: build(H, 2, v), "positive", ValueError),
    (build.__name__ + "-entry", "mass", lambda v, build=build: build(H, 2, [1.0, v]), "positive",
     ValueError),
)]


def _bad_values(kind):
    if isinstance(kind, tuple):
        least, most = kind
        return [True, 2.5, 2.0, math.nan, least - 1] + ([most + 1] if most is not None else [])
    return [True, "0.1", math.nan, math.inf, 10 ** 400] + ([0, -1] if kind == "positive" else [])


@pytest.mark.parametrize("name, call, value, error", [
    pytest.param(name, call, value, error,
                 id="%s.%s=%s" % (owner, name, "10**400" if value == 10 ** 400 else repr(value)))
    for owner, name, call, kind, error in ARGUMENTS for value in _bad_values(kind)])
def test_every_numeric_argument_keeps_one_rule(name, call, value, error):
    with pytest.raises(error, match="'%s' must be " % name) as info:
        call(value)
    assert type(info.value) is error


def test_a_float32_step_builds_the_float64_oscillator():
    # the builders close over float(h): a float32 h would keep the gradients
    # in float32, whose round-off stalls Newton above the default tol
    h32 = np.float32(0.1)
    q, qp = np.array([0.3]), np.array([0.4])
    for build in (builtin.harmonic_oscillator, builtin.harmonic_oscillator_hamiltonian):
        narrow, wide = build(h32), build(float(h32))
        for got, want in zip(narrow.slots(), wide.slots()):
            assert got(q, qp).dtype == np.float64
            assert got(q, qp).tobytes() == want(q, qp).tobytes()
    system = builtin.harmonic_oscillator(h32)
    assert run_trajectory(system, builtin.lagrangian_seed(system, [0.0], [0.1]), 100).steps == 100
