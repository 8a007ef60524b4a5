"""The package's public surface: every exported name resolves, once, every numeric
argument keeps the one rule of its kind, every guard raises its typed error, a user
result that is not real numbers ends in a typed error, and no module casts an array
to float outside ``linalg._real_array`` or multiplies with ``@``."""

import ast
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import diracmech
from diracmech import (
    DimensionMismatchError,
    DiscreteConstraint,
    DiscreteCurve,
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteSystem,
    EvaluationError,
    KinematicDistribution,
    LinSubspace,
    PontryaginPoint,
    SkewForm,
    SolverOptions,
    StepFailureError,
    Trajectory,
    UnsupportedOperationError,
    builtin,
    check_initial_data,
    is_dirac,
    newton_solve,
    run_trajectory,
    step_hamiltonian,
    step_lagrangian,
)
from diracmech.cli import parse_config
from diracmech.errors import ConfigError
from diracmech.linalg import orthonormal_columns
from diracmech.systems import central_difference, jacobian_columns

ComplexWarning = getattr(np, "exceptions", np).ComplexWarning

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
_OSC_HAM = builtin.harmonic_oscillator_hamiltonian(H)
_SEED = builtin.lagrangian_seed(_OSC, [0.0], [0.1])


def _ld(q, qp):
    return float((qp - q) @ (qp - q))


def _rows(q):
    return np.array([[1.0, 0.0, 0.0]])


def _phi(q, qp):
    return np.array([qp[0] - q[0]])


# pair constraints in the plane whose value and jacobian2 read q and q+ before
# anything is called: with an analytic jac2, with a finite-difference one, and md = 0
_PAIRS = {"analytic": DiscreteConstraint(2, 1, _phi, lambda q, qp: np.array([[1.0, 0.0]])),
          "fd": DiscreteConstraint(2, 1, _phi), "md0": DiscreteConstraint(2, 0)}


def _pair_call(con, method, name):
    """con.<method>(q, q+) with the value in place of ``name`` and a good vector in the other."""
    if name == "q":
        return lambda v: getattr(con, method)(v, np.ones(2))
    return lambda v: getattr(con, method)(np.zeros(2), v)


# (where, argument, a call with the value in its place)
_PAIR_CALLS = [("%s.%s.%s" % (kind, method, name), name, _pair_call(con, method, name))
               for kind, con in _PAIRS.items() for method in ("value", "jacobian2")
               for name in ("q", "qplus")]


# (owner, argument, a call with the value in its place, what the argument is:
# the least count and, for md and m, the most, or "real" or "positive", or a
# list of the values to try, and the class that rejects it); the dimensions
# of the system classes raise DimensionMismatchError, every other argument a
# plain ValueError
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
    # Python prints no int of more than 4300 digits
    ("DiscreteConstraint", "md", lambda v: DiscreteConstraint(3, v, _ld),
     [10 ** 5000, -10 ** 5000], DimensionMismatchError),
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
    (build.__name__ + "-shape", "mass", lambda v, build=build: build(H, 2, v),
     [[1.0, [2.0, 3.0]], [1.0, 2.0, 3.0]], ValueError),
)] + [
    ("Trajectory", "steps",
     lambda v: Trajectory(DiscreteCurve([_SEED]), (), "x", v, SolverOptions()), (0, None),
     ValueError),
]


def _bad_values(kind):
    if isinstance(kind, list):
        return kind
    if isinstance(kind, tuple):
        least, most = kind
        return [True, 2.5, 2.0, math.nan, least - 1] + ([most + 1] if most is not None else [])
    return [True, "0.1", math.nan, math.inf, 10 ** 400] + ([0, -1] if kind == "positive" else [])


def _label(value) -> str:
    if isinstance(value, int) and abs(value) >= 10 ** 400:
        return "%s10**%d" % ("-" if value < 0 else "", round(math.log10(abs(value))))
    return repr(value)


@pytest.mark.parametrize("name, call, value, error", [
    pytest.param(name, call, value, error, id="%s.%s=%s" % (owner, name, _label(value)))
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


# (where, a call that breaks one guard, the class it raises, its message)
GUARDS = [
    ("bundle.annihilator-required", lambda: KinematicDistribution(3, 1), ValueError,
     "an annihilator function is required when m > 0"),
    ("bundle.annihilator-shape",
     lambda: KinematicDistribution(3, 1, lambda q: np.ones((2, 3))).matrix(np.zeros(3)),
     DimensionMismatchError, r"annihilator returned shape \(2, 3\), expected \(1, 3\)"),
    ("cli.config-object", lambda: parse_config("[1, 2]"), ConfigError,
     "config must be a JSON object"),
    ("linalg.orthonormal-columns-2d", lambda: orthonormal_columns(np.ones(3)),
     DimensionMismatchError, r"expected a 2-d matrix, got shape \(3,\)"),
    ("linalg.basis-shape", lambda: LinSubspace(3, np.ones((2, 2))), DimensionMismatchError,
     r"basis shape \(2, 2\) does not match ambient dimension 3"),
    ("linalg.skew-square", lambda: SkewForm(np.zeros((2, 3))), DimensionMismatchError,
     r"two-form matrix must be square, got \(2, 3\)"),
    ("stepper.trajectory-second-order",
     lambda: Trajectory(DiscreteCurve([PontryaginPoint([0.0], [0.0], [0.1]),
                                       PontryaginPoint([0.2], [0.0], [0.3])]),
                        (), "gap", 0, SolverOptions()),
     ValueError, "trajectory curve violates the second-order condition"),
    ("stepper.trajectory-records",
     lambda: Trajectory(DiscreteCurve([_SEED]), (), "short", 1, SolverOptions()), ValueError,
     "expected 1 diagnostic records, got 0"),
    # the one options rule names the argument it reads: the field of a
    # Trajectory, and the parameter of every entry point
    ("stepper.trajectory-options",
     lambda: Trajectory(DiscreteCurve([_SEED]), (), "x", 0, "not options"),
     UnsupportedOperationError, "^options must be a SolverOptions or None, got str$"),
    ("stepper.run-trajectory-opts", lambda: run_trajectory(_OSC, _SEED, 3, "not options"),
     UnsupportedOperationError, "^opts must be a SolverOptions or None, got str$"),
    ("stepper.newton-solve-opts",
     lambda: newton_solve(lambda x: x - 1.0, None, np.zeros(1), "not options"),
     UnsupportedOperationError, "^opts must be a SolverOptions or None, got str$"),
    ("stepper.hamiltonian-seed",
     lambda: run_trajectory(_OSC_HAM, 0.5, 3),
     UnsupportedOperationError, r"Hamiltonian trajectories start from a \(q0, p0\) pair"),
    ("systems.phi-required", lambda: DiscreteConstraint(3, 1), ValueError,
     "a constraint function is required when md > 0"),
    ("systems.dimensions",
     lambda: DiscreteSystem.from_lagrangian(DiscreteLagrangian(3, _ld),
                                            KinematicDistribution.unconstrained(2)),
     DimensionMismatchError,
     "system dimension 3, distribution dimension 2, constraint dimension 3"),
    # a system reads its distribution and constraint by the rule that reads
    # its generator, through the constructor and both named builders
    ("systems.dist-type", lambda: DiscreteSystem(_OSC.lagrangian, dist="x"),
     UnsupportedOperationError, "^expected a KinematicDistribution, got str$"),
    ("systems.constraint-type", lambda: DiscreteSystem(_OSC.lagrangian, constraint=3),
     UnsupportedOperationError, "^expected a DiscreteConstraint, got int$"),
    ("systems.from-lagrangian-dist-type",
     lambda: DiscreteSystem.from_lagrangian(_OSC.lagrangian, "x"),
     UnsupportedOperationError, "^expected a KinematicDistribution, got str$"),
    ("systems.from-hamiltonian-constraint-type",
     lambda: DiscreteSystem.from_hamiltonian(_OSC_HAM.hamiltonian, constraint=3),
     UnsupportedOperationError, "^expected a DiscreteConstraint, got int$"),
    ("systems.point-dimension",
     lambda: check_initial_data(_OSC, PontryaginPoint([0.0, 1.0], [0.0, 0.0], [0.1, 1.0])),
     DimensionMismatchError, "point dimension 2, system dimension 1"),
    ("stepper.hamiltonian-seed-triple",
     lambda: run_trajectory(_OSC_HAM, ([0.0], [1.0], [2.0]), 3),
     UnsupportedOperationError, r"Hamiltonian trajectories start from a \(q0, p0\) pair"),
    ("linalg.flat-length", lambda: SkewForm.zero(2).flat(np.ones(3)), DimensionMismatchError,
     r"v has shape \(3,\), expected \(2,\)"),
    ("linalg.value-length", lambda: SkewForm.zero(2).value(np.ones(2), [1.0]),
     DimensionMismatchError, r"w has shape \(1,\), expected \(2,\)"),
] + [
    ("systems.constraint-length.%s" % where, lambda call=call: call(np.ones(3)),
     DimensionMismatchError, r"%s has shape \(3,\), expected \(2,\)" % name)
    for where, name, call in _PAIR_CALLS
]


def _seed_entries(lagrangian, seed):
    """A run and a direct step of the oscillator of either kind, each from ``seed``."""
    if lagrangian:
        return [("run", lambda: run_trajectory(_OSC, seed, 3)),
                ("step", lambda: step_lagrangian(_OSC, seed))]
    return [("run", lambda: run_trajectory(_OSC_HAM, seed, 3)),
            ("step", lambda: step_hamiltonian(_OSC_HAM, *seed))]


# a bad seed is checked at one site, the run's engine, so every entry that
# builds one raises the same typed error with the same message
GUARDS += [
    ("stepper.%s.%s" % (where, entry), call, error, message)
    for where, lagrangian, seed, error, message in [
        ("lagrangian-seed-type", True, ([0.0], [0.1]), UnsupportedOperationError,
         "expected a PontryaginPoint, got tuple"),
        ("lagrangian-seed-dimension", True,
         PontryaginPoint([0.0, 1.0], [0.0, 0.0], [0.1, 1.0]), DimensionMismatchError,
         "point dimension 2, system dimension 1"),
        ("hamiltonian-seed-dimension", False, ([0.0, 1.0], [1.0]), DimensionMismatchError,
         r"q has shape \(2,\), expected \(1,\)"),
        ("hamiltonian-seed-nan", False, ([0.0], [np.nan]), ValueError,
         "q and p entries must all be finite"),
        ("hamiltonian-seed-inf", False, ([np.inf], [1.0]), ValueError,
         "q and p entries must all be finite"),
    ]
    for entry, call in _seed_entries(lagrangian, seed)]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(call, error, message, id=where) for where, call, error, message in GUARDS])
def test_each_guard_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


# what a user callable may wrongly return, and a caller wrongly pass: none of
# it converts, so no value is cut to its real part and no numpy error escapes
NOT_REAL = [
    pytest.param("0.5", id="string"),
    pytest.param(object(), id="object"),
    pytest.param({"q": 0.5}, id="dict"),
    pytest.param([0.5, [0.5, 0.5]], id="ragged"),
    pytest.param(np.array([0.3 + 1j]), id="complex-array"),
    pytest.param([0.3 + 1j], id="complex-list"),
    pytest.param(np.complex128(0.3), id="complex-scalar"),
    pytest.param(np.array([np.complex128(0.3)], dtype=object), id="complex-object"),
    pytest.param(np.array([True]), id="bool"),
    # numpy promotes a bool among numbers to their type
    pytest.param([0.5, True], id="bool-list"),
    pytest.param(np.array([0.5, np.True_], dtype=object), id="bool-object"),
    # a 0-d array is read by its item, as numpy reads it
    pytest.param([0.5, np.array(True)], id="bool-0d-in-list"),
]


def _turning(f, bad, after):
    """f for its first ``after`` calls, then ``bad`` on every later call."""
    calls = []

    def turned(*args):
        calls.append(None)
        return bad if len(calls) > after else f(*args)

    return turned


def _typed_failure(system, seed, steps=10):
    """The StepFailureError of a run that a user result stops, after checking it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StepFailureError) as info:
            run_trajectory(system, seed, steps)
    assert [w.message for w in caught if issubclass(w.category, ComplexWarning)] == []
    failure = info.value
    assert type(failure.__cause__) is EvaluationError
    # the failing step is not the first, so the partial trajectory holds steps
    assert failure.step_index >= 1 and failure.trajectory.steps == failure.step_index
    return failure


def _oscillator(lagrangian, replace):
    """The oscillator of either kind, built with ``replace`` applied to its
    generating function and its two analytic slot gradients, and its seed."""
    if lagrangian:
        gen = _OSC.lagrangian
        f, grads = replace(gen.Ld, gen.d1, gen.d2)
        system = DiscreteSystem.from_lagrangian(DiscreteLagrangian(1, f, *grads, validate=False))
        return system, builtin.lagrangian_seed(system, [0.0], [0.1])
    gen = _OSC_HAM.hamiltonian
    f, grads = replace(gen.Hd, gen.dq, gen.dp)
    system = DiscreteSystem.from_hamiltonian(DiscreteHamiltonian(1, f, *grads, validate=False))
    return system, ([0.0], [1.0])


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("lagrangian, block", [(True, 0), (True, 1), (False, 0), (False, 1)],
                         ids=["d1", "d2", "dq", "dp"])
def test_an_analytic_gradient_that_is_not_real_fails_its_step(lagrangian, block, bad):
    def replace(f, *grads):
        grads = list(grads)
        grads[block] = _turning(grads[block], bad, 6)
        return f, grads

    failure = _typed_failure(*_oscillator(lagrangian, replace))
    assert "analytic gradient for block %d failed" % block in str(failure)


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("lagrangian", [True, False], ids=["L", "H"])
def test_an_fd_only_generating_function_that_is_not_real_fails_its_step(lagrangian, bad):
    failure = _typed_failure(*_oscillator(
        lagrangian, lambda f, *grads: (_turning(f, bad, 40), (None, None))))
    assert "finite-difference gradient for block" in str(failure)


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("which, after, message", [
    # the first step calls phi 2n = 6 times more, for the jac2 check
    ("phi", 20, "constraint evaluation failed"), ("jac2", 5, "constraint Jacobian failed"),
    ("annihilator", 5, "annihilator evaluation failed")], ids=["phi", "jac2", "annihilator"])
def test_a_constraint_result_that_is_not_real_fails_its_step(which, after, message, bad):
    nh = builtin.nonholonomic_particle(H)
    parts = {"phi": nh.constraint.phi, "jac2": nh.constraint._jac2,
             "annihilator": nh.dist.annihilator}
    parts[which] = _turning(parts[which], bad, after)
    system = DiscreteSystem.from_lagrangian(
        nh.lagrangian, KinematicDistribution(3, 1, parts["annihilator"]),
        DiscreteConstraint(3, 1, parts["phi"], parts["jac2"]))
    q0 = np.array([0.0, 0.5, 0.0])
    seed = builtin.lagrangian_seed(nh, q0, q0 + H * np.array([1.0, 0.2, 0.5]))
    assert message in str(_typed_failure(system, seed))



@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("name, call", [
    ("q0", lambda v: builtin.lagrangian_seed(_OSC, v, [0.31])),
    ("q1", lambda v: builtin.lagrangian_seed(_OSC, [0.3], v)),
    ("q", lambda v: run_trajectory(_OSC_HAM, (v, [0.1]), 3)),
    ("p", lambda v: run_trajectory(_OSC_HAM, ([0.3], v), 3)),
    ("q", lambda v: step_hamiltonian(_OSC_HAM, v, [0.1])),
    ("p", lambda v: step_hamiltonian(_OSC_HAM, [0.3], v)),
    ("qplus", lambda v: PontryaginPoint([0.3], [0.1], v)),
], ids=["lagrangian_seed.q0", "lagrangian_seed.q1", "run_trajectory.q", "run_trajectory.p",
        "step_hamiltonian.q", "step_hamiltonian.p", "PontryaginPoint.qplus"])
def test_a_seed_that_is_not_real_is_named(name, call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        with pytest.raises(ValueError,
                           match="'%s' must be a vector of real numbers" % name) as info:
            call(bad)
    assert type(info.value) is ValueError


# a one-row distribution on the line, whose q is checked before A(q) is evaluated
_LINE = KinematicDistribution(1, 1, lambda q: np.ones((1, 1)))


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("name, call", [
    ("x0", lambda v: newton_solve(lambda x: x - 1.0, None, v)),
    ("jac(x)", lambda v: newton_solve(lambda x: x - 1.0, lambda x: v, np.zeros(1))),
    # real at x0, and not real where its forward-difference Jacobian evaluates it
    ("residual", lambda v: newton_solve(_turning(lambda x: x - 1.0, v, 1), None, np.zeros(1))),
    ("q", lambda v: _LINE.matrix(v)),
    ("q", lambda v: _LINE.project_ker(v, [1.0])),
] + [(name, call) for _, name, call in _PAIR_CALLS] + [
    ("x", lambda v: jacobian_columns(lambda x: x, v)),
    ("args", lambda v: central_difference(_ld, (v, np.ones(1)), 0)),
    ("args", lambda v: central_difference(_ld, (np.zeros(1), v), 0)),
    ("mat", lambda v: orthonormal_columns(v)),
    ("basis", lambda v: LinSubspace(1, v)),
    ("mat", lambda v: SkewForm(v)),
    ("v", lambda v: SkewForm.zero(1).flat(v)),
    ("w", lambda v: SkewForm.zero(1).value([0.0], v)),
], ids=["newton_solve.x0", "newton_solve.jac", "newton_solve.fd-residual",
        "KinematicDistribution.matrix.q", "KinematicDistribution.project_ker.q"] + [
    "DiscreteConstraint.%s" % where for where, _, _ in _PAIR_CALLS] + [
    "jacobian_columns.x", "central_difference.args-block", "central_difference.args-held",
    "orthonormal_columns.mat", "LinSubspace.basis", "SkewForm.mat", "SkewForm.flat.v",
    "SkewForm.value.w"])
def test_a_solver_or_distribution_input_that_is_not_real_is_named(name, call, bad):
    # none is cast to float: a complex value would be cut to its real part, a
    # bool read as 0 or 1, and a complex list would escape as a raw TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        with pytest.raises(ValueError, match="'%s' must be (a vector of )?real numbers"
                           % re.escape(name)) as info:
            call(bad)
    assert type(info.value) is ValueError
    assert _LINE._memo is None


_PACKAGE = Path(diracmech.__file__).resolve().parent
_FLOAT_TYPES = {"float", "np.float64", "np.double", "numpy.float64"}


def _float_casts(path: Path) -> list:
    """Each ``dtype=float`` keyword and ``.astype(...)`` call of a module, outside
    linalg._real_array, as 'module:line: source'."""
    tree = ast.parse(path.read_text(), str(path))
    allowed = {id(inner) for node in ast.walk(tree) if path.name == "linalg.py"
               and isinstance(node, ast.FunctionDef) and node.name == "_real_array"
               for inner in ast.walk(node)}
    return ["%s:%d: %s" % (path.name, node.lineno, ast.unparse(node))
            for node in ast.walk(tree) if id(node) not in allowed and (
                isinstance(node, ast.keyword) and node.arg == "dtype"
                and ast.unparse(node.value) in _FLOAT_TYPES
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype")]


def test_every_array_enters_through_one_rule():
    # a cast beside _real_array would cut a complex entry to its real part and
    # read a bool as 0 or 1, where _real_array raises
    modules = sorted(_PACKAGE.glob("*.py"))
    assert "linalg.py" in {m.name for m in modules}
    assert [cast for m in modules for cast in _float_casts(m)] == []


def _matmuls(path: Path) -> list:
    """Each ``@`` of a module, as 'module:line: source'."""
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d: %s" % (path.name, node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]


def test_every_product_is_one_kernel_call():
    # on the few-entry operands of a step, the matmul ufunc's dispatch costs
    # about as much again as ndarray.dot's one BLAS call, for the same bits
    modules = sorted(_PACKAGE.glob("*.py"))
    assert "stepper.py" in {m.name for m in modules}
    assert [product for m in modules for product in _matmuls(m)] == []


def _subscript_floats(path: Path) -> list:
    """Each ``float(<subscript>)`` call of a module, as 'module:line: source'."""
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d: %s" % (path.name, node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.Subscript)]


def test_every_scalar_leaves_its_array_in_one_call():
    # float(v[0]) builds a numpy scalar before the Python float; v.item() (or
    # one tolist() per loop) builds the float in one C call, for the same bits
    modules = sorted(_PACKAGE.glob("*.py"))
    assert "builtin.py" in {m.name for m in modules}
    assert [read for m in modules for read in _subscript_floats(m)] == []
