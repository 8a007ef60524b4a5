"""The package's public surface: every exported name resolves, once."""

import os
import subprocess
import sys
from pathlib import Path

import diracmech

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
