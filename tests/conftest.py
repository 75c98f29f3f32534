"""Shared fixtures: the reference scenario S1 and its solved objects.

S1: omega = [-1, 1], w = [2, 3], s = 1/2, box halfwidth 32, 4096 nodes,
data bump centered in the window.  Everything is session-scoped; the
objects are immutable, so sharing across tests is safe.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab as fl

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "golden" / "v1"
# the scripts under tools/ import each other, and the tests them, by name
sys.path.insert(0, str(ROOT / "tools"))


@pytest.fixture(scope="session")
def s1():
    geom = fl.build_geometry(omega=(-1.0, 1.0), w=(2.0, 3.0), s=0.5,
                             box_halfwidth=32.0, n_super=4096,
                             omega_prime=(-0.75, 0.75))
    return geom, geom.spec


@pytest.fixture(scope="session")
def s1_op(s1):
    geom, spec = s1
    return fl.assemble_dense(geom)


@pytest.fixture(scope="session")
def s1_f(s1):
    geom, spec = s1
    return fl.sample_profile(geom, fl.bump_profile(2.5, 0.4), "w",
                             mode="average")


@pytest.fixture(scope="session")
def s1_q0(s1):
    geom, spec = s1
    zeros = np.zeros(spec.n_super)
    return fl.make_potential(
        geom, fl.make_grid_function(geom, zeros, "omega_prime"))


@pytest.fixture(scope="session")
def s1_qbump(s1):
    geom, spec = s1
    gf = fl.sample_profile(geom, fl.bump_profile(0.0, 0.5, 0.5),
                           "omega_prime", mode="average")
    return fl.make_potential(geom, gf)


@pytest.fixture(scope="session")
def s1_solution(s1_op, s1_f, s1_q0):
    return fl.solve_forward(s1_op, s1_q0, s1_f)


@pytest.fixture(scope="session")
def s1_field(s1, s1_solution):
    geom, spec = s1
    return fl.extend(s1_solution.u, geom.s)


@pytest.fixture(scope="session")
def s1_field_tall(s1, s1_solution):
    geom, spec = s1
    y = fl.default_y_grid(geom.s, height=8.5, n_levels=64)
    return fl.extend(s1_solution.u, geom.s, y)


@pytest.fixture(scope="session")
def golden():
    path = GOLDEN_DIR / "s1.json"
    if not path.exists():
        pytest.skip("golden file missing; run tools/make_golden.py")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def make_golden():
    """tools/make_golden.py as a module; it holds the three-ball and
    boundary-bulk checks, which no command runs."""
    import make_golden
    return make_golden
