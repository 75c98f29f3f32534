"""Shared fixtures: the reference scenario S1 and its solved objects.

S1 is ``configs/s1_forward.cfg``: omega = [-1, 1], w = [2, 3], s = 1/2,
box halfwidth 32, 4096 nodes, data bump centered in the window.  Its q1
is the bump potential and its q2, left at amplitude 0, is zero.
Everything is session-scoped; the objects are immutable, so sharing
across tests is safe.

A test that needs a variant of a shipped config writes one with
``write_config``, which edits lines the way the rows of
``tools/cli_cases.py`` do, and builds it with ``scenario`` of
``tools/make_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

import fraclab as fl

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_DIR = ROOT / "golden" / "v1"
# the scripts under tools/ import each other, and the tests them, by name
sys.path.insert(0, str(ROOT / "tools"))

from cli_cases import config_text  # noqa: E402
from make_golden import scenario  # noqa: E402,F401


def write_config(path, config, *edits, append=""):
    """Write configs/<config> to path, each edit ``key = value`` in place
    of the one line of that key, append at the end; return path."""
    path.write_bytes(config_text(config, edits, append.encode()))
    return path


@pytest.fixture(scope="session")
def s1_scenario():
    return scenario("s1_forward.cfg")


@pytest.fixture(scope="session")
def s1_r2_scenario():
    """S1 at twice the nodes, for refinement checks."""
    return scenario("s1_forward.cfg", resolution=2)


@pytest.fixture(scope="session")
def s1(s1_scenario):
    geom = s1_scenario.geom
    return geom, geom.spec


@pytest.fixture(scope="session")
def s1_op(s1_scenario):
    return s1_scenario.op


@pytest.fixture(scope="session")
def s1_f(s1_scenario):
    return s1_scenario.f


@pytest.fixture(scope="session")
def s1_q0(s1_scenario):
    return s1_scenario.q2


@pytest.fixture(scope="session")
def s1_qbump(s1_scenario):
    return s1_scenario.q1


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
