"""What each entry point imports, each checked in a fresh interpreter.

``import fraclab`` and ``import fraclab.cli`` load no numpy, and the
numeric subcommands finish importing the package in ``build_scenario``,
so the import cost falls in set-up and not in the run that follows it.
That ``certify`` runs on the standard library alone is the row
``certify-no-numpy`` of ``tools/cli_cases.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraclab as fl

from conftest import CONFIGS

SRC = Path(fl.__file__).resolve().parents[1]


def _python(code, *args, cwd):
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         cwd=cwd, capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_package_and_cli_import_no_numpy(tmp_path):
    code = ("import sys, fraclab, fraclab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    assert _python(code, cwd=tmp_path) == "[]"


def test_lazy_names_resolve():
    assert fl.solve_forward is sys.modules["fraclab.forward"].solve_forward
    assert "certify_bound" in dir(fl)
    with pytest.raises(AttributeError, match="no_such_name"):
        fl.no_such_name


# numpy itself loads these subpackages on first attribute access; the
# run phase first touches them (np.fft in every numeric command,
# np.random where noise is drawn), as it did before the package loaded
# lazily, and importing numpy.random in set-up would charge 10-30 ms to
# commands that never draw noise
NUMPY_LAZY = {"numpy.fft", "numpy.random"}


@pytest.mark.parametrize("cmd, cfg", [("forward", "s1_forward"),
                                      ("ucp-scan", "s1_ucp_scan"),
                                      ("stability", "s1_stability")])
def test_numeric_commands_import_nothing_after_build_scenario(tmp_path, cmd,
                                                              cfg):
    code = ("import json, sys\n"
            "import fraclab.cli as cli\n"
            "build, seen = cli.build_scenario, []\n"
            "def marked(*args, **kwargs):\n"
            "    sc = build(*args, **kwargs)\n"
            "    seen.append(set(sys.modules))\n"
            "    return sc\n"
            "cli.build_scenario = marked\n"
            "rc = cli.main(sys.argv[1:])\n"
            "late = set(sys.modules) - seen[0]\n"
            "print(json.dumps([rc, sorted(m for m in late if m.split('.')[0]\n"
            "                                   in ('numpy', 'fraclab'))]))\n")
    line = _python(code, cmd, "--config", CONFIGS / f"{cfg}.cfg",
                   "--out", "out", cwd=tmp_path)
    rc, late = json.loads(line)
    assert rc == 0
    assert not [m for m in late if m.startswith("fraclab")], late
    assert {".".join(m.split(".")[:2]) for m in late} <= NUMPY_LAZY, late
