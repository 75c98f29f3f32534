"""What each entry point imports, each checked in a fresh interpreter.

``import fraclab`` and ``import fraclab.cli`` load no numpy, ``certify``
runs on the standard library alone, and the numeric subcommands finish
importing the package in ``build_scenario``, so the import cost falls
in set-up and not in the run that follows it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraclab as fl
from fraclab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


def test_certify_without_numpy(tmp_path):
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from fraclab.cli import main\n"
            "print(main(['certify', '--config', sys.argv[1], '--out', 'blocked']))\n")
    cfg = CONFIGS / "certify_example.cfg"
    assert _python(code, cfg, cwd=tmp_path) == "0"
    assert main(["certify", "--config", str(cfg),
                 "--out", str(tmp_path / "normal")]) == 0
    blocked = sorted(p.name for p in (tmp_path / "blocked").iterdir())
    assert blocked == sorted(p.name for p in (tmp_path / "normal").iterdir())
    for name in blocked:
        assert ((tmp_path / "blocked" / name).read_bytes()
                == (tmp_path / "normal" / name).read_bytes())


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
