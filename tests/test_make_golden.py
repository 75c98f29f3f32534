"""tools/make_golden.py, the only caller of some diagnostics, still
reproduces the locked values it once wrote to golden/v1/s1.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_make_golden_reproduces_locked_values(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_golden", ROOT / "tools" / "make_golden.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # the tool writes its output here, never under golden/
    monkeypatch.setattr(tool, "OUT", tmp_path / "s1.json")
    tool.main()
    fresh = json.loads((tmp_path / "s1.json").read_text())
    locked = json.loads((ROOT / "golden" / "v1" / "s1.json").read_text())
    assert fresh.keys() == locked.keys()
    for key, value in locked.items():
        assert fresh[key] == pytest.approx(value, rel=1e-6), key
