"""tools/make_golden.py, the only caller of the three-ball and
boundary-bulk checks, still reproduces the locked values it once wrote to
golden/v1/s1.json."""

import json

import pytest

from conftest import GOLDEN_DIR


def test_make_golden_reproduces_locked_values(make_golden, tmp_path,
                                              monkeypatch):
    # the tool writes its output here, never under golden/
    monkeypatch.setattr(make_golden, "OUT", tmp_path / "s1.json")
    make_golden.main()
    fresh = json.loads((tmp_path / "s1.json").read_text())
    locked = json.loads((GOLDEN_DIR / "s1.json").read_text())
    assert fresh.keys() == locked.keys()
    for key, value in locked.items():
        assert fresh[key] == pytest.approx(value, rel=1e-6), key
