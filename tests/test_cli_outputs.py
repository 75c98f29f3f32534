"""tools/cli_outputs.py records every output of each CLI run, so two runs
of the same sources must give identical trees."""

from pathlib import Path

import pytest

import cli_outputs as tool


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_two_runs_give_identical_trees(tmp_path):
    subset = ["--configs", "certify_example.cfg,s1_forward.cfg",
              "--commands", "forward,certify", "--resolutions", "1"]
    # OUT_DIR may come before or after the list options
    assert tool.main([str(tmp_path / "a")] + subset) == 0
    assert tool.main(subset + [str(tmp_path / "b")]) == 0
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert a == b
    rc = {p.parent.name: v for p, v in a.items() if p.name == "rc"}
    # certify needs the cert.* keys and forward the f block
    assert rc == {"certify_example.certify.r1": b"0\n",
                  "certify_example.forward.r1": b"2\n",
                  "s1_forward.certify.r1": b"2\n",
                  "s1_forward.forward.r1": b"0\n"}
    assert Path("s1_forward.forward.r1", "u.csv") in a
    assert Path("certify_example.certify.r1", "certificate.txt") in a


@pytest.mark.parametrize("option, value, unknown", [
    ("--configs", "certify_example.cfg,no_such.cfg", "no_such.cfg"),
    ("--commands", "forward,no-such-command", "no-such-command"),
])
def test_unknown_name_exits_2_before_any_run(tmp_path, capsys, option,
                                             value, unknown):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        tool.main([option, value, "--resolutions", "1", str(out)])
    assert exc.value.code == 2
    assert unknown in capsys.readouterr().err
    assert not out.exists()


def test_compare_reports_numeric_deviation_and_other_differences(tmp_path,
                                                                  capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    for root, gamma in ((before, "0.5"), (after, "0.50000000001")):
        (root / "s1.stability.r4").mkdir(parents=True)
        (root / "s1.stability.r4" / "fit.txt").write_text(
            f"# s1 r4\ngamma_hat={gamma}\nc_hat=-1.5e-3\nnote=nan\n")
    assert tool.main(["--compare", str(before), str(after)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["s1.stability.r4/fit.txt 2e-11", "max_rel_dev 2e-11"]
    # a name, a field count or a file on one side only is not rounding
    (after / "s1.stability.r4" / "fit.txt").write_text(
        "# s1 r2\ngamma_hat=0.5\nc_hat=-1.5e-3\nnote=nan\n")
    (after / "extra.txt").write_text("1\n")
    assert tool.main(["--compare", str(before), str(after)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["max_rel_dev 0",
                   "DIFFERS extra.txt: only in after",
                   "DIFFERS s1.stability.r4/fit.txt: text or number of "
                   "fields differs"]
