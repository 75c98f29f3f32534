"""Every row of tools/cli_cases.py, the CLI's exit-code contract, each in
a process of its own, and the edit rule that rows and tests share."""

import pytest

import cli_cases


@pytest.fixture(scope="module")
def broken(tmp_path_factory):
    return cli_cases.run_table(cli_cases.ROOT / "src",
                               tmp_path_factory.mktemp("cli_cases"))


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda c: c.name)
def test_cli_case(broken, case):
    assert broken[case.name] == []


def test_edit_must_match_one_line(tmp_path, monkeypatch):
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "twice.cfg").write_bytes(b"seed = 0\nseed = 1\n")
    monkeypatch.setattr(cli_cases, "ROOT", tmp_path)
    assert cli_cases.config_text("twice.cfg", append=b"#\n") == \
        b"seed = 0\nseed = 1\n#\n"
    for edit, hits in (("seed = 2", 2), ("grid.L = 8", 0)):
        with pytest.raises(ValueError, match=f"{edit!r} matches {hits} "):
            cli_cases.config_text("twice.cfg", (edit,))


def test_row_with_a_missing_key_is_broken(tmp_path):
    # s1_forward.cfg holds no sweep.epsilons line; the row runs nothing
    case = cli_cases.Case("missing", "forward", "s1_forward.cfg",
                          ("sweep.epsilons = 1e-3",))
    assert cli_cases.check(case, cli_cases.ROOT / "src", tmp_path) == [
        "edit 'sweep.epsilons = 1e-3' matches 0 config lines"]
    assert not (tmp_path / "missing").exists()
