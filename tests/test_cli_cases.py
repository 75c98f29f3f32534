"""Every row of tools/cli_cases.py, the CLI's exit-code contract, each in
a process of its own."""

import pytest

import cli_cases


@pytest.fixture(scope="module")
def broken(tmp_path_factory):
    return cli_cases.run_table(cli_cases.ROOT / "src",
                               tmp_path_factory.mktemp("cli_cases"))


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda c: c.name)
def test_cli_case(broken, case):
    assert broken[case.name] == []
