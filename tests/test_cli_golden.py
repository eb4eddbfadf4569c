"""The CLI's outputs, byte for byte, against the committed goldens of
``cli_golden.py``."""

import pytest

import cli_golden


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return cli_golden.run_all(tmp_path_factory.mktemp("cli-golden"))


@pytest.fixture(scope="module")
def golden():
    return cli_golden.read_golden()


@pytest.mark.parametrize("run", sorted(cli_golden.RUNS))
def test_outputs_match_golden(outputs, golden, run):
    got, want = outputs[run], golden[run]
    assert sorted(got) == sorted(want)
    for name, body in want.items():
        # Line lists, kept ends and all, so a failure shows the first line that moved.
        assert got[name].decode().splitlines(True) == body.decode().splitlines(True), name
