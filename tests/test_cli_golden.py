"""The CLI's outputs, byte for byte, against the committed goldens of
``cli_golden.py``."""

import pytest

import cli_golden
from conftest import force_fork


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


@pytest.fixture(scope="module")
def forked_outputs(tmp_path_factory):
    """The outputs with CSV ingest and the scores.csv writer in forked
    children, as on a large input on a host with a second CPU."""
    with pytest.MonkeyPatch.context() as patch:
        pids = force_fork(patch)
        outputs = cli_golden.run_all(tmp_path_factory.mktemp("cli-golden-forked"))
    assert len(pids) >= 2 * (len(cli_golden.RUNS) - 1)
    return outputs


@pytest.mark.parametrize("run", sorted(cli_golden.RUNS))
def test_forked_outputs_match_golden(forked_outputs, golden, run):
    assert forked_outputs[run] == golden[run]
