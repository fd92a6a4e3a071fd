"""Tests for the ``python -m repro.faults`` command-line harness."""

import pytest

import repro.faults.__main__ as cli
from repro.errors import NoLiveSecondariesError
from repro.faults.__main__ import main


@pytest.mark.parametrize("count", ["0", "-3"])
def test_a_sweep_of_no_seeds_is_a_usage_error(count, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--seeds", count])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "--seeds must be at least 1" in captured.err
    assert "chaos runs passed" not in captured.out


def test_single_seed_quiet_run_prints_only_the_tally(capsys):
    assert main(["--seed", "3", "--quiet"]) == 0
    assert capsys.readouterr().out == "1/1 chaos runs passed\n"


def test_an_unplannable_storm_is_a_usage_error(capsys):
    """A random plan needs two secondaries; one is reported as a usage
    error, not a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--seed", "0", "--secondaries", "1"])
    assert excinfo.value.code == 2
    assert ">= 2 secondaries" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--drop", "1.5"], "drop probability must be in [0, 1]"),
    (["--jitter", "-1"], "jitter must be >= 0"),
    (["--reorder", "2"], "reorder probability must be in [0, 1]"),
    (["--overload", "--admission-rate", "0"], "admission rate must be > 0"),
    (["--ops", "-3"], "--ops must be >= 0, got -3"),
    (["--partitions", "-1"],
     "secondary_outages and partitions must be >= 0"),
])
def test_bad_storm_input_is_a_usage_error(flags, message, capsys):
    """Out-of-range fault, admission and workload flags end in a usage
    error naming the problem, never a traceback or a silent run."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--seed", "1", *flags])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "chaos runs passed" not in captured.out


def test_a_storm_that_raises_fails_its_seed_and_the_sweep_goes_on(
        monkeypatch, capsys):
    """A library error inside one seed's run counts that seed as failed
    and names the error; the other seeds still run and the sweep exits
    1, as for any failing seed."""
    real_run_chaos = cli.run_chaos
    ran = []

    def run_chaos(config):
        if config.seed == 1:
            raise NoLiveSecondariesError("no live full-coverage secondary")
        ran.append(config.seed)
        return real_run_chaos(config)

    monkeypatch.setattr(cli, "run_chaos", run_chaos)
    assert main(["--seeds", "3", "--quiet"]) == 1
    out = capsys.readouterr().out
    assert ran == [0, 2]
    assert ("seed 1: FAILED (NoLiveSecondariesError: "
            "no live full-coverage secondary)") in out
    assert out.endswith("2/3 chaos runs passed\n")
