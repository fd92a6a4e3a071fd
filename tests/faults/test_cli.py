"""Tests for the ``python -m repro.faults`` command-line harness."""

import pytest

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
