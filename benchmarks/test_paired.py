"""The paired runner's arithmetic and its one refusal (no benchmark is
run: ``compare`` is a pure function of two lists)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired", Path(__file__).resolve().parent / "paired.py")
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)


def test_a_clear_gain_on_a_higher_is_better_metric():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [value * 1.25 for value in parent]
    row = paired.compare(parent, change, "higher", 0.2)
    assert (row["won"], row["lost"], row["pairs"]) == (10, 0, 10)
    assert row["resolved"] and row["verdict"] == "gain"
    assert row["ratio"] == pytest.approx(1.25)
    # The same numbers on a lower-is-better metric are a regression.
    assert paired.compare(parent, change, "lower", 0.2)["verdict"] \
        == "worse, past bound"


def test_a_resolved_decline_is_judged_against_the_metrics_bound():
    """+0.2 % peak RSS is resolved on a tight parent, yet well inside a
    5 % bound; the same decline against a 0.1 % bound is a regression."""
    parent = [175.3, 175.4, 175.5, 175.4, 175.3, 175.5, 175.4, 175.4,
              175.3, 175.5]
    change = [value * 1.002 for value in parent]
    row = paired.compare(parent, change, "lower", 0.05)
    assert row["resolved"] and row["verdict"] == "worse, within bound"
    assert paired.compare(parent, change, "lower", 0.001)["verdict"] \
        == "worse, past bound"
    # A falling higher-is-better metric is measured the same way.
    slower = [value / 1.002 for value in parent]
    assert paired.compare(parent, slower, "higher", 0.05)["verdict"] \
        == "worse, within bound"


def test_a_gap_inside_the_parents_own_spread_is_unresolved():
    parent = [100, 110, 90, 105, 95, 100, 108, 92, 100, 104]
    change = [value + 1 for value in parent]       # wins every pair
    row = paired.compare(parent, change, "higher", 0.2)
    assert row["won"] == 10 and not row["resolved"]
    assert row["verdict"] == "unresolved"


def test_ties_count_for_neither_side_and_eight_wins_are_too_few():
    parent = [100.0] * 10
    change = [120.0] * 8 + [100.0, 99.0]
    row = paired.compare(parent, change, "higher", 0.2)
    assert (row["won"], row["lost"]) == (8, 1)
    assert row["verdict"] == "better, too few pairs won"


def test_directories_of_different_path_length_are_refused(tmp_path, capsys):
    short, long = tmp_path / "a", tmp_path / "change"
    short.mkdir()
    long.mkdir()
    with pytest.raises(SystemExit):
        paired.main([str(short), str(long), "--workload", "read-scan"])
    assert "path length" in capsys.readouterr().err
