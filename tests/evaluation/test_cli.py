"""Tests for the ``python -m repro.evaluation`` command-line harness."""

import pytest

from repro.errors import ConfigurationError
from repro.evaluation.__main__ import main
from repro.evaluation.bench import run_profile


def test_unknown_figure_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--figure", "99"])
    assert excinfo.value.code == 2
    assert "unknown figure" in capsys.readouterr().err


def test_unknown_scale_rejected():
    with pytest.raises(SystemExit):
        main(["--scale", "enormous"])


def test_single_figure_smoke_run(capsys, tmp_path):
    code = main(["--figure", "2", "--scale", "smoke", "--quiet",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Table 1" in out
    assert "Figure 2" in out
    assert "SHAPE CHECK: OK" in out
    assert (tmp_path / "figure_2.csv").exists()
    csv_lines = (tmp_path / "figure_2.csv").read_text().splitlines()
    assert csv_lines[0] == "x,algorithm,throughput,ci_half_width"
    assert len(csv_lines) > 3


def test_shared_sweep_runs_once(capsys):
    """Figures 2 and 3 share the clients sweep: one 'Running sweep' line."""
    code = main(["--figure", "2", "3", "--scale", "smoke", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("Running sweep") == 1
    assert "Figure 2" in out and "Figure 3" in out


def test_chart_flag_prints_ascii(capsys):
    code = main(["--figure", "2", "--scale", "smoke", "--quiet", "--chart"])
    out = capsys.readouterr().out
    assert code == 0
    assert "S=strong-session" in out


def test_profile_prints_hot_function_tables(capsys):
    code = main(["--profile", "--scale", "smoke", "--profile-top", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cProfile over one run_once per algorithm" in out
    assert "top 5 by internal time" in out
    assert "top 5 by cumulative time" in out


def test_profile_rejects_an_unknown_scale(capsys):
    with pytest.raises(ConfigurationError, match="smok.*smoke"):
        run_profile(scale="smok")
    assert capsys.readouterr().out == ""     # nothing was profiled


def test_progress_lines_by_default(capsys):
    main(["--figure", "2", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert "clients-80-20:" in out       # per-point progress
