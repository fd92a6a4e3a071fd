"""Tests for figure specifications and scales."""

import pytest

from repro.core.guarantees import Guarantee
from repro.errors import ConfigurationError
from repro.evaluation.figures import (
    ALL_FIGURES,
    CLIENTS_SWEEP_80_20,
    SCALEUP_SWEEP_80_20,
    SCALEUP_SWEEP_95_5,
    SCALES,
    Scale,
    figures_for_sweep,
)


def test_every_paper_figure_has_a_spec():
    assert sorted(ALL_FIGURES) == ["2", "3", "4", "5", "6", "7", "8"]


def test_figures_2_3_4_share_clients_sweep():
    for fig in ("2", "3", "4"):
        assert ALL_FIGURES[fig].sweep is CLIENTS_SWEEP_80_20


def test_figures_5_6_7_share_scaleup_sweep():
    for fig in ("5", "6", "7"):
        assert ALL_FIGURES[fig].sweep is SCALEUP_SWEEP_80_20


def test_figure_8_uses_browsing_mix():
    spec = ALL_FIGURES["8"]
    assert spec.sweep is SCALEUP_SWEEP_95_5
    assert spec.sweep.update_tran_prob == 0.05
    assert max(spec.sweep.x_values) == 55


def test_metrics_cover_throughput_and_both_rts():
    metrics = {ALL_FIGURES[f].metric for f in ("2", "3", "4")}
    assert metrics == {"throughput", "read_response_time",
                       "update_response_time"}


def test_clients_sweep_params():
    params = CLIENTS_SWEEP_80_20.params_for(
        150, Guarantee.WEAK_SI, SCALES["full"])
    assert params.num_sec == 5
    assert params.num_clients + params.extra_clients == 150
    assert params.update_tran_prob == 0.20
    assert params.algorithm is Guarantee.WEAK_SI
    assert params.duration == 35 * 60.0


def test_scaleup_sweep_params():
    params = SCALEUP_SWEEP_80_20.params_for(
        11, Guarantee.STRONG_SESSION_SI, SCALES["quick"])
    assert params.num_sec == 11
    assert params.clients_per_secondary == 20
    assert params.duration == SCALES["quick"].duration


def test_bad_sweep_mode_rejected():
    from repro.evaluation.figures import SweepSpec
    bad = SweepSpec(key="bad", mode="nope", x_values=(1,),
                    update_tran_prob=0.2)
    with pytest.raises(ConfigurationError):
        bad.params_for(1, Guarantee.WEAK_SI, SCALES["smoke"])


def test_scale_select_points_keeps_endpoints():
    scale = Scale("s", 60, 10, 1, max_points=3)
    xs = (1, 3, 5, 7, 9, 11, 13, 15)
    selected = scale.select_points(xs)
    assert len(selected) == 3
    assert selected[0] == 1 and selected[-1] == 15


def test_scale_select_points_no_subsampling_when_unset():
    scale = SCALES["full"]
    xs = (1, 2, 3)
    assert scale.select_points(xs) == xs


def test_scale_select_single_point():
    scale = Scale("s", 60, 10, 1, max_points=1)
    assert scale.select_points((1, 5, 9)) == (9,)


def test_full_scale_matches_paper_methodology():
    full = SCALES["full"]
    assert full.duration == 35 * 60.0
    assert full.warmup == 5 * 60.0
    assert full.replications == 5
    assert full.max_points is None


def test_large_scale_preset_registered():
    large = SCALES["large"]
    assert large.duration > SCALES["full"].duration
    assert large.replications >= 1
    # max_points=None: the large preset never subsamples a sweep.
    assert large.max_points is None
    assert large.select_points((1, 2, 3)) == (1, 2, 3)


def test_figures_for_sweep():
    assert {f.figure for f in figures_for_sweep(CLIENTS_SWEEP_80_20)} == \
        {"2", "3", "4"}
    assert {f.figure for f in figures_for_sweep(SCALEUP_SWEEP_95_5)} == {"8"}


def test_expectations_are_documented():
    for spec in ALL_FIGURES.values():
        assert len(spec.expectation) > 30
        assert spec.y_label
        assert spec.x_label
