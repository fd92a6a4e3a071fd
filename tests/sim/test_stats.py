"""Tests for simulation statistics: Welford, CIs, metrics collection."""

import math

import pytest

from repro.sim.stats import (
    ConfidenceInterval,
    MetricsCollector,
    SummaryStats,
)


# ---------------------------------------------------------------------------
# SummaryStats
# ---------------------------------------------------------------------------

def test_summary_stats_mean_variance():
    stats = SummaryStats()
    stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert stats.n == 8
    assert stats.mean == pytest.approx(5.0)
    assert stats.variance == pytest.approx(32.0 / 7)
    assert stats.minimum == 2.0
    assert stats.maximum == 9.0


def test_summary_stats_empty():
    stats = SummaryStats()
    assert stats.mean == 0.0
    assert stats.variance == 0.0


def test_summary_stats_single_value():
    stats = SummaryStats()
    stats.add(3.0)
    assert stats.mean == 3.0
    assert stats.variance == 0.0
    assert stats.ci().half_width == 0.0


def test_ci_matches_scipy_t():
    stats = SummaryStats()
    stats.extend([10.0, 12.0, 9.0, 11.0, 13.0])
    ci = stats.ci()
    # Hand computation: mean 11, s = sqrt(2.5), t(0.975, 4) = 2.7764.
    assert ci.mean == pytest.approx(11.0)
    expected_half = 2.7764451 * math.sqrt(2.5) / math.sqrt(5)
    assert ci.half_width == pytest.approx(expected_half, rel=1e-5)


def test_ci_confidence_level_affects_width():
    stats = SummaryStats()
    stats.extend([1.0, 2.0, 3.0, 4.0])
    narrow = stats.ci(confidence=0.90)
    wide = stats.ci(confidence=0.99)
    assert wide.half_width > narrow.half_width


@pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.5])
def test_ci_rejects_confidence_outside_unit_interval(confidence):
    # t.ppf would answer nan, inf or 0.0 here: a silent half-width.
    stats = SummaryStats()
    stats.extend([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        stats.ci(confidence)
    stats = SummaryStats()
    stats.add(1.0)      # rejected even where no quantile is needed
    with pytest.raises(ValueError):
        stats.ci(confidence)


def test_ci_str():
    ci = ConfidenceInterval(mean=1.5, half_width=0.25, n=5)
    assert "1.500" in str(ci) and "0.250" in str(ci)


def test_welford_matches_batch_computation():
    values = [0.1 * i ** 2 for i in range(50)]
    stats = SummaryStats()
    stats.extend(values)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert stats.mean == pytest.approx(mean)
    assert stats.variance == pytest.approx(var)


# ---------------------------------------------------------------------------
# MetricsCollector
# ---------------------------------------------------------------------------

def test_warmup_completions_discarded():
    collector = MetricsCollector(warmup=100.0)
    collector.record_completion("read", submitted=10.0, completed=50.0)
    collector.record_completion("read", submitted=150.0, completed=151.0)
    assert collector.completions("read") == 1


def test_fast_threshold_throughput():
    collector = MetricsCollector(warmup=0.0, fast_threshold=3.0)
    collector.record_completion("read", 0.0, 1.0)       # 1 s: fast
    collector.record_completion("read", 0.0, 5.0)       # 5 s: slow
    collector.record_completion("update", 8.0, 10.0)    # 2 s: fast
    assert collector.throughput(end_time=10.0) == pytest.approx(0.2)
    assert collector.raw_throughput(end_time=10.0) == pytest.approx(0.3)


def test_throughput_by_class():
    collector = MetricsCollector(warmup=0.0)
    collector.record_completion("read", 0.0, 1.0)
    collector.record_completion("update", 0.0, 1.0)
    assert collector.throughput(end_time=10.0, kind="read") == \
        pytest.approx(0.1)


def test_mean_response_time_per_class():
    collector = MetricsCollector(warmup=0.0)
    collector.record_completion("read", 0.0, 2.0)
    collector.record_completion("read", 10.0, 14.0)
    collector.record_completion("update", 0.0, 1.0)
    assert collector.mean_response_time("read") == pytest.approx(3.0)
    assert collector.mean_response_time("update") == pytest.approx(1.0)
    assert collector.mean_response_time("nothing") == 0.0


def test_blocks_and_aborts_respect_warmup():
    collector = MetricsCollector(warmup=100.0)
    collector.record_block("read", waited=5.0, when=50.0)     # warm-up
    collector.record_block("read", waited=2.0, when=150.0)
    collector.record_abort(when=50.0)
    collector.record_abort(when=150.0)
    assert collector.blocked == {"read": 1}
    assert collector.block_time["read"].mean == pytest.approx(2.0)
    assert collector.aborts == 1
    collector.record_block("read", waited=4.0, when=160.0)
    assert collector.blocked == {"read": 2}
    assert collector.block_time["read"].n == 2
    assert collector.block_time["read"].mean == pytest.approx(3.0)


def test_zero_measured_time():
    collector = MetricsCollector(warmup=100.0)
    assert collector.throughput(end_time=50.0) == 0.0
    assert collector.raw_throughput(end_time=50.0) == 0.0


def test_classes_listing():
    collector = MetricsCollector(warmup=0.0)
    collector.record_completion("update", 0.0, 1.0)
    collector.record_completion("read", 0.0, 1.0)
    assert collector.classes() == ["read", "update"]


# ---------------------------------------------------------------------------
# Percentiles & fast fractions
# ---------------------------------------------------------------------------

def test_percentile_interpolation():
    from repro.sim.stats import percentile
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 25) == pytest.approx(1.75)


def test_percentile_edge_cases():
    from repro.sim.stats import percentile
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_collector_percentiles_and_fast_fraction():
    collector = MetricsCollector(warmup=0.0, fast_threshold=3.0)
    for rt in (1.0, 2.0, 5.0, 10.0):
        collector.record_completion("read", 0.0, rt)
    assert collector.response_time_percentile("read", 50) == \
        pytest.approx(3.5)
    assert collector.response_time_percentile("read", 100) == 10.0
    assert collector.fast_fraction("read") == pytest.approx(0.5)
    assert collector.fast_fraction("absent") == 0.0
    assert collector.response_time_percentile("absent", 50) == 0.0
