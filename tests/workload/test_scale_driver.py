"""Tests for the scalable session driver (zipfian keys, shaped arrivals)."""

import dataclasses
from collections import Counter

import pytest

from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.txn import check_completeness, check_strong_session_si, check_weak_si
from repro.workload import (
    SCALE_PRESETS,
    ZipfianKeys,
    arrival_times,
    run_scale_workload,
)


# ---------------------------------------------------------------------------
# Zipfian key chooser
# ---------------------------------------------------------------------------

def test_zipfian_skews_toward_low_ranks():
    rng = RandomStreams(3)["zipf"]
    zipf = ZipfianKeys(100, s=1.2)
    draws = Counter(zipf.draw(rng) for _ in range(5000))
    assert set(draws) <= set(range(100))
    # Rank 0 must dominate the tail decisively under s=1.2.
    assert draws[0] > 10 * max(draws.get(rank, 0) for rank in range(50, 100))
    assert draws[0] > draws[1] > draws[10]


def test_zipfian_zero_skew_is_uniform():
    rng = RandomStreams(4)["zipf"]
    zipf = ZipfianKeys(10, s=0.0)
    draws = Counter(zipf.draw(rng) for _ in range(10_000))
    for rank in range(10):
        assert 800 <= draws[rank] <= 1200    # ~1000 each
    with pytest.raises(ConfigurationError):
        ZipfianKeys(0)
    with pytest.raises(ConfigurationError):
        ZipfianKeys(10, s=-1.0)


# ---------------------------------------------------------------------------
# Arrival patterns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pattern", ["uniform", "flash-crowd", "diurnal"])
def test_arrivals_sorted_and_in_horizon(pattern):
    rng = RandomStreams(5)["arrivals"]
    times = arrival_times(pattern, 2000, 100.0, rng)
    assert len(times) == 2000
    assert times == sorted(times)
    assert all(0.0 <= t < 100.0 for t in times)


def test_flash_crowd_concentrates_in_burst_window():
    rng = RandomStreams(6)["arrivals"]
    times = arrival_times("flash-crowd", 5000, 100.0, rng)
    in_burst = sum(1 for t in times if 45.0 <= t < 55.0)
    # 90% burst + background spillover: well over 80% inside the window.
    assert in_burst > 0.8 * len(times)


def test_diurnal_peaks_midday():
    rng = RandomStreams(7)["arrivals"]
    times = arrival_times("diurnal", 5000, 100.0, rng)
    middle = sum(1 for t in times if 25.0 <= t < 75.0)
    trough = sum(1 for t in times if t < 12.5 or t >= 87.5)
    # rate(t) = 1 + sin: the middle half carries most of the mass and
    # the overnight trough almost none.
    assert middle > 0.75 * len(times)
    assert trough < 0.05 * len(times)


def test_unknown_pattern_rejected():
    rng = RandomStreams(8)["arrivals"]
    with pytest.raises(ConfigurationError):
        arrival_times("bursty", 10, 100.0, rng)
    with pytest.raises(ConfigurationError):
        arrival_times("uniform", 10, 0.0, rng)


# ---------------------------------------------------------------------------
# The driver itself (smoke preset; the huge preset runs in the bench job)
# ---------------------------------------------------------------------------

def test_smoke_preset_runs_and_passes_all_checkers():
    preset = SCALE_PRESETS["smoke"]
    system = ReplicatedSystem(num_secondaries=preset.num_secondaries,
                              batch_interval=preset.batch_interval)
    report = run_scale_workload(preset, seed=17, system=system)
    assert report.transactions == preset.sessions * preset.txns_per_session
    assert report.updates + report.reads == report.transactions
    # session_floor >= arrival_horizon: every session outlives the
    # arrival window, so peak concurrency reaches the full population.
    assert report.peak_concurrent == preset.sessions
    assert report.events_dispatched > 0
    assert report.events_per_second > 0
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        assert check(system.recorder).ok, check.__name__


def test_driver_is_deterministic():
    first = run_scale_workload("smoke", seed=23)
    second = run_scale_workload("smoke", seed=23)
    assert first.transactions == second.transactions
    assert first.updates == second.updates
    assert first.virtual_horizon == second.virtual_horizon
    assert first.events_dispatched == second.events_dispatched


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError):
        run_scale_workload("gigantic")


def test_preset_with_no_txns_per_session_rejected():
    """Zero used to run one transaction per session (300 on smoke)."""
    preset = dataclasses.replace(SCALE_PRESETS["smoke"], txns_per_session=0)
    with pytest.raises(ConfigurationError, match="txns_per_session"):
        run_scale_workload(preset)


def test_huge_preset_targets_100k_concurrent_sessions():
    preset = SCALE_PRESETS["huge"]
    assert preset.sessions >= 100_000
    # The concurrency guarantee: sessions outlive the arrival window.
    assert preset.session_floor >= preset.arrival_horizon
