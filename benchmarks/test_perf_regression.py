"""Regression guard against the committed perf baseline.

Compares freshly measured microbench numbers with
``BENCH_evaluation.json`` (written by ``python -m repro.evaluation
--bench``).  The tolerance is deliberately generous — 2.5x — because CI
machines, laptops and containers differ wildly; the guard only catches
order-of-magnitude hot-path regressions, not noise.  Skips cleanly when
no baseline has been generated.
"""

import json
from pathlib import Path

import pytest

from repro.evaluation.bench import (
    RUN_ONCE_SCALE,
    RUN_ONCE_X,
    bench_kernel,
)
from repro.evaluation.figures import ALGORITHMS, ALL_FIGURES
from repro.simmodel.experiment import run_once

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_evaluation.json"

#: Allowed slowdown factor vs the committed baseline.
TOLERANCE = 2.5

pytestmark = pytest.mark.skipif(
    not BASELINE_PATH.exists(),
    reason="no BENCH_evaluation.json baseline; run "
           "`python -m repro.evaluation --bench` to create one")


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE_PATH.read_text())


def test_baseline_schema(baseline):
    assert baseline["schema"] == 8
    assert baseline["kernel"]["events_per_sec"] > 0
    assert set(baseline["run_once_seconds"]) == {
        "strong-session-si", "weak-si", "strong-si"}
    # Schema 2: one timing per figure sweep, and version-chain stats.
    assert set(baseline["figure_timings"]) == {
        spec.sweep.key for spec in ALL_FIGURES.values()}
    stats = baseline["version_stats"]
    assert stats["max_versions_autovacuum"] \
        <= stats["max_versions_unvacuumed"]
    assert stats["versions_reclaimed"] > 0
    # Schema 3: incremental-vs-legacy checker timings over a generated
    # history, and the history's recorded size.
    checkers = baseline["checker_timings"]
    assert checkers["commits"] >= 10_000
    assert checkers["secondaries"] >= 5
    assert baseline["history_bytes"] == checkers["history_bytes"] > 0
    for criterion in ("weak_si", "strong_session_si", "completeness"):
        assert checkers["incremental"][criterion] > 0
        assert checkers["legacy"][criterion] > 0
    # The acceptance bar for the incremental rewrite: >= 5x on the SI
    # criteria at the baseline history length.
    assert checkers["speedup"]["weak_si"] >= 5
    assert checkers["speedup"]["strong_session_si"] >= 5
    # Schema 4: the rewritten per-key completeness pass must at least
    # break even with the legacy replay (it previously lagged at 0.83x).
    assert checkers["speedup"]["completeness"] >= 1
    # Schema 4: parallel refresh vs FIFO pool.  These legs run in
    # virtual time, so the recorded numbers are deterministic and the
    # acceptance bars can be asserted exactly: >= 3x apply throughput
    # at 8 workers on the 95/5 mix, and strictly lower replication lag
    # at every worker count >= 2 on both mixes.
    parallel = baseline["parallel_refresh"]
    assert set(parallel["mixes"]) == {"80/20", "95/5"}
    assert parallel["workers"] == [1, 2, 4, 8]
    assert parallel["mixes"]["95/5"]["throughput_speedup_at_8"] >= 3.0
    for mix_stats in parallel["mixes"].values():
        for workers in ("2", "4", "8"):
            fifo = mix_stats["fifo"][workers]
            par = mix_stats["parallel"][workers]
            assert par["mean_lag"] < fifo["mean_lag"]
            assert par["apply_throughput"] > fifo["apply_throughput"]
    # Schema 6: keyspace sharding / partial replication.  Virtual-time
    # legs again, so the PR 9 acceptance bars are asserted exactly:
    # at subscription fraction 1/2 on the 95/5 mix each secondary
    # applies half the update volume (>= 2x per-secondary apply
    # throughput) and receives at most half the commit deliveries.
    partial = baseline["partial_replication"]
    assert partial["subscription_fraction"] == 0.5
    assert partial["mix"] == "95/5"
    assert partial["per_secondary_volume_speedup"] >= 1.99
    assert partial["link_volume_fraction"] <= 0.501
    assert partial["drain_speedup"] >= 1.9
    assert partial["sharded"]["per_secondary_commit_fraction"] <= 0.501
    # Schema 7: overload resilience.  Virtual-time leg, deterministic
    # per seed; the structural bars are asserted here and the exact
    # byte-identity re-measurement lives in test_overload_bars.
    overload = baseline["overload"]
    on, off = overload["on"], overload["off"]
    # Admission keeps burst goodput at (or above) the pre-burst steady
    # state — the bucket admits the sustained rate right through the
    # flash crowd instead of collapsing.
    assert on["burst_over_steady"] >= 0.9
    # The admission-off cliff on the same seed: reads queue behind the
    # unbounded refresh backlog.
    assert off["read_p99"] > on["read_p99"]
    assert off["peak_lag"] > on["peak_lag"]
    # Every degraded read's reported staleness stayed within its bound.
    assert on["staleness_within_bounds"] is True
    # Exact conservation: attempts = admitted + shed; every shed is a
    # retry or a client-visible error.
    assert on["attempts_balance_exact"] is True
    assert on["shed_balance_exact"] is True
    assert on["client_shed_matches"] is True
    # Schema 3: figure2_small carries the real host parallelism; on a
    # single-CPU host the speedup is null, never a nonsense ratio.
    figure2 = baseline["figure2_small"]
    assert figure2["jobs_effective"] >= 1
    if figure2["jobs_effective"] == 1:
        assert figure2["speedup"] is None
    else:
        assert figure2["speedup"] > 0
        assert figure2["csv_identical"] is True


def test_incremental_checkers_within_tolerance(baseline):
    """Re-measure the incremental checkers on a fresh (smaller) history.

    The baseline stores timings at 10k commits; re-measuring the legacy
    path there costs ~a minute, so the guard re-times only the
    incremental path at a quarter of the length and scales the budget
    linearly (the incremental path is near-linear in history length —
    that is the point of it)."""
    from repro.evaluation.bench import bench_checkers

    base = baseline["checker_timings"]
    factor = 4
    current = bench_checkers(commits=base["commits"] // factor,
                             secondaries=base["secondaries"],
                             reads=base["reads"] // factor,
                             include_legacy=False)
    for criterion in ("weak_si", "strong_session_si", "completeness"):
        budget = max(base["incremental"][criterion] / factor, 0.05) \
            * TOLERANCE
        assert current["incremental"][criterion] <= budget, (
            f"incremental {criterion} took "
            f"{current['incremental'][criterion]:.3f}s at "
            f"{base['commits'] // factor} commits; budget {budget:.3f}s "
            f"(baseline {base['incremental'][criterion]:.3f}s at "
            f"{base['commits']} commits, tolerance {TOLERANCE}x)")


def test_partial_replication_bars(baseline):
    """Re-measure the partial-replication leg (virtual time: exact).

    The leg runs entirely in virtual time, so a fresh measurement must
    reproduce the committed baseline byte-for-byte — any drift means the
    sharded propagation or refresh path changed behaviour."""
    from repro.evaluation.bench import bench_partial_replication

    current = bench_partial_replication()
    assert current["per_secondary_volume_speedup"] >= 1.99
    assert current["link_volume_fraction"] <= 0.501
    assert current["drain_speedup"] >= 1.9
    assert current == baseline["partial_replication"]


def test_overload_bars(baseline):
    """Re-measure the overload leg (virtual time: exact).

    The flash-crowd legs run entirely in virtual time, so a fresh
    measurement must reproduce the committed baseline byte-for-byte —
    any drift means admission, backoff, degradation or the refresh path
    changed behaviour.  The acceptance bars are re-asserted on the
    fresh numbers, not just the stored ones."""
    from repro.evaluation.bench import bench_overload

    current = bench_overload()
    on, off = current["on"], current["off"]
    # Goodput holds through the burst under admission control ...
    assert on["burst_over_steady"] >= 0.9
    # ... while the same seed without admission falls off the
    # read-latency cliff: reads wait on an unbounded refresh backlog
    # instead of degrading at the deadline.
    assert off["read_p99"] > on["read_p99"]
    assert off["peak_lag"] > on["peak_lag"]
    # Exact shed/degraded accounting on the fresh run.
    assert on["attempts"] == on["admitted"] + on["shed"]
    assert on["shed"] == on["retries"] + on["client_shed"]
    assert on["staleness_within_bounds"] is True
    assert current == baseline["overload"]


def test_kernel_events_per_sec_within_tolerance(baseline):
    # A shorter measurement than the baseline's: rate, not total, matters.
    current = bench_kernel(num_processes=20, sleeps_per_process=1000)
    floor = baseline["kernel"]["events_per_sec"] / TOLERANCE
    assert current["events_per_sec"] >= floor, (
        f"kernel dispatch {current['events_per_sec']:.0f} events/sec is "
        f"more than {TOLERANCE}x below baseline "
        f"{baseline['kernel']['events_per_sec']:.0f}")


def test_run_once_within_tolerance(baseline):
    from time import perf_counter
    spec = ALL_FIGURES["2"]
    by_value = {algorithm.value: algorithm for algorithm in ALGORITHMS}
    for algorithm_value, base_seconds in baseline["run_once_seconds"].items():
        params = spec.sweep.params_for(RUN_ONCE_X, by_value[algorithm_value],
                                       RUN_ONCE_SCALE)
        started = perf_counter()
        run_once(params, seed=42)
        elapsed = perf_counter() - started
        assert elapsed <= base_seconds * TOLERANCE, (
            f"run_once({algorithm_value}) took {elapsed:.3f}s, baseline "
            f"{base_seconds:.3f}s, tolerance {TOLERANCE}x")


def test_figure_timings_within_tolerance(baseline):
    from time import perf_counter
    by_value = {algorithm.value: algorithm for algorithm in ALGORITHMS}
    strictest = by_value["strong-session-si"]
    sweeps = {spec.sweep.key: spec.sweep for spec in ALL_FIGURES.values()}
    for sweep_key, base_seconds in baseline["figure_timings"].items():
        sweep = sweeps[sweep_key]
        x = sweep.x_values[len(sweep.x_values) // 2]
        params = sweep.params_for(x, strictest, RUN_ONCE_SCALE)
        started = perf_counter()
        run_once(params, seed=42)
        elapsed = perf_counter() - started
        assert elapsed <= base_seconds * TOLERANCE, (
            f"sweep {sweep_key} point took {elapsed:.3f}s, baseline "
            f"{base_seconds:.3f}s, tolerance {TOLERANCE}x")
