"""Checker-scaling smoke: a 10k-commit history must verify in seconds.

This is the CI guard for the per-key checkers: generate a 10k-commit,
5-secondary replicated history and require the weak-SI and
strong-session-SI checks (plus completeness) to finish inside a hard
wall-clock budget.  State-materialising checkers, like the test-only
reference in ``tests/txn/reference_checkers.py``, are quadratic on the
same history — if the timeline code regresses to that, this fails
loudly rather than slowly.

The sharded + promoted leg guards the other code path: histories with
shard subscriptions and a promotion used to be audited by O(n²) pair
scans (34x the time for 4x the ops) and by materialising every axis
state.  It asserts two host-independent *ratios* on chaos histories of
2 000 and 8 000 ops — growth of the strong-session check, and the cost
of the strong-session and completeness checks relative to weak SI on the
same history — so a reintroduced pair loop fails on any machine.

Run explicitly (the ``benchmarks/`` tree is not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/test_checker_scaling.py
"""

import gc
from time import perf_counter, process_time

import pytest

from repro.faults.harness import ChaosConfig, run_chaos
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.histgen import generate_replicated_history
from repro.txn.history import HistoryRecorder

COMMITS = 10_000
SECONDARIES = 5

#: Hard per-check wall-clock budget, seconds.  Generous: the incremental
#: checkers run each criterion in well under a second on a laptop and in
#: ~1 s on a small shared CI container.
BUDGET_SECONDS = 10.0


@pytest.fixture(scope="module")
def history():
    recorder = generate_replicated_history(
        COMMITS, secondaries=SECONDARIES, reads=2000, seed=42)
    recorder.transactions()        # warm the shared aggregation cache
    return recorder


@pytest.mark.parametrize("check", [
    check_weak_si, check_strong_session_si, check_completeness,
], ids=lambda fn: fn.__name__)
def test_incremental_check_within_budget(history, check):
    started = perf_counter()
    result = check(history)
    elapsed = perf_counter() - started
    assert result.ok, result.violations[:3]
    assert elapsed <= BUDGET_SECONDS, (
        f"{check.__name__} took {elapsed:.2f}s over {COMMITS} commits "
        f"(budget {BUDGET_SECONDS}s) — did the incremental path regress "
        f"to quadratic behaviour?")


# ---------------------------------------------------------------------------
# Sharded + promoted histories: linear, and no dearer than weak SI
# ---------------------------------------------------------------------------

SHARDED_OPS = (2_000, 8_000)

#: ``check_strong_session_si``: t(8k ops) / t(2k ops).  Linear is 4; the
#: pair scans this guards against measured 34.
MAX_GROWTH = 8.0

#: At 8k ops, strong-session SI and completeness over weak SI on the same
#: history.  The three share the per-transaction work; the pair scans and
#: state materialisation measured 71x and 15x, the linear passes ~1.4x
#: and ~1.1x.
MAX_OVER_WEAK_SI = 3.0


@pytest.fixture(scope="module")
def sharded_times():
    """ops -> checker -> best-of-3 CPU seconds, on a fresh recorder per
    run (no cached transaction views) with the collector off."""
    times = {}
    for ops in SHARDED_OPS:
        result = run_chaos(ChaosConfig(
            seed=3, ops=ops, horizon=float(ops), keys=512, num_sessions=32,
            shards=8, primary_kill=True, parallel_refresh=4,
            refresh_apply_cost=0.01))
        assert result.ok, result.describe()
        assert result.promotions == 1
        times[ops] = {}
        for check in (check_weak_si, check_strong_session_si,
                      check_completeness):
            best = float("inf")
            for _ in range(3):
                fresh = HistoryRecorder()
                fresh.events = result.recorder.events
                gc.collect()
                gc.disable()
                try:
                    started = process_time()
                    verdict = check(fresh)
                    best = min(best, process_time() - started)
                finally:
                    gc.enable()
                assert verdict.ok
            times[ops][check.__name__] = best
    return times


def test_sharded_strong_session_check_grows_linearly(sharded_times):
    small, large = (sharded_times[ops]["check_strong_session_si"]
                    for ops in SHARDED_OPS)
    assert large / small <= MAX_GROWTH, (
        f"check_strong_session_si took {small:.3f}s at {SHARDED_OPS[0]} ops "
        f"and {large:.3f}s at {SHARDED_OPS[1]} ({large / small:.1f}x for 4x "
        f"the ops) — is there a pair loop on the sharded/era path again?")


@pytest.mark.parametrize("check", ["check_strong_session_si",
                                   "check_completeness"])
def test_sharded_checks_cost_about_what_weak_si_costs(sharded_times, check):
    at_8k = sharded_times[SHARDED_OPS[-1]]
    ratio = at_8k[check] / at_8k["check_weak_si"]
    assert ratio <= MAX_OVER_WEAK_SI, (
        f"{check} took {at_8k[check]:.3f}s against check_weak_si's "
        f"{at_8k['check_weak_si']:.3f}s on the same {SHARDED_OPS[-1]}-op "
        f"sharded, promoted history ({ratio:.1f}x)")
