"""Differential oracle: the linear-time passes ≡ the reference checkers.

``repro.txn.checkers`` audits sharded and promoted histories with one
streaming ordering pass and one per-key completeness induction.  The
pair scans and projected full-state audit they replaced live on in
``tests/txn/reference_checkers.py``; every history here must get the
identical ``(ok, checked_transactions, [(kind, message, txns)])`` from
both, under both ``method``s, for all four public checkers:

* 20 seeds each of four chaos shapes — sharded, sharded with a permanent
  primary kill, the composed auto-failover sweep, and the unsharded
  promotion storm;
* the same histories under ``check_strong_si``, which finds *real*
  inversions in them (strong-session workloads are not strong SI), so
  the violation path and its source tie-break are compared too;
* seeded mutations of a sharded promoted history — a refresh write
  bumped, dropped, or re-keyed — each of which must be caught, with
  the same message.
"""

import copy
import random
from functools import lru_cache

import pytest

from repro.faults.harness import ChaosConfig, run_chaos
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_strong_si,
    check_weak_si,
    count_transaction_inversions,
)
from repro.txn.history import HistoryRecorder

from tests.txn.reference_checkers import (
    reference_check_completeness,
    reference_check_strong,
)

SHAPES = {
    "sharded": dict(shards=8),
    "sharded-kill": dict(shards=8, primary_kill=True),
    "composed": dict(shards=8, primary_kill=True, auto_failover=True,
                     partitions=2, parallel_refresh=4,
                     refresh_apply_cost=0.01),
    "kill": dict(primary_kill=True),
}
SEEDS = range(20)
METHODS = ("incremental", "legacy")


def verdict(result):
    return (result.ok, result.checked_transactions,
            [(v.kind, v.message, v.txns) for v in result.violations])


@lru_cache(maxsize=None)
def history(shape: str, seed: int) -> HistoryRecorder:
    return run_chaos(ChaosConfig(seed=seed, **SHAPES[shape])).recorder


def assert_matches_reference(recorder: HistoryRecorder) -> None:
    for method in METHODS:
        assert verdict(check_completeness(recorder, method=method)) \
            == verdict(reference_check_completeness(recorder, method=method))
        weak = len(check_weak_si(recorder, method=method).violations)
        for same_session_only, check in ((True, check_strong_session_si),
                                         (False, check_strong_si)):
            reference = reference_check_strong(
                recorder, same_session_only, method=method)
            assert verdict(check(recorder, method=method)) \
                == verdict(reference), (check.__name__, method)
            assert count_transaction_inversions(
                recorder, within_sessions=same_session_only, method=method) \
                == len(reference.violations) - weak


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_chaos_corpus_matches_reference(shape, seed):
    assert_matches_reference(history(shape, seed))


@pytest.mark.chaos
@pytest.mark.parametrize("shape", SHAPES)
def test_corpus_has_real_inversions_for_strong_si(shape):
    """The comparison above is not vacuous on the violation path: each
    shape's histories hold genuine cross-session inversions."""
    inversions = sum(
        1 for seed in SEEDS
        for violation in check_strong_si(history(shape, seed)).violations
        if violation.kind == "transaction-inversion")
    assert inversions >= 5, inversions


# ---------------------------------------------------------------------------
# Seeded mutations of a sharded promoted history
# ---------------------------------------------------------------------------

MUTATIONS = ("bump", "drop", "re-key")
MUTATION_BASE_SEEDS = (2, 5, 11)
MUTANTS_PER_KIND = 12           # x 3 kinds x 3 base histories = 108


def mutate(recorder: HistoryRecorder, kind: str,
           rng: random.Random) -> HistoryRecorder:
    """A copy of the history with one committed refresh write changed."""
    committed = {view.key for view in recorder.committed()
                 if view.is_refresh}
    targets = [index for index, event in enumerate(recorder.events)
               if event.kind == "write"
               and (event.site, event.txn_id) in committed]
    index = rng.choice(targets)
    events = list(recorder.events)
    if kind == "drop":
        del events[index]
    else:
        event = events[index] = copy.copy(events[index])
        if kind == "bump":
            event.value += 1
        else:
            event.key = "never-written"
    mutant = HistoryRecorder()
    mutant.events = events
    return mutant


@pytest.mark.chaos
@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("base_seed", MUTATION_BASE_SEEDS)
def test_mutated_sharded_promoted_history(base_seed, kind):
    base = history("sharded-kill", base_seed)
    assert check_completeness(base).ok
    rng = random.Random(f"{base_seed}:{kind}")
    caught = 0
    for _ in range(MUTANTS_PER_KIND):
        mutant = mutate(base, kind, rng)
        assert_matches_reference(mutant)
        caught += not check_completeness(mutant).ok
    assert caught == MUTANTS_PER_KIND
