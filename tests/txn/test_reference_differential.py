"""Differential oracle: the production checkers ≡ the reference checkers.

``repro.txn.checkers`` infers snapshots from per-key timelines and
audits every history with one streaming ordering pass and one per-key
completeness induction.  ``tests/txn/reference_checkers.py`` does the
same by materialised states, pair scans and full-state comparison;
every history here must get the identical ``(ok,
checked_transactions, [(kind, message, txns)])`` from both, for all four
public checkers, and the same inversion counts:

* 20 seeds each of six chaos shapes — plain, plain with parallel
  refresh, sharded, sharded with a permanent primary kill, the composed
  auto-failover sweep, and the unsharded promotion storm;
* the same histories under ``check_strong_si``, which finds *real*
  inversions in them (strong-session workloads are not strong SI), so
  the violation path and its source tie-break are compared too;
* seeded mutations of a sharded promoted history and of a plain one — a
  refresh write bumped, dropped, or re-keyed — each of which must be
  caught, with the same message.
"""

import copy
import random
from functools import lru_cache

import pytest

from repro.faults.harness import ChaosConfig, run_chaos
from repro.txn.checkers import check_completeness, check_strong_si
from repro.txn.history import HistoryRecorder

from tests.txn.reference_checkers import assert_matches_reference

SHAPES = {
    "plain": {},
    "parallel": dict(parallel_refresh=4, refresh_apply_cost=0.02),
    "sharded": dict(shards=8),
    "sharded-kill": dict(shards=8, primary_kill=True),
    "composed": dict(shards=8, primary_kill=True, auto_failover=True,
                     partitions=2, parallel_refresh=4,
                     refresh_apply_cost=0.01),
    "kill": dict(primary_kill=True),
}
SEEDS = range(20)


@lru_cache(maxsize=None)
def history(shape: str, seed: int) -> HistoryRecorder:
    return run_chaos(ChaosConfig(seed=seed, **SHAPES[shape])).recorder


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
# Seeded mutations of sharded promoted histories and of a plain one
# ---------------------------------------------------------------------------

MUTATIONS = ("bump", "drop", "re-key")
MUTATION_BASE_SEEDS = (2, 5, 11)
MUTANTS_PER_KIND = 12           # x 3 kinds x 3 base histories = 108
PLAIN_MUTATION_BASE_SEED = 2    # x 3 kinds x 12 = 36 more


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


def assert_mutants_caught(base: HistoryRecorder, rng: random.Random,
                          kind: str) -> None:
    assert check_completeness(base).ok
    caught = 0
    for _ in range(MUTANTS_PER_KIND):
        mutant = mutate(base, kind, rng)
        assert_matches_reference(mutant)
        caught += not check_completeness(mutant).ok
    assert caught == MUTANTS_PER_KIND


@pytest.mark.chaos
@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("base_seed", MUTATION_BASE_SEEDS)
def test_mutated_sharded_promoted_history(base_seed, kind):
    assert_mutants_caught(history("sharded-kill", base_seed),
                          random.Random(f"{base_seed}:{kind}"), kind)


@pytest.mark.chaos
@pytest.mark.parametrize("kind", MUTATIONS)
def test_mutated_plain_history(kind):
    """The plain route of both sides: 12 mutants of each kind."""
    assert_mutants_caught(history("plain", PLAIN_MUTATION_BASE_SEED),
                          random.Random(f"plain:{kind}"), kind)
