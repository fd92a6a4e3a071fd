"""Era-aware checkers: auditing histories across a primary promotion.

A ``promote`` event splits the history into cluster eras.  The checkers
re-anchor the axis of comparison on the new primary's timeline — the
surviving prefix S^0..S^base spliced with the new era's commits — and
clamp cross-era snapshot comparisons to the shared prefix.  These tests
pin that semantics on hand-built histories (clean and violating) and
require the production checkers to agree with the reference on each of
them and on real promotion storms.
"""

import pytest

from repro.storage.engine import SIDatabase
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
    count_transaction_inversions,
)
from repro.txn.history import HistoryRecorder

from tests.txn.reference_checkers import (
    assert_matches_reference,
    reference_check_completeness,
)
from tests.txn.test_incremental_checkers import read, refresh, update


@pytest.fixture
def recorder():
    return HistoryRecorder()


def promoted_pair(recorder):
    """Primary + two replicas, one commit applied at secondary-1, one
    truncated, then promotion of secondary-1 at base=1."""
    primary = SIDatabase(name="primary", recorder=recorder)
    sec1 = SIDatabase(name="secondary-1", recorder=recorder)
    sec2 = SIDatabase(name="secondary-2", recorder=recorder)
    update(primary, "t1", "c1", {"x": 1})
    refresh(sec1, "t1", {"x": 1})
    update(primary, "t2", "c1", {"x": 2})      # acknowledged, never shipped
    recorder.record_promotion(old_site="primary", new_site="secondary-1",
                              time=10.0, truncation_ts=1)
    return primary, sec1, sec2


# ---------------------------------------------------------------------------
# Clean cross-era histories
# ---------------------------------------------------------------------------

def test_clean_promotion_history_passes_all_checkers(recorder):
    _, sec1, sec2 = promoted_pair(recorder)
    # New-era commit on the promoted site continues dense numbering from
    # the truncation point (its engine is at commit 1 already).
    update(sec1, "t3", "c2", {"y": 9})
    # The laggard replica gets the surviving tail (the replay) and then
    # the new era's refresh.
    refresh(sec2, "t1", {"x": 1})
    refresh(sec2, "t3", {"y": 9})
    read(sec2, "r1", "c3", ["x", "y"])
    completeness, weak, _, session = assert_matches_reference(recorder)
    assert completeness.ok, [v.message for v in completeness.violations]
    assert weak.ok
    assert session.ok


def test_promotion_only_history_passes(recorder):
    """A promotion with no new-era activity: the truncated commit t2
    imposes no obligation on any replica (it is off the new axis)."""
    promoted_pair(recorder)
    completeness, weak, _, session = assert_matches_reference(recorder)
    assert completeness.ok, [v.message for v in completeness.violations]
    assert weak.ok and session.ok


def test_two_promotions_stack_eras(recorder):
    _, sec1, sec2 = promoted_pair(recorder)
    update(sec1, "t3", "c2", {"y": 9})
    refresh(sec2, "t1", {"x": 1})
    refresh(sec2, "t3", {"y": 9})
    # Second epoch: secondary-2 takes over at base=2 (it has applied
    # everything on the current axis).
    recorder.record_promotion(old_site="secondary-1",
                              new_site="secondary-2",
                              time=20.0, truncation_ts=2)
    update(sec2, "t4", "c2", {"z": 5})
    completeness, weak, _, session = assert_matches_reference(recorder)
    assert completeness.ok, [v.message for v in completeness.violations]
    assert weak.ok and session.ok


# ---------------------------------------------------------------------------
# Violating cross-era histories (the reference must agree on the verdict)
# ---------------------------------------------------------------------------

def test_truncated_tail_leaking_into_new_era_is_divergence(recorder):
    """A replica that applies the *truncated* commit after the promotion
    diverges from the new axis: S^2 is {'x':1,'y':9}, not {'x':2}."""
    _, sec1, sec2 = promoted_pair(recorder)
    update(sec1, "t3", "c2", {"y": 9})
    refresh(sec2, "t1", {"x": 1})
    refresh(sec2, "t2", {"x": 2})              # the fenced, dead commit
    read(sec2, "r1", "c3", ["x", "y"])         # observes the dead state
    completeness, weak, *_ = assert_matches_reference(recorder)
    assert not completeness.ok
    assert completeness.violations[0].kind == "state-divergence"
    assert not weak.ok
    assert weak.violations[0].kind == "no-consistent-snapshot"


def test_cross_era_session_inversion_detected(recorder):
    """A session that observed S^1 before the promotion and then reads
    an empty replica afterwards went backwards across the era boundary
    (the shared prefix makes the two snapshots comparable)."""
    _, sec1, sec2 = promoted_pair(recorder)
    read(sec1, "r1", "c9", ["x"])              # era 0: observes S^1
    update(sec1, "t3", "c2", {"y": 9})
    read(sec2, "r2", "c9", ["x"])              # era 1: S^0 — regression
    *_, session = assert_matches_reference(recorder)
    assert not session.ok
    assert session.violations[0].kind == "transaction-inversion"
    assert count_transaction_inversions(recorder) >= 1


def test_secondary_ahead_of_new_era_axis(recorder):
    """A replica claiming a state beyond the new era's axis is flagged
    against that era, not the dead primary's timeline."""
    _, sec1, sec2 = promoted_pair(recorder)
    update(sec1, "t3", "c2", {"y": 9})         # axis now S^0..S^2
    refresh(sec2, "t1", {"x": 1})
    refresh(sec2, "t3", {"y": 9})
    refresh(sec2, "t-phantom", {"q": 1})       # S^3: no such primary state
    completeness, *_ = assert_matches_reference(recorder)
    assert not completeness.ok
    assert completeness.violations[0].kind == "secondary-ahead"
    assert "S^3" in completeness.violations[0].message


def test_transaction_without_begin_belongs_to_the_first_era(recorder):
    """A transaction recorded without its begin counts as begun before
    anything: era 0, with no commit before it.  Its read of S^1 is then
    a future snapshot, not a read of the new era's axis."""
    class FakeTxn:
        txn_id = 93
        start_ts = 0
        commit_ts = None
        metadata = {"logical_id": "headless", "session": "c5"}
        is_update = False
        recorded_ids = None

    _, sec1, _ = promoted_pair(recorder)
    update(sec1, "t3", "c2", {"y": 9})
    fake = FakeTxn()
    recorder.record("read", "secondary-1", fake, 0.0, key="x", value=1,
                    producer=1)
    recorder.record("commit", "secondary-1", fake, 0.0)
    _, weak, *_ = assert_matches_reference(recorder)
    assert [v.kind for v in weak.violations] == ["future-snapshot"]


def test_non_dense_new_era_numbering_rejected(recorder):
    """The new primary must continue dense commit numbering from the
    truncation point; a gap is a checker error, not a silent pass."""
    from repro.errors import CheckerError

    _, sec1, _ = promoted_pair(recorder)
    update(sec1, "skip", "c2", {"y": 1})       # commit 2: fine
    update(sec1, "skip2", "c2", {"y": 2})      # commit 3: fine
    # Fake a gap by promoting secondary-2 from a base it never reached.
    recorder.record_promotion(old_site="secondary-1",
                              new_site="secondary-2",
                              time=30.0, truncation_ts=2)
    sec2 = SIDatabase(name="secondary-2", recorder=recorder)
    update(sec2, "t9", "c2", {"z": 1})         # commit 1 ≠ base+1 = 3
    with pytest.raises(CheckerError, match="dense in era"):
        check_completeness(recorder)
    with pytest.raises(CheckerError, match="dense in era"):
        reference_check_completeness(recorder)


# ---------------------------------------------------------------------------
# Differential: real promotion storms, production ≡ reference
# ---------------------------------------------------------------------------

@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(8))
def test_agree_on_promotion_storm_history(seed):
    """Recorded primary-kill chaos histories span a promotion epoch; the
    production and reference checkers must return identical verdicts."""
    from repro.faults.harness import ChaosConfig, run_chaos

    result = run_chaos(ChaosConfig(seed=seed, ops=60, horizon=60.0,
                                   primary_kill=True))
    assert result.ok, result.describe()
    assert result.status.promotions == 1
    assert_matches_reference(result.recorder)


@pytest.mark.chaos
def test_era_checkers_see_lost_window_storm():
    """At least one storm-style run with an actual truncated window:
    convergence and the checkers must still hold (the loss is a client
    durability event, not a replication-correctness violation)."""
    from repro.core.promotion import PromotionConfig
    from repro.core.system import ReplicatedSystem
    from repro.errors import LostUpdatesError

    system = ReplicatedSystem(num_secondaries=3, propagation_delay=1.0,
                              promotion=PromotionConfig())
    session = system.session()
    for i in range(4):
        session.write(f"k{i}", i)
    system.quiesce()
    system.propagator.pause()
    session.write("k9", 9)                     # truncated window (4, 5]
    system.run()
    system.kill_primary()
    report = system.promote_secondary()
    assert report.lost_commits == 1
    assert system.lost_update_windows == 1
    with pytest.raises(LostUpdatesError):
        session.read("k0")
    survivor = system.session()
    survivor.write("k0", 100)
    system.quiesce()
    assert_matches_reference(system.recorder)
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        assert check(system.recorder).ok
