"""Tests for the SI correctness checkers over hand-built histories.

Good histories are produced by real engines acting as primary/secondary
(with the test playing the replication layer); bad histories are either
produced by *misusing* the replication (wrong order, partial refresh) or
fabricated event-by-event.
"""

import pytest

from repro.errors import CheckerError
from repro.storage.engine import SIDatabase
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_strong_si,
    check_weak_si,
    count_transaction_inversions,
)
from repro.txn.history import HistoryRecorder


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def primary(recorder):
    return SIDatabase(name="primary", recorder=recorder)


@pytest.fixture
def secondary(recorder):
    return SIDatabase(name="secondary-1", recorder=recorder)


def update(db, logical, session, writes):
    txn = db.begin(update=True, metadata={"logical_id": logical,
                                          "session": session})
    for key, value in writes.items():
        txn.write(key, value)
    return txn.commit()


def refresh(db, of_logical, writes):
    txn = db.begin(update=True, metadata={
        "logical_id": f"refresh-{of_logical}", "refresh_of": of_logical})
    for key, value in writes.items():
        txn.write(key, value)
    return txn.commit()


def read(db, logical, session, keys):
    txn = db.begin(metadata={"logical_id": logical, "session": session})
    values = {key: txn.read(key, default=None) for key in keys}
    txn.commit()
    return values


# ---------------------------------------------------------------------------
# Weak SI
# ---------------------------------------------------------------------------

def test_weak_si_ok_with_stale_but_consistent_snapshot(
        recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1, "y": 1})
    refresh(secondary, "t1", {"x": 1, "y": 1})
    update(primary, "t2", "c1", {"x": 2, "y": 2})
    # Secondary lags: a read there sees S^1 — stale but consistent.
    assert read(secondary, "r1", "c2", ["x", "y"]) == {"x": 1, "y": 1}
    result = check_weak_si(recorder)
    assert result.ok, result.violations


def test_weak_si_detects_partial_refresh(recorder, primary, secondary):
    """Applying only half of a transaction's writes exposes a state that
    matches no primary snapshot."""
    update(primary, "t1", "c1", {"x": 1, "y": 1})
    refresh(secondary, "t1", {"x": 1})        # lost y!
    read(secondary, "r1", "c2", ["x", "y"])
    result = check_weak_si(recorder)
    assert not result.ok
    assert result.violations[0].kind == "no-consistent-snapshot"


def test_weak_si_detects_out_of_order_refresh(recorder, primary, secondary):
    """Installing T2 before T1 shows a state the primary never had."""
    update(primary, "t1", "c1", {"x": 1})
    update(primary, "t2", "c1", {"y": 2})
    refresh(secondary, "t2", {"y": 2})        # wrong order
    read(secondary, "r1", "c2", ["x", "y"])   # sees {y=2, no x}
    result = check_weak_si(recorder)
    assert not result.ok


def test_weak_si_ok_empty_history(recorder):
    assert check_weak_si(recorder).ok


def test_weak_si_read_of_untouched_keys_unconstrained(
        recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1})
    assert read(secondary, "r1", "c2", ["never-written"]) == {
        "never-written": None}
    assert check_weak_si(recorder).ok


def test_checker_rejects_sparse_commit_timestamps(recorder, primary):
    """The analysis refuses histories whose primary timestamps aren't dense
    (it would mis-number states silently otherwise)."""
    class FakeTxn:
        txn_id = 77
        start_ts = 0
        commit_ts = None
        metadata = {"logical_id": "fake"}
        is_update = True
        recorded_ids = None
    fake = FakeTxn()
    recorder.record("begin", "primary", fake, 0.0)
    fake.commit_ts = 5          # dense numbering would be 1
    recorder.record("commit", "primary", fake, 0.0)
    with pytest.raises(CheckerError, match="not dense"):
        check_weak_si(recorder)


# ---------------------------------------------------------------------------
# Strong SI
# ---------------------------------------------------------------------------

def test_strong_si_ok_when_reads_are_fresh(recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1})
    refresh(secondary, "t1", {"x": 1})
    read(secondary, "r1", "c2", ["x"])
    assert check_strong_si(recorder).ok


def test_strong_si_detects_cross_session_inversion(
        recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1})
    # No refresh: a read from ANOTHER session sees the old state.
    read(secondary, "r1", "c2", ["x"])
    result = check_strong_si(recorder)
    assert not result.ok
    assert result.violations[0].kind == "transaction-inversion"
    # ...but session-level SI is fine: different sessions.
    assert check_strong_session_si(recorder).ok


def test_strong_si_ordering_between_read_only_pairs(
        recorder, primary, secondary):
    """T1 (read-only) saw S^1; T2 (read-only, after T1 commits) must not
    see S^0 under strong SI."""
    update(primary, "t1", "c1", {"x": 1})
    refresh(secondary, "t1", {"x": 1})
    second_secondary = SIDatabase(name="secondary-2", recorder=recorder)
    read(secondary, "r1", "cA", ["x"])             # sees S^1 (fresh here)
    read(second_secondary, "r2", "cB", ["x"])      # sees S^0 (no refresh)
    result = check_strong_si(recorder)
    assert not result.ok


def test_strong_si_fabricated_future_snapshot(recorder):
    """A read that sees a commit which happens after it began is not SI."""
    class FakeTxn:
        def __init__(self, txn_id, is_update, meta):
            self.txn_id = txn_id
            self.start_ts = 0
            self.commit_ts = None
            self.metadata = meta
            self.is_update = is_update
            self.recorded_ids = None

    writer = FakeTxn(1, True, {"logical_id": "t1"})
    reader = FakeTxn(2, False, {"logical_id": "r1"})
    recorder.record("begin", "primary", writer, 0.0)
    recorder.record("write", "primary", writer, 0.0, key="x", value=1)
    recorder.record("begin", "secondary-1", reader, 0.0)
    recorder.record("read", "secondary-1", reader, 0.0, key="x", value=1,
                    producer=1)          # sees the value...
    writer.commit_ts = 1
    recorder.record("commit", "primary", writer, 0.0)   # ...committed later
    recorder.record("commit", "secondary-1", reader, 0.0)
    result = check_weak_si(recorder)
    assert not result.ok
    assert result.violations[0].kind == "future-snapshot"


# ---------------------------------------------------------------------------
# Strong session SI
# ---------------------------------------------------------------------------

def test_session_si_detects_read_your_writes_violation(
        recorder, primary, secondary):
    update(primary, "tbuy", "customer", {"order": "placed"})
    read(secondary, "tcheck", "customer", ["order"])   # stale: no refresh
    result = check_strong_session_si(recorder)
    assert not result.ok
    assert result.violations[0].kind == "transaction-inversion"


def test_session_si_ok_after_refresh(recorder, primary, secondary):
    update(primary, "tbuy", "customer", {"order": "placed"})
    refresh(secondary, "tbuy", {"order": "placed"})
    assert read(secondary, "tcheck", "customer", ["order"]) == {
        "order": "placed"}
    assert check_strong_session_si(recorder).ok


def test_session_si_monotonic_reads_within_session(
        recorder, primary, secondary):
    """Two read-only txns in one session must not go back in time —
    the strong-session-SI property PCSI lacks (Section 7)."""
    update(primary, "t1", "writer", {"x": 1})
    refresh(secondary, "t1", {"x": 1})
    stale_secondary = SIDatabase(name="secondary-2", recorder=recorder)
    read(secondary, "r1", "reader", ["x"])        # sees S^1
    read(stale_secondary, "r2", "reader", ["x"])  # sees S^0: went backwards
    result = check_strong_session_si(recorder)
    assert not result.ok


def test_session_si_updates_then_update_same_session_ok(recorder, primary):
    update(primary, "t1", "c", {"x": 1})
    update(primary, "t2", "c", {"x": 2})
    assert check_strong_session_si(recorder).ok
    assert check_strong_si(recorder).ok


def test_count_inversions(recorder, primary, secondary):
    update(primary, "t1", "c", {"x": 1})
    read(secondary, "r1", "c", ["x"])      # inversion 1
    read(secondary, "r2", "c", ["x"])      # inversion 2 (vs t1)
    assert count_transaction_inversions(recorder) == 2
    assert count_transaction_inversions(recorder,
                                        within_sessions=False) >= 2


# ---------------------------------------------------------------------------
# Completeness (Theorem 3.1)
# ---------------------------------------------------------------------------

def test_completeness_ok_when_secondary_is_prefix(
        recorder, primary, secondary):
    update(primary, "t1", "c", {"x": 1})
    update(primary, "t2", "c", {"y": 2})
    refresh(secondary, "t1", {"x": 1})     # lags by one: still a prefix
    assert check_completeness(recorder).ok


def test_completeness_detects_divergence(recorder, primary, secondary):
    update(primary, "t1", "c", {"x": 1})
    refresh(secondary, "t1", {"x": 999})   # corrupted refresh
    result = check_completeness(recorder)
    assert not result.ok
    assert result.violations[0].kind == "state-divergence"


def test_completeness_detects_secondary_ahead(recorder, primary, secondary):
    refresh(secondary, "ghost", {"x": 1})  # applied a txn primary never ran
    result = check_completeness(recorder)
    assert not result.ok
    assert result.violations[0].kind == "secondary-ahead"


def test_completeness_detects_reordered_commits(recorder, primary, secondary):
    update(primary, "t1", "c", {"x": 1})
    update(primary, "t2", "c", {"x": 2})
    refresh(secondary, "t2", {"x": 2})     # applied in the wrong order
    refresh(secondary, "t1", {"x": 1})
    result = check_completeness(recorder)
    assert not result.ok


def test_completeness_multiple_secondaries(recorder, primary):
    sec1 = SIDatabase(name="secondary-1", recorder=recorder)
    sec2 = SIDatabase(name="secondary-2", recorder=recorder)
    update(primary, "t1", "c", {"x": 1})
    refresh(sec1, "t1", {"x": 1})
    # sec2 lags entirely; both fine.
    assert check_completeness(recorder).ok
    refresh(sec2, "t1", {"x": "wrong"})
    assert not check_completeness(recorder).ok


def test_check_result_summary_strings(recorder, primary, secondary):
    update(primary, "t1", "c", {"x": 1})
    ok = check_weak_si(recorder)
    assert "OK" in ok.summary()
    read(secondary, "r", "c", ["x"])
    bad = check_strong_session_si(recorder)
    assert "violation" in bad.summary()
    assert bool(ok) and not bool(bad)


def test_unconstrained_early_read_imposes_no_phantom_obligation(
        recorder, primary, secondary):
    """Regression (found by hypothesis): an early read whose values do
    not pin its snapshot must not be *assumed* maximally fresh — that
    assumption falsely flags a later same-session read as an inversion.

    Here r1 reads nothing that distinguishes S^0 from S^1 (key never
    written), then r2 reads a key that proves it saw S^0.  Both reads in
    fact ran against the same stale replica state: perfectly legal under
    strong session SI.
    """
    update(primary, "t1", "writer", {"x": 1})
    read(secondary, "r1", "reader", ["unrelated"])   # candidates: {0, 1}
    read(secondary, "r2", "reader", ["x"])           # pins S^0
    result = check_strong_session_si(recorder)
    assert result.ok, [v.message for v in result.violations]


def test_pinned_early_read_still_constrains_later_reads(
        recorder, primary, secondary):
    """Counterpart: when the early read provably saw the newer state, a
    later stale read in the same session IS an inversion."""
    update(primary, "t1", "writer", {"x": 1})
    refresh(secondary, "t1", {"x": 1})
    stale = SIDatabase(name="secondary-2", recorder=recorder)
    read(secondary, "r1", "reader", ["x"])   # pins S^1
    read(stale, "r2", "reader", ["x"])       # pins S^0 -> inversion
    result = check_strong_session_si(recorder)
    assert not result.ok
    assert result.violations[0].kind == "transaction-inversion"
