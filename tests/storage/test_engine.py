"""Tests for the SI storage engine: snapshots, FCW, read-your-writes."""

import pytest

from repro.errors import (
    FirstCommitterWinsError,
    InvalidScanError,
    KeyNotFound,
    SiteUnavailableError,
    TransactionStateError,
    UnorderableKeyError,
)
from repro.storage.engine import SIDatabase, TxnStatus
from repro.storage.wal import AbortRecord, LogicalLog


@pytest.fixture
def db():
    return SIDatabase(name="test")


def _put(db, key, value):
    txn = db.begin(update=True)
    txn.write(key, value)
    return txn.commit()


# ---------------------------------------------------------------------------
# Basics
# ---------------------------------------------------------------------------

def test_write_then_read_after_commit(db):
    _put(db, "x", 1)
    txn = db.begin()
    assert txn.read("x") == 1
    txn.commit()


def test_commit_timestamps_are_dense(db):
    assert _put(db, "a", 1) == 1
    assert _put(db, "b", 2) == 2
    assert _put(db, "a", 3) == 3
    assert db.latest_commit_ts == 3


def test_read_missing_key_raises(db):
    txn = db.begin()
    with pytest.raises(KeyNotFound):
        txn.read("nope")


def test_read_missing_key_with_default(db):
    txn = db.begin()
    assert txn.read("nope", default="fallback") == "fallback"


def test_read_your_own_writes(db):
    txn = db.begin(update=True)
    txn.write("x", 10)
    assert txn.read("x") == 10      # own uncommitted write visible to self
    txn.commit()


def test_read_own_delete(db):
    _put(db, "x", 1)
    txn = db.begin(update=True)
    txn.delete("x")
    assert txn.read("x", default="gone") == "gone"
    txn.commit()
    assert db.get_committed("x", "absent") == "absent"


def test_exists(db):
    _put(db, "x", 1)
    txn = db.begin()
    assert txn.exists("x")
    assert not txn.exists("y")


def test_delete_creates_tombstone_older_snapshot_still_sees(db):
    ts1 = _put(db, "x", 1)
    txn = db.begin(update=True)
    txn.delete("x")
    txn.commit()
    assert db.snapshot(ts1)["x"] == 1
    assert "x" not in db.snapshot()


def test_read_only_commit_returns_none_and_no_state_change(db):
    _put(db, "x", 1)
    txn = db.begin()
    txn.read("x")
    assert txn.commit() is None
    assert db.latest_commit_ts == 1


def test_declared_update_with_no_writes_still_advances_state(db):
    txn = db.begin(update=True)
    assert txn.commit() == 1
    assert db.latest_commit_ts == 1


# ---------------------------------------------------------------------------
# Snapshot isolation semantics
# ---------------------------------------------------------------------------

def test_strong_si_sees_latest_snapshot(db):
    _put(db, "x", 1)
    _put(db, "x", 2)
    txn = db.begin()
    assert txn.read("x") == 2


def test_snapshot_fixed_at_begin(db):
    _put(db, "x", 1)
    reader = db.begin()
    _put(db, "x", 2)
    assert reader.read("x") == 1        # sees the state as of its start
    reader.commit()


def test_repeatable_reads(db):
    _put(db, "x", 1)
    reader = db.begin()
    assert reader.read("x") == 1
    _put(db, "x", 99)
    assert reader.read("x") == 1        # re-read returns the same version


def test_reads_never_block_on_concurrent_writer(db):
    _put(db, "x", 1)
    writer = db.begin(update=True)
    writer.write("x", 2)
    reader = db.begin()
    assert reader.read("x") == 1        # returns immediately, old version
    writer.commit()


def test_explicit_older_snapshot_weak_si(db):
    _put(db, "x", 1)
    _put(db, "x", 2)
    txn = db.begin(snapshot_ts=1)
    assert txn.read("x") == 1


def test_snapshot_ts_validation(db):
    _put(db, "x", 1)
    with pytest.raises(TransactionStateError):
        db.begin(snapshot_ts=5)
    with pytest.raises(TransactionStateError):
        db.begin(snapshot_ts=-1)


def test_concurrent_writers_see_same_base_snapshot(db):
    _put(db, "x", 10)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    assert t1.read("x") == 10
    assert t2.read("x") == 10
    t1.write("a", 1)
    t2.write("b", 2)
    t1.commit()
    t2.commit()                         # disjoint writes: both commit
    state = db.state_at()
    assert state["a"] == 1 and state["b"] == 2


# ---------------------------------------------------------------------------
# First-committer-wins
# ---------------------------------------------------------------------------

def test_fcw_aborts_second_committer(db):
    _put(db, "x", 0)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.write("x", 1)
    t2.write("x", 2)
    t1.commit()
    with pytest.raises(FirstCommitterWinsError) as excinfo:
        t2.commit()
    assert excinfo.value.key == "x"
    assert t2.status is TxnStatus.ABORTED
    assert db.get_committed("x") == 1   # the first committer's value


def test_fcw_considers_commit_order_not_start_order(db):
    t_early = db.begin(update=True)     # starts first
    t_late = db.begin(update=True)
    t_late.write("x", "late")
    t_late.commit()                     # commits first -> wins
    t_early.write("x", "early")
    with pytest.raises(FirstCommitterWinsError):
        t_early.commit()


def test_no_fcw_for_sequential_transactions(db):
    _put(db, "x", 1)
    _put(db, "x", 2)                    # same key, but sequential: fine
    assert db.get_committed("x") == 2


def test_fcw_applies_to_deletes(db):
    _put(db, "x", 1)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.delete("x")
    t2.write("x", 2)
    t1.commit()
    with pytest.raises(FirstCommitterWinsError):
        t2.commit()


def test_fcw_error_names_winner(db):
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.write("k", 1)
    t2.write("k", 2)
    t1.commit()
    with pytest.raises(FirstCommitterWinsError) as excinfo:
        t2.commit()
    assert excinfo.value.winner_txn_id == t1.txn_id


def test_aborted_transaction_writes_discarded(db):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.abort()
    assert db.get_committed("x", "absent") == "absent"
    assert db.aborts == 1


def test_operations_on_finished_txn_rejected(db):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.commit()
    with pytest.raises(TransactionStateError):
        txn.read("x")
    with pytest.raises(TransactionStateError):
        txn.write("x", 2)
    with pytest.raises(TransactionStateError):
        txn.commit()


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def test_scan_range(db):
    for i in range(5):
        _put(db, f"k{i}", i)
    txn = db.begin()
    assert txn.scan("k1", "k3") == [("k1", 1), ("k2", 2), ("k3", 3)]


def test_scan_prefix(db):
    _put(db, "user:1", "a")
    _put(db, "user:2", "b")
    _put(db, "zzz", "c")
    txn = db.begin()
    assert txn.scan(prefix="user:") == [("user:1", "a"), ("user:2", "b")]


def test_scan_sees_own_inserts(db):
    _put(db, "k1", 1)
    txn = db.begin(update=True)
    txn.write("k2", 2)
    assert txn.scan("k0", "k9") == [("k1", 1), ("k2", 2)]
    txn.commit()


def test_scan_hides_own_deletes(db):
    _put(db, "k1", 1)
    _put(db, "k2", 2)
    txn = db.begin(update=True)
    txn.delete("k1")
    assert txn.scan("k0", "k9") == [("k2", 2)]
    txn.commit()


def test_scan_is_snapshot_consistent(db):
    _put(db, "k1", 1)
    reader = db.begin()
    _put(db, "k2", 2)
    assert reader.scan("k0", "k9") == [("k1", 1)]   # no phantom


# ---------------------------------------------------------------------------
# State views & crash
# ---------------------------------------------------------------------------

def test_state_at_each_timestamp(db):
    _put(db, "x", 1)
    _put(db, "y", 2)
    _put(db, "x", 3)
    assert db.state_at(0) == {}
    assert db.state_at(1) == {"x": 1}
    assert db.state_at(2) == {"x": 1, "y": 2}
    assert db.state_at(3) == {"x": 3, "y": 2}


def test_crash_blocks_operations(db):
    _put(db, "x", 1)
    db.crash()
    with pytest.raises(SiteUnavailableError):
        db.begin()
    assert db.crashed


def test_crash_aborts_active_transactions(db):
    txn = db.begin(update=True)
    txn.write("x", 1)
    db.crash()
    assert txn.status is TxnStatus.ABORTED


def test_recover_from_state(db):
    _put(db, "x", 1)
    db.crash()
    db.recover_from({"x": 42, "y": 7}, source_commit_ts=9)
    assert not db.crashed
    assert db.latest_commit_ts == 9
    assert db.state_at() == {"x": 42, "y": 7}
    # Subsequent commits continue from the source timestamp.
    assert _put(db, "z", 1) == 10


def test_write_set_and_read_set_tracking(db):
    _put(db, "x", 1)
    txn = db.begin(update=True)
    txn.read("x")
    txn.write("y", 2)
    txn.delete("z")
    assert txn.read_set == {"x"}
    assert txn.write_set == {"y", "z"}


def test_apply_update_records(db):
    txn = db.begin(update=True)
    txn.apply_update_records([("a", 1, False), ("b", 2, False),
                              ("a", None, True)])
    txn.commit()
    assert db.state_at() == {"b": 2}


def test_repeat_reads_do_not_grow_read_keys(db):
    _put(db, "x", 1)
    txn = db.begin()
    for _ in range(100):
        txn.read("x")
        txn.read("y", default=None)
    assert txn.read_set == {"x", "y"}
    # First-read order preserved, duplicates dropped at the source.
    assert txn._read_keys == ["x", "y"]


def test_scan_merges_many_own_new_keys(db):
    _put(db, "a", 0)
    txn = db.begin(update=True)
    for i in range(50):
        txn.write(f"new{i:02d}", i)
    out = txn.scan()
    assert len(out) == 51
    assert out[0] == ("a", 0)
    assert ("new00", 0) in out and ("new49", 49) in out
    # Own-written keys already emitted from the index are not duplicated.
    txn.write("a", 99)
    out = txn.scan()
    assert [k for k, _ in out].count("a") == 1
    assert dict(out)["a"] == 99


def test_scan_rejects_bounds_together_with_a_prefix(db):
    """``scan(lo, hi, prefix=...)`` used to ignore the bounds silently —
    and record them in the scan event as if they had been applied."""
    for key in ("a1", "a2", "b1"):
        _put(db, key, key)
    txn = db.begin()
    for lo, hi in (("a2", "b1"), ("a2", None), (None, "b1")):
        with pytest.raises(InvalidScanError, match="not both"):
            txn.scan(lo, hi, prefix="a")
    assert txn.scan(prefix="a") == [("a1", "a1"), ("a2", "a2")]
    assert txn.scan("a2", "b1") == [("a2", "a2"), ("b1", "b1")]


def test_scans_of_an_untouched_range_share_their_rows(db):
    """The newest state's rows are memoised per chain: two scans return
    the same row objects, and a write replaces exactly the written row."""
    for i in range(5):
        _put(db, f"k{i}", i)
    first = db.begin().scan("k1", "k3")
    second = db.begin().scan("k1", "k3")
    assert first == [("k1", 1), ("k2", 2), ("k3", 3)]
    assert first is not second              # the lists are the callers'
    assert all(a is b for a, b in zip(first, second))
    _put(db, "k2", "new")
    third = db.begin().scan("k1", "k3")
    assert third == [("k1", 1), ("k2", "new"), ("k3", 3)]
    assert [a is b for a, b in zip(first, third)] == [True, False, True]
    # A snapshot older than the write walks the chains and still sees 2.
    assert db.begin(snapshot_ts=5).scan("k1", "k3") == first


@pytest.mark.parametrize("refresh", [False, True],
                         ids=["local-commit", "refresh-commit"])
def test_commit_with_an_unorderable_key_changes_nothing(refresh):
    """A key that cannot be sorted among the stored keys used to raise a
    raw TypeError half-way through the install: counter advanced, the
    earlier writes visible, the transaction still active, nothing
    logged.  It must abort the transaction and leave no trace."""
    log = LogicalLog()
    db = SIDatabase(name="test", log=log)
    _put(db, "a", 0)
    state, commit_ts = db.state_at(), db.latest_commit_ts
    txn = db.begin(update=True)
    txn.write("b", 2)
    txn.write(5, 1)
    with pytest.raises(UnorderableKeyError) as exc_info:
        if refresh:
            db.commit_refresh_at(txn, commit_ts + 1)
        else:
            txn.commit()
    assert exc_info.value.key == 5
    assert txn.status is TxnStatus.ABORTED
    assert db.active_transactions == []
    assert db.latest_commit_ts == commit_ts
    assert db.state_at() == state == {"a": 0}
    assert len(db._index) == len(db._chains) == 1
    tail = log.records()[-1]
    assert isinstance(tail, AbortRecord) and tail.txn_id == txn.txn_id
    # The database is whole: the same writes without the bad key commit.
    assert _put(db, "b", 2) == commit_ts + 1
    assert db.begin().scan() == [("a", 0), ("b", 2)]


def test_first_commit_of_mutually_unorderable_keys_is_refused(db):
    txn = db.begin(update=True)
    txn.write("b", 2)
    txn.write(5, 1)
    with pytest.raises(UnorderableKeyError):
        txn.commit()
    assert db.latest_commit_ts == 0 and db.state_at() == {}
    assert len(db._index) == len(db._chains) == 0
