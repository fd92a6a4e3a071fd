"""Tests for the logical log and its Section-3 guarantees."""

import pytest

from repro.storage.engine import SIDatabase
from repro.storage.wal import (
    AbortRecord,
    CommitRecord,
    LogicalLog,
    StartRecord,
    UpdateRecord,
)


@pytest.fixture
def log():
    return LogicalLog()


@pytest.fixture
def db(log):
    return SIDatabase(name="primary", log=log)


def test_log_starts_empty(log):
    assert len(log) == 0


def test_update_transaction_logs_start_updates_commit(db, log):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.write("y", 2)
    txn.commit()
    kinds = [type(r).__name__ for r in log]
    assert kinds == ["StartRecord", "UpdateRecord", "UpdateRecord",
                     "CommitRecord"]


def test_start_record_carries_start_ts(db, log):
    txn0 = db.begin(update=True)
    txn0.write("x", 0)
    txn0.commit()
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.commit()
    starts = [r for r in log if isinstance(r, StartRecord)]
    assert [s.start_ts for s in starts] == [0, 1]


def test_commit_record_carries_commit_ts(db, log):
    txn = db.begin(update=True)
    txn.write("x", 1)
    ts = txn.commit()
    commits = [r for r in log if isinstance(r, CommitRecord)]
    assert len(commits) == 1 and commits[0].commit_ts == ts


def test_abort_logs_abort_record(db, log):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.abort()
    assert isinstance(log.records()[-1], AbortRecord)


def test_read_only_transactions_not_logged(db, log):
    up = db.begin(update=True)
    up.write("x", 1)
    up.commit()
    before = len(log)
    ro = db.begin()
    ro.read("x")
    ro.commit()
    assert len(log) == before


def test_delete_logged_as_deleted_update(db, log):
    txn = db.begin(update=True)
    txn.delete("x")
    txn.commit()
    updates = [r for r in log if isinstance(r, UpdateRecord)]
    assert len(updates) == 1 and updates[0].deleted


def test_lsns_are_dense_and_ordered(db, log):
    for i in range(3):
        txn = db.begin(update=True)
        txn.write("k", i)
        txn.commit()
    assert [r.lsn for r in log] == list(range(len(log)))


def test_log_order_consistent_with_timestamp_order(db, log):
    """Section 3: start/commit timestamps consistent with operation order."""
    for i in range(5):
        txn = db.begin(update=True)
        txn.write("k", i)
        txn.commit()
    commit_ts_in_log_order = [r.commit_ts for r in log
                              if isinstance(r, CommitRecord)]
    assert commit_ts_in_log_order == sorted(commit_ts_in_log_order)


def test_subscription_sees_records_in_order(log):
    seen = []
    log.subscribe(seen.append)
    log.append_start(1, 0)
    log.append_update(1, "x", 10)
    log.append_commit(1, 1)
    assert [type(r).__name__ for r in seen] == [
        "StartRecord", "UpdateRecord", "CommitRecord"]


def test_unsubscribe(log):
    seen = []
    log.subscribe(seen.append)
    log.unsubscribe(seen.append)
    log.append_start(1, 0)
    assert seen == []


def test_records_from_lsn(log):
    log.append_start(1, 0)
    log.append_commit(1, 1)
    log.append_start(2, 1)
    tail = log.records(from_lsn=2)
    assert len(tail) == 1 and isinstance(tail[0], StartRecord)


def test_interleaved_transactions_log_shape(db, log):
    """Start records may interleave; update/commit stay attributable."""
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.write("a", 1)
    t2.write("b", 2)
    t2.commit()
    t1.commit()
    starts = [r.txn_id for r in log if isinstance(r, StartRecord)]
    commits = [r.txn_id for r in log if isinstance(r, CommitRecord)]
    assert starts == [t1.txn_id, t2.txn_id]
    assert commits == [t2.txn_id, t1.txn_id]
