"""Tests for Algorithm 3.1 (primary update propagation)."""

import pytest

from repro.core.propagation import Propagator
from repro.core.records import (
    PropagatedAbort,
    PropagatedBatch,
    PropagatedCommit,
    PropagatedStart,
)
from repro.kernel import Kernel
from repro.storage.engine import SIDatabase
from repro.storage.wal import LogicalLog


class FakeEndpoint:
    """Records deliveries with their arrival times."""

    subscription = None
    link = None

    def __init__(self, kernel, name="fake"):
        self.kernel = kernel
        self.name = name
        self.epoch = 0
        self.in_flight = 0
        self.deliveries = []

    def arrive(self, epoch, record):
        self.in_flight -= 1
        self.deliveries.append((self.kernel.now, record))


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def log():
    return LogicalLog()


@pytest.fixture
def db(log):
    return SIDatabase(name="primary", log=log)


def _commit(db, key, value):
    txn = db.begin(update=True)
    txn.write(key, value)
    return txn, txn.commit()


def test_start_propagated_immediately(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    txn = db.begin(update=True)
    txn.write("x", 1)          # updates buffered, not yet shipped
    kernel.run()
    records = [r for _, r in endpoint.deliveries]
    assert len(records) == 1
    assert isinstance(records[0], PropagatedStart)
    assert records[0].txn_id == txn.txn_id


def test_commit_ships_update_list_with_commit_ts(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    txn, ts = _commit(db, "x", 42)
    kernel.run()
    commit = [r for _, r in endpoint.deliveries
              if isinstance(r, PropagatedCommit)][0]
    assert commit.commit_ts == ts
    assert commit.updates == (("x", 42, False),)


def test_aborted_updates_never_shipped(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.abort()
    kernel.run()
    kinds = [type(r).__name__ for _, r in endpoint.deliveries]
    assert kinds == ["PropagatedStart", "PropagatedAbort"]


def test_propagation_order_is_log_order(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.write("a", 1)
    t2.write("b", 2)
    t2.commit()
    t1.commit()
    kernel.run()
    records = [r for _, r in endpoint.deliveries]
    assert [type(r).__name__ for r in records] == [
        "PropagatedStart", "PropagatedStart",
        "PropagatedCommit", "PropagatedCommit"]
    assert records[2].txn_id == t2.txn_id   # commit order preserved
    assert records[3].txn_id == t1.txn_id


def test_propagation_delay_applied(kernel, log, db):
    propagator = Propagator(kernel, log, delay=5.0)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    _commit(db, "x", 1)
    kernel.run()
    assert all(when == 5.0 for when, _ in endpoint.deliveries)


def test_batching_flushes_after_interval(kernel, log, db):
    propagator = Propagator(kernel, log, batch_interval=10.0)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    _commit(db, "x", 1)
    kernel.run(until=9.0)
    assert endpoint.deliveries == []         # still buffered
    kernel.run()
    # The whole cycle travels as ONE frame holding start + commit in order.
    assert len(endpoint.deliveries) == 1
    when, frame = endpoint.deliveries[0]
    assert when == 10.0
    assert isinstance(frame, PropagatedBatch)
    assert [type(r).__name__ for r in frame.records] == [
        "PropagatedStart", "PropagatedCommit"]


def test_batching_heap_drains_when_idle(kernel, log, db):
    """The flush is scheduled lazily, so an idle system quiesces."""
    Propagator(kernel, log, batch_interval=10.0)
    kernel.run()
    assert kernel.pending_events == 0


def test_broadcast_to_all_endpoints(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoints = [FakeEndpoint(kernel, f"e{i}") for i in range(3)]
    for endpoint in endpoints:
        propagator.attach(endpoint)
    _commit(db, "x", 1)
    kernel.run()
    assert all(len(e.deliveries) == 2 for e in endpoints)


def test_pause_and_resume(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    propagator.pause()
    _commit(db, "x", 1)
    kernel.run()
    assert endpoint.deliveries == []
    propagator.resume()
    kernel.run()
    assert len(endpoint.deliveries) == 2


def test_archive_keeps_all_commits(kernel, log, db):
    propagator = Propagator(kernel, log)
    _commit(db, "x", 1)
    _commit(db, "y", 2)
    assert [c.commit_ts for c in propagator.archive] == [1, 2]


def test_replay_to_delivers_tail_serially(kernel, log, db):
    propagator = Propagator(kernel, log)
    _commit(db, "x", 1)
    _commit(db, "y", 2)
    _commit(db, "z", 3)
    endpoint = FakeEndpoint(kernel)
    replayed = propagator.replay_to(endpoint, after_commit_ts=1)
    kernel.run()
    assert replayed == 2
    kinds = [type(r).__name__ for _, r in endpoint.deliveries]
    assert kinds == ["PropagatedStart", "PropagatedCommit",
                     "PropagatedStart", "PropagatedCommit"]
    commits = [r.commit_ts for _, r in endpoint.deliveries
               if isinstance(r, PropagatedCommit)]
    assert commits == [2, 3]


def test_empty_update_transaction_ships_empty_commit(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    txn = db.begin(update=True)
    txn.commit()
    kernel.run()
    commit = [r for _, r in endpoint.deliveries
              if isinstance(r, PropagatedCommit)][0]
    assert commit.updates == ()


def test_records_sent_counter(kernel, log, db):
    propagator = Propagator(kernel, log)
    propagator.attach(FakeEndpoint(kernel))
    _commit(db, "x", 1)
    assert propagator.records_sent == 2
    assert propagator.batches_sent == 0


def test_records_sent_counts_per_endpoint(kernel, log, db):
    """A record shipped to three secondaries is three deliveries."""
    propagator = Propagator(kernel, log)
    for i in range(3):
        propagator.attach(FakeEndpoint(kernel, f"e{i}"))
    _commit(db, "x", 1)
    assert propagator.records_sent == 6      # (start + commit) x 3
    assert propagator.batches_sent == 0


def test_records_logged_keeps_single_count_semantics(kernel, log, db):
    """``records_logged`` restores the pre-batch-shipping meaning of
    ``records_sent``: one count per log record, independent of how many
    endpoints it fans out to (and of whether it ships at all)."""
    propagator = Propagator(kernel, log)
    for i in range(3):
        propagator.attach(FakeEndpoint(kernel, f"e{i}"))
    _commit(db, "x", 1)
    assert propagator.records_logged == 2    # start + commit, once each
    assert propagator.records_sent == 6      # the same two, x 3 endpoints
    # A paused propagator buffers: nothing sent, but still logged.
    propagator.pause()
    _commit(db, "y", 2)
    assert propagator.records_logged == 4
    assert propagator.records_sent == 6


def test_batches_sent_counter(kernel, log, db):
    propagator = Propagator(kernel, log, batch_interval=10.0)
    for i in range(2):
        propagator.attach(FakeEndpoint(kernel, f"e{i}"))
    _commit(db, "x", 1)
    kernel.run()
    assert propagator.batches_sent == 2      # one frame per endpoint
    assert propagator.records_sent == 4      # (start + commit) x 2


def test_pause_during_batch_interval(kernel, log, db):
    """Records buffered for a batch must survive a pause/resume cycle."""
    propagator = Propagator(kernel, log, batch_interval=10.0)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    _commit(db, "x", 1)
    kernel.run(until=5.0)
    propagator.pause()              # before the batch flushes
    kernel.run()                    # flush timer fires while paused
    assert endpoint.deliveries == []
    propagator.resume()
    kernel.run()
    assert len(endpoint.deliveries) == 1
    assert endpoint.deliveries[0][1].count == 2


def test_new_records_while_paused_keep_order(kernel, log, db):
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    propagator.pause()
    _commit(db, "a", 1)
    _commit(db, "b", 2)
    propagator.resume()
    kernel.run()
    commits = [r.commit_ts for _, r in endpoint.deliveries
               if isinstance(r, PropagatedCommit)]
    assert commits == [1, 2]


def test_interleaved_update_lists_attributed_correctly(kernel, log, db):
    """Updates of concurrently-open transactions must not cross-pollute."""
    propagator = Propagator(kernel, log)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.write("a", "t1")
    t2.write("b", "t2")
    t1.write("c", "t1")
    t2.commit()
    t1.commit()
    kernel.run()
    commits = {r.txn_id: r for _, r in endpoint.deliveries
               if isinstance(r, PropagatedCommit)}
    assert commits[t1.txn_id].updates == (("a", "t1", False),
                                          ("c", "t1", False))
    assert commits[t2.txn_id].updates == (("b", "t2", False),)
