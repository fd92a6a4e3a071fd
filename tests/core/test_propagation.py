"""Tests for Algorithm 3.1 (primary update propagation)."""

import random

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


def test_an_idle_record_ships_in_its_own_instant(kernel, log, db):
    """With no flush in the last interval, a commit ships at once, and
    its start and commit, logged at the same instant, share one frame."""
    propagator = Propagator(kernel, log, batch_interval=10.0)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    kernel.run(until=3.0)
    _commit(db, "x", 1)
    kernel.run()
    assert len(endpoint.deliveries) == 1
    when, frame = endpoint.deliveries[0]
    assert when == 3.0
    assert isinstance(frame, PropagatedBatch)
    assert [type(r).__name__ for r in frame.records] == [
        "PropagatedStart", "PropagatedCommit"]


def test_batching_flushes_after_interval(kernel, log, db):
    # The first commit finds the link idle and ships at t = 0 (it used
    # to wait for t = 10); the second, logged within the interval,
    # waits for the next free slot, ``last flush + batch_interval``.
    propagator = Propagator(kernel, log, batch_interval=10.0)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    _commit(db, "x", 1)
    kernel.run(until=1.0)
    assert [when for when, _ in endpoint.deliveries] == [0.0]
    _commit(db, "x", 2)
    kernel.run(until=9.0)
    assert len(endpoint.deliveries) == 1     # still buffered
    kernel.run()
    # The whole cycle travels as ONE frame holding start + commit in order.
    assert len(endpoint.deliveries) == 2
    when, frame = endpoint.deliveries[1]
    assert when == 10.0
    assert isinstance(frame, PropagatedBatch)
    assert [type(r).__name__ for r in frame.records] == [
        "PropagatedStart", "PropagatedCommit"]


def test_records_within_the_interval_share_the_next_slot(kernel, log, db):
    """Commits at t = 3 and 7 wait for the slot at 10 (one frame); after
    an idle interval a commit at 25 ships at once, and one at 26 waits
    for 35."""
    propagator = Propagator(kernel, log, batch_interval=10.0)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    for at, value in ((0.0, 0), (3.0, 3), (7.0, 7), (25.0, 25),
                      (26.0, 26)):
        kernel.run(until=at)
        _commit(db, "x", value)
    kernel.run()
    frames = [(when, [r.updates[0][1] for r in frame.records
                      if isinstance(r, PropagatedCommit)])
              for when, frame in endpoint.deliveries]
    assert frames == [(0.0, [0]), (10.0, [3, 7]), (25.0, [25]),
                      (35.0, [26])]


@pytest.mark.parametrize("seed", range(20))
def test_flushes_are_at_least_an_interval_apart(kernel, log, db, seed):
    """Over a seeded stream of commits, every frame ships at
    ``max(first buffered record's instant, last flush + interval)``, so
    frames are at least an interval apart, and every record arrives once,
    in log order."""
    interval = 1.0
    propagator = Propagator(kernel, log, batch_interval=interval)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    rng = random.Random(seed)
    instants = []
    commits = 0
    at = 0.0
    for value in range(60):
        at += rng.expovariate(1.5)
        instants.append(at)
        kernel.run(until=at)
        for _ in range(rng.choice((1, 1, 2))):
            _commit(db, "x", value)
            commits += 1
    kernel.run()
    times = [when for when, _ in endpoint.deliveries]
    assert all(b >= a + interval for a, b in zip(times, times[1:]))
    shipped = [r.commit_ts for _, frame in endpoint.deliveries
               for r in frame.records if isinstance(r, PropagatedCommit)]
    assert shipped == list(range(1, commits + 1))
    # The reference schedule: a flush armed at an earlier instant has
    # run by the time the next instant's commits are logged.
    expected, last, pending = [], float("-inf"), None
    for when in instants:
        if pending is not None and pending <= when:
            expected.append(pending)
            last, pending = pending, None
        if pending is None:
            pending = max(when, last + interval)
    expected.append(pending)
    assert times == expected


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
    # The first commit ships at t = 0 on an idle link, so it is the
    # second one, armed for t = 10, that the pause catches buffered.
    propagator = Propagator(kernel, log, batch_interval=10.0)
    endpoint = FakeEndpoint(kernel)
    propagator.attach(endpoint)
    _commit(db, "x", 1)
    kernel.run(until=1.0)
    _commit(db, "x", 2)
    kernel.run(until=5.0)
    propagator.pause()              # before the batch flushes
    kernel.run()                    # flush timer fires while paused
    assert len(endpoint.deliveries) == 1
    propagator.resume()             # ships at once, as before
    kernel.run()
    assert [when for when, _ in endpoint.deliveries] == [0.0, 10.0]
    assert endpoint.deliveries[1][1].count == 2


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
