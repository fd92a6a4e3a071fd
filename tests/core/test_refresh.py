"""Tests for Algorithms 3.2/3.3 — the refresher ordering lemmas.

Records are injected straight into a secondary's update queue in primary
log order, and the recorded history is inspected to verify the start/commit
interleavings that Lemmas 3.1-3.3 promise.
"""

import pytest

from repro.core.records import (
    PropagatedAbort,
    PropagatedCommit,
    PropagatedStart,
)
from repro.core.site import SecondarySite
from repro.errors import ReplicationError
from repro.kernel import Kernel
from repro.txn.history import HistoryRecorder


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def site(kernel, recorder):
    return SecondarySite(kernel, name="secondary-1", recorder=recorder)


def start(txn_id, start_ts=0):
    return PropagatedStart(txn_id=txn_id, start_ts=start_ts)


def commit(txn_id, commit_ts, updates=()):
    return PropagatedCommit(txn_id=txn_id, commit_ts=commit_ts,
                            updates=tuple(updates))


def _events(recorder, kind):
    """(refresh_of, seq) pairs of the given event kind at the secondary."""
    return [(e.refresh_of, e.seq) for e in recorder.events
            if e.kind == kind and e.refresh_of is not None]


def test_refresh_applies_updates(kernel, site):
    site.update_queue.put(start(1))
    site.update_queue.put(commit(1, 1, [("x", 10, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 10}
    assert site.seq_db == 1


def test_lemma_3_3_commit_order_preserved(kernel, recorder, site):
    """commit_p(T1) < commit_p(T2) => commit_s(R1) < commit_s(R2), even
    for transactions whose refreshes run concurrently."""
    # Primary schedule: start1, start2, commit1, commit2 (concurrent txns).
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(commit(1, 1, [("a", 1, False)]))
    site.update_queue.put(commit(2, 2, [("b", 2, False)]))
    kernel.run()
    commits = _events(recorder, "commit")
    assert [c[0] for c in commits] == ["txn-p1", "txn-p2"]
    assert site.seq_db == 2


def test_lemma_3_2_sequential_txns_stay_sequential(kernel, recorder, site):
    """commit_p(T1) < start_p(T2) => commit_s(R1) < start_s(R2): the
    refresher blocks T2's start until the pending queue is empty."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(commit(1, 1, [("a", 1, False)]))
    site.update_queue.put(start(2, 1))
    site.update_queue.put(commit(2, 2, [("b", 2, False)]))
    kernel.run()
    commit_r1 = dict(_events(recorder, "commit"))["txn-p1"]
    begin_r2 = dict(_events(recorder, "begin"))["txn-p2"]
    assert commit_r1 < begin_r2


def test_lemma_3_1_start_before_later_commits(kernel, recorder, site):
    """start_p(T1) < commit_p(T2) => start_s(R1) < commit_s(R2)."""
    # Primary schedule: start1, start2, commit2, commit1.
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(commit(2, 1, [("b", 2, False)]))
    site.update_queue.put(commit(1, 2, [("a", 1, False)]))
    kernel.run()
    begin_r1 = dict(_events(recorder, "begin"))["txn-p1"]
    commit_r2 = dict(_events(recorder, "commit"))["txn-p2"]
    assert begin_r1 < commit_r2
    commits = _events(recorder, "commit")
    assert [c[0] for c in commits] == ["txn-p2", "txn-p1"]


def test_concurrent_refresh_snapshot_semantics(kernel, site):
    """A refresh transaction sees the state produced by the refresh of the
    last transaction that committed before its start at the primary."""
    site.update_queue.put(start(1, 0))
    site.update_queue.put(commit(1, 1, [("x", 1, False)]))
    site.update_queue.put(start(2, 1))       # T2 saw S^1 at the primary
    site.update_queue.put(commit(2, 2, [("y", 2, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 1, "y": 2}


def test_abort_record_discards_refresh_txn(kernel, site):
    site.update_queue.put(start(1))
    site.update_queue.put(PropagatedAbort(txn_id=1))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(commit(2, 1, [("x", 5, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 5}
    assert site.engine.aborts == 1
    assert site.seq_db == 1


def test_late_join_commit_without_start(kernel, site):
    """A commit whose start record was lost (old epoch) is serialised in."""
    site.update_queue.put(commit(9, 1, [("x", 1, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 1}
    assert site.seq_db == 1


def test_empty_commit_advances_seq_db(kernel, site):
    site.update_queue.put(start(1))
    site.update_queue.put(commit(1, 1, []))
    kernel.run()
    assert site.seq_db == 1
    assert site.engine.state_at() == {}


def test_serial_refresher_applies_in_order(kernel, recorder):
    site = SecondarySite(kernel, name="secondary-1", recorder=recorder,
                         serial_refresh=True)
    site.update_queue.put(start(1, 0))
    site.update_queue.put(start(2, 0))
    site.update_queue.put(commit(1, 1, [("a", 1, False)]))
    site.update_queue.put(commit(2, 2, [("b", 2, False)]))
    kernel.run()
    assert site.engine.state_at() == {"a": 1, "b": 2}
    assert site.seq_db == 2


def test_refreshes_applied_counter(kernel, site):
    for i in (1, 2, 3):
        site.update_queue.put(start(i, i - 1))
        site.update_queue.put(commit(i, i, [("k", i, False)]))
    kernel.run()
    assert site.refresher.refreshes_applied == 3


def test_seq_cond_notified_on_refresh(kernel, site):
    seen = []

    def waiter():
        yield site.seq_cond.wait_for(lambda: site.seq_db >= 1)
        seen.append(site.seq_db)

    kernel.spawn(waiter())
    site.update_queue.put(start(1))
    site.update_queue.put(commit(1, 1, [("x", 1, False)]))
    kernel.run()
    assert seen == [1]


def test_tombstone_updates_replicated(kernel, site):
    site.update_queue.put(start(1, 0))
    site.update_queue.put(commit(1, 1, [("x", 1, False)]))
    site.update_queue.put(start(2, 1))
    site.update_queue.put(commit(2, 2, [("x", None, True)]))
    kernel.run()
    assert site.engine.state_at() == {}


def test_idle_property(kernel, site):
    assert site.refresher.idle
    site.update_queue.put(start(1))
    assert not site.refresher.idle
    site.update_queue.put(commit(1, 1, []))
    kernel.run()
    assert site.refresher.idle


@pytest.mark.parametrize("knobs", [{}, {"parallel_refresh": 2}],
                         ids=["ordered", "parallel"])
def test_stream_that_skips_a_commit_number_fails_loudly(kernel, knobs):
    """A full-replication stream is contiguous.  Commit 3 arriving
    straight after commit 1 used to end with ``seq(DBsec) == 3`` over an
    engine at state 2 (ordered: every later state misnumbered), or with
    commit 3 installed, never visible, and the refresher reporting idle
    (parallel: ``quiesce()`` returned on a replica that would never
    converge).  The publish loop now refuses the gap."""
    site = SecondarySite(kernel, name="secondary-1", **knobs)
    site.update_queue.put(start(1, 0))
    site.update_queue.put(commit(1, 1, [("k1", 1, False)]))
    site.update_queue.put(start(3, 1))
    site.update_queue.put(commit(3, 3, [("k3", 3, False)]))
    with pytest.raises(ReplicationError,
                       match="commit 3 cannot follow local state 1"):
        kernel.run()
    assert site.seq_db == site.engine.latest_commit_ts == 1
    assert site.engine.state_at() == {"k1": 1}
    assert not site.refresher.idle
