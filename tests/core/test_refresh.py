"""Tests for Algorithms 3.2/3.3 — the refresher ordering lemmas.

Records are handed straight to a secondary (``SecondarySite.receive``) in
primary log order, and the recorded history is inspected to verify the
start/commit interleavings that Lemmas 3.1-3.3 promise.
"""

import pytest

from repro.core.records import (
    PropagatedAbort,
    PropagatedBatch,
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
    site.receive(start(1))
    site.receive(commit(1, 1, [("x", 10, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 10}
    assert site.seq_db == 1


def test_lemma_3_3_commit_order_preserved(kernel, recorder, site):
    """commit_p(T1) < commit_p(T2) => commit_s(R1) < commit_s(R2), even
    for transactions whose refreshes run concurrently."""
    # Primary schedule: start1, start2, commit1, commit2 (concurrent txns).
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(commit(1, 1, [("a", 1, False)]))
    site.receive(commit(2, 2, [("b", 2, False)]))
    kernel.run()
    commits = _events(recorder, "commit")
    assert [c[0] for c in commits] == ["txn-p1", "txn-p2"]
    assert site.seq_db == 2


def test_lemma_3_2_sequential_txns_stay_sequential(kernel, recorder, site):
    """commit_p(T1) < start_p(T2) => commit_s(R1) < start_s(R2): the
    refresher blocks T2's start until the pending queue is empty."""
    site.receive(start(1, 0))
    site.receive(commit(1, 1, [("a", 1, False)]))
    site.receive(start(2, 1))
    site.receive(commit(2, 2, [("b", 2, False)]))
    kernel.run()
    commit_r1 = dict(_events(recorder, "commit"))["txn-p1"]
    begin_r2 = dict(_events(recorder, "begin"))["txn-p2"]
    assert commit_r1 < begin_r2


def test_lemma_3_1_start_before_later_commits(kernel, recorder, site):
    """start_p(T1) < commit_p(T2) => start_s(R1) < commit_s(R2)."""
    # Primary schedule: start1, start2, commit2, commit1.
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(commit(2, 1, [("b", 2, False)]))
    site.receive(commit(1, 2, [("a", 1, False)]))
    kernel.run()
    begin_r1 = dict(_events(recorder, "begin"))["txn-p1"]
    commit_r2 = dict(_events(recorder, "commit"))["txn-p2"]
    assert begin_r1 < commit_r2
    commits = _events(recorder, "commit")
    assert [c[0] for c in commits] == ["txn-p2", "txn-p1"]


def test_concurrent_refresh_snapshot_semantics(kernel, site):
    """A refresh transaction sees the state produced by the refresh of the
    last transaction that committed before its start at the primary."""
    site.receive(start(1, 0))
    site.receive(commit(1, 1, [("x", 1, False)]))
    site.receive(start(2, 1))       # T2 saw S^1 at the primary
    site.receive(commit(2, 2, [("y", 2, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 1, "y": 2}


def test_abort_record_discards_refresh_txn(kernel, site):
    site.receive(start(1))
    site.receive(PropagatedAbort(txn_id=1))
    site.receive(start(2, 0))
    site.receive(commit(2, 1, [("x", 5, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 5}
    assert site.engine.aborts == 1
    assert site.seq_db == 1


def test_late_join_commit_without_start(kernel, site):
    """A commit whose start record was lost (old epoch) is serialised in."""
    site.receive(commit(9, 1, [("x", 1, False)]))
    kernel.run()
    assert site.engine.state_at() == {"x": 1}
    assert site.seq_db == 1


def test_empty_commit_advances_seq_db(kernel, site):
    site.receive(start(1))
    site.receive(commit(1, 1, []))
    kernel.run()
    assert site.seq_db == 1
    assert site.engine.state_at() == {}


def test_serial_refresher_applies_in_order(kernel, recorder):
    site = SecondarySite(kernel, name="secondary-1", recorder=recorder,
                         serial_refresh=True)
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(commit(1, 1, [("a", 1, False)]))
    site.receive(commit(2, 2, [("b", 2, False)]))
    kernel.run()
    assert site.engine.state_at() == {"a": 1, "b": 2}
    assert site.seq_db == 2


def test_refreshes_applied_counter(kernel, site):
    for i in (1, 2, 3):
        site.receive(start(i, i - 1))
        site.receive(commit(i, i, [("k", i, False)]))
    kernel.run()
    assert site.refresher.refreshes_applied == 3


def test_seq_cond_notified_on_refresh(kernel, site):
    seen = []

    def waiter():
        yield site.seq_cond.wait_for(lambda: site.seq_db >= 1)
        seen.append(site.seq_db)

    kernel.spawn(waiter())
    site.receive(start(1))
    site.receive(commit(1, 1, [("x", 1, False)]))
    kernel.run()
    assert seen == [1]


def test_tombstone_updates_replicated(kernel, site):
    site.receive(start(1, 0))
    site.receive(commit(1, 1, [("x", 1, False)]))
    site.receive(start(2, 1))
    site.receive(commit(2, 2, [("x", None, True)]))
    kernel.run()
    assert site.engine.state_at() == {}


def test_idle_property(kernel):
    """``idle`` — what ``quiesce`` waits for — holds exactly when no
    delivered record is unapplied: none pending, none held."""
    site = SecondarySite(kernel, name="secondary-1", refresh_apply_cost=1.0)
    assert site.refresher.idle
    site.receive(start(1))
    assert site.refresher.idle          # begun on arrival; nothing owed
    site.receive(commit(1, 1, [("x", 1, False)]))
    site.receive(start(2, 1))
    site.receive(commit(2, 2, [("y", 2, False)]))
    assert not site.refresher.idle      # commit 1 applying, start 2 held
    kernel.run(until=1.0)
    assert site.seq_db == 1
    assert not site.refresher.idle      # commit 2 applying
    kernel.run()
    assert site.refresher.idle
    assert site.seq_db == 2


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
    site.receive(start(1, 0))
    site.receive(commit(1, 1, [("k1", 1, False)]))
    site.receive(start(3, 1))
    site.receive(commit(3, 3, [("k3", 3, False)]))
    with pytest.raises(ReplicationError,
                       match="commit 3 cannot follow local state 1"):
        kernel.run()
    assert site.seq_db == site.engine.latest_commit_ts == 1
    assert site.engine.state_at() == {"k1": 1}
    assert not site.refresher.idle


# ---------------------------------------------------------------------------
# Delivery: each record is handled in its own arrival event; a start that
# must wait holds the refresher until the pending queue empties.
# ---------------------------------------------------------------------------

def _begins(recorder):
    """refresh_of -> (time, seq) of each refresh transaction's begin."""
    return {e.refresh_of: (e.time, e.seq) for e in recorder.events
            if e.kind == "begin" and e.refresh_of is not None}


def test_held_start_keeps_later_deliveries_in_order(kernel, recorder):
    """Start 2 arrives while commit 1 is pending: it and every later
    delivery wait, in arrival order.  The refresher resumes at the very
    instant commit 1's publish empties the pending queue — after the
    reader that publish woke — and holds again at start 3."""
    site = SecondarySite(kernel, name="secondary-1", recorder=recorder,
                         refresh_apply_cost=1.0)
    woken = []

    def reader():
        yield site.seq_cond.wait_for(lambda: site.seq_db >= 1)
        txn = site.begin_read_only()
        woken.append(recorder.events[-1].seq)
        txn.commit()

    kernel.spawn(reader())
    kernel.run()
    for record in (start(1, 0), commit(1, 1, [("a", 1, False)]),
                   start(2, 1), commit(2, 2, [("b", 2, False)]),
                   start(3, 2), PropagatedAbort(txn_id=3),
                   start(4, 2), commit(4, 3, [("c", 3, False)])):
        site.receive(record)
    assert list(_begins(recorder)) == ["txn-p1"]

    kernel.run(until=0.5)
    assert list(_begins(recorder)) == ["txn-p1"]
    assert site.engine.state_at() == {}

    kernel.run()
    begins = _begins(recorder)
    assert [name for name in begins] \
        == ["txn-p1", "txn-p2", "txn-p3", "txn-p4"]
    # Resumed at commit 1's publish instant, behind the woken reader.
    assert begins["txn-p2"][0] == 1.0
    assert woken and woken[0] < begins["txn-p2"][1]
    # Start 3 waited for commit 2; the abort and start 4 right behind it.
    assert begins["txn-p3"][0] == begins["txn-p4"][0] == 2.0
    assert [e.refresh_of for e in recorder.events if e.kind == "abort"] \
        == ["txn-p3"]
    assert site.engine.state_at() == {"a": 1, "b": 2, "c": 3}
    assert site.seq_db == 3 and site.refresher.idle


def test_wait_mid_frame_resumes_at_the_next_record_of_the_frame(
        kernel, recorder):
    """One frame, three transactions: each start after the first waits
    for the commit before it, and the refresher picks the frame up at
    that start — neither skipping a record nor handling one twice."""
    site = SecondarySite(kernel, name="secondary-1", recorder=recorder,
                         refresh_apply_cost=1.0)
    site.receive(PropagatedBatch(records=(
        start(1, 0), commit(1, 1, [("a", 1, False)]),
        start(2, 1), commit(2, 2, [("b", 2, False)]),
        start(3, 2), commit(3, 3, [("c", 3, False)]))))
    kernel.run()
    begins = _begins(recorder)
    assert {name: time for name, (time, _seq) in begins.items()} \
        == {"txn-p1": 0.0, "txn-p2": 1.0, "txn-p3": 2.0}
    commits = [(e.refresh_of, e.time) for e in recorder.events
               if e.kind == "commit" and e.refresh_of is not None]
    assert commits == [("txn-p1", 1.0), ("txn-p2", 2.0), ("txn-p3", 3.0)]
    assert site.refresher.stale_records_dropped == 0
    assert site.engine.state_at() == {"a": 1, "b": 2, "c": 3}


def test_lag_counts_the_records_of_a_held_frame(kernel):
    """Staleness, admission's backlog and the promotion fence's count
    include the records a waiting refresher holds.  Here three commits
    are unapplied at t=0.5: commit 1 pending, and start 2 onward held in
    the frame — lag used to read 1 and the monitoring queue 0."""
    site = SecondarySite(kernel, name="secondary-1", refresh_apply_cost=1.0)
    site.receive(PropagatedBatch(records=(
        start(1, 0), commit(1, 1, [("a", 1, False)]),
        start(2, 1), commit(2, 2, [("b", 2, False)]),
        start(3, 2), commit(3, 3, [("c", 3, False)]))))
    kernel.run(until=0.5)
    assert site.refresher.pending_count == 1
    assert site.lag == 5
    assert site.refresher.queued == 4
    assert site.fence() == 5
    assert site.lag == 0 and site.refresher.idle


@pytest.mark.parametrize("failure", ["crash", "fence", "retire"])
def test_failure_while_held_drops_the_held_records(kernel, recorder,
                                                    failure):
    """The site fails at the instant commit 1 publishes — after the
    publish scheduled the resume, before it runs.  The held start 2 and
    commit 2 are dropped with the old incarnation, and the resume it
    scheduled applies nothing, to the restarted refresher (crash then
    recovery, fence) or to the retired one alike."""
    site = SecondarySite(kernel, name="secondary-1", recorder=recorder,
                         refresh_apply_cost=1.0)
    for record in (start(1, 0), commit(1, 1, [("a", 1, False)]),
                   start(2, 1), commit(2, 2, [("b", 2, False)])):
        site.receive(record)

    def fail():
        assert site.seq_db == 1            # published; resume scheduled
        if failure == "crash":
            site.crash()
            site.recover({"a": 1}, 1, {})
        else:
            getattr(site, failure)()
        # A record for the new regime: held by nothing, or by a retired
        # refresher for good — never handed to the stale resume.
        site.receive(start(5, 1))

    kernel.call_at(1.0, fail)
    kernel.run()
    begins = _begins(recorder)
    assert "txn-p2" not in begins
    assert ("txn-p5" in begins) == (failure != "retire")
    assert site.seq_db == 1
    assert site.engine.state_at() == {"a": 1}
    assert site.refresher.refreshes_applied == 1
    assert not site.refresher.pending
