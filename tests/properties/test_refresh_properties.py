"""Property-based tests of the refresher under random primary schedules.

A random-but-valid primary schedule (interleaved starts/commits/aborts of
update transactions, in timestamp order) is delivered to a secondary;
whatever the interleaving, the refresher must commit refresh
transactions in primary commit order and produce exactly the primary's
final state.  Below the refresher, the kernel-free
:class:`~repro.core.refresh.ApplySchedule` is driven directly by random
admit/finish interleavings.
"""

from hypothesis import given, settings, strategies as st

from repro.core.records import (
    PropagatedAbort,
    PropagatedCommit,
    PropagatedStart,
)
from repro.core.refresh import ApplySchedule
from repro.core.site import SecondarySite
from repro.kernel import Kernel
from repro.txn.history import HistoryRecorder


@st.composite
def primary_schedules(draw):
    """Generate a valid primary log: starts interleave arbitrarily, every
    started txn later commits or aborts, commit timestamps are dense and
    assigned in commit order, concurrent committers have disjoint writes.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    txns = list(range(1, n + 1))
    # Build an interleaving: each txn emits "start" then later "end".
    events = []
    active = []
    pending = list(txns)
    draw_bool = lambda label: draw(st.booleans())  # noqa: E731
    while pending or active:
        start_next = pending and (not active or draw_bool("start_next"))
        if start_next:
            txn = pending.pop(0)
            events.append(("start", txn))
            active.append(txn)
        else:
            index = draw(st.integers(min_value=0, max_value=len(active) - 1))
            txn = active.pop(index)
            aborts = draw(st.booleans())
            events.append(("abort" if aborts else "commit", txn))
    # The keys are unique, so first-committer-wins (FCW) never fires.
    return events


@settings(max_examples=60, deadline=None)
@given(primary_schedules())
def test_refresher_commits_in_primary_commit_order(events):
    kernel = Kernel()
    recorder = HistoryRecorder()
    site = SecondarySite(kernel, name="secondary-1", recorder=recorder)
    commit_ts = 0
    expected_state = {}
    expected_commit_order = []
    start_ts = {}
    for kind, txn in events:
        if kind == "start":
            start_ts[txn] = commit_ts
            site.receive(
                PropagatedStart(txn_id=txn, start_ts=commit_ts))
        elif kind == "abort":
            site.receive(PropagatedAbort(txn_id=txn))
        else:
            commit_ts += 1
            updates = ((f"k{txn}", commit_ts, False),)
            expected_state[f"k{txn}"] = commit_ts
            expected_commit_order.append(txn)
            site.receive(PropagatedCommit(
                txn_id=txn, commit_ts=commit_ts, updates=updates))
    kernel.run()
    assert site.engine.state_at() == expected_state
    assert site.seq_db == commit_ts
    committed = [v for v in recorder.committed(site="secondary-1")
                 if v.is_refresh]
    observed_order = [int(v.refresh_of.removeprefix("txn-p"))
                      for v in committed]
    assert observed_order == expected_commit_order


@settings(max_examples=40, deadline=None)
@given(primary_schedules())
def test_refresher_relationship_2_start_after_prior_commits(events):
    """For sequential primary txns (commit_p(T1) < start_p(T2)), R2 must
    begin after R1 commits at the secondary."""
    kernel = Kernel()
    recorder = HistoryRecorder()
    site = SecondarySite(kernel, name="secondary-1", recorder=recorder)
    commit_ts = 0
    commit_pos = {}
    start_pos = {}
    position = 0
    for kind, txn in events:
        position += 1
        if kind == "start":
            start_pos[txn] = position
            site.receive(
                PropagatedStart(txn_id=txn, start_ts=commit_ts))
        elif kind == "abort":
            site.receive(PropagatedAbort(txn_id=txn))
        else:
            commit_ts += 1
            commit_pos[txn] = position
            site.receive(PropagatedCommit(
                txn_id=txn, commit_ts=commit_ts,
                updates=((f"k{txn}", 1, False),)))
    kernel.run()
    begins = {}
    commits = {}
    for event in recorder.events:
        if event.refresh_of is None:
            continue
        txn = int(event.refresh_of.removeprefix("txn-p"))
        if event.kind == "begin":
            begins[txn] = event.seq
        elif event.kind == "commit":
            commits[txn] = event.seq
    for t1, c1 in commit_pos.items():
        for t2, s2 in start_pos.items():
            if c1 < s2 and t1 in commits and t2 in begins:
                assert commits[t1] < begins[t2], \
                    f"R{t2} started before R{t1} committed"


@settings(max_examples=40, deadline=None)
@given(primary_schedules(), st.integers(min_value=0, max_value=100))
def test_serial_and_concurrent_refresher_agree(events, _seed):
    """Final state and seq(DBsec) are identical for both refresher modes."""
    states = []
    for serial in (False, True):
        kernel = Kernel()
        site = SecondarySite(kernel, name="secondary-1",
                             serial_refresh=serial)
        commit_ts = 0
        for kind, txn in events:
            if kind == "start":
                site.receive(
                    PropagatedStart(txn_id=txn, start_ts=commit_ts))
            elif kind == "abort":
                site.receive(PropagatedAbort(txn_id=txn))
            else:
                commit_ts += 1
                site.receive(PropagatedCommit(
                    txn_id=txn, commit_ts=commit_ts,
                    updates=((f"k{txn}", commit_ts, False),)))
        kernel.run()
        states.append((site.engine.state_at(), site.seq_db))
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# The apply schedule alone: random admit/finish interleavings
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.sampled_from([None, 1, 2, 4]), st.booleans(), st.data())
def test_apply_schedule_discipline(slots, ordered, data):
    """Commits 1..n are admitted in order, each with random earlier
    predecessors, and running jobs finish in random order; the test
    starts what ``admit`` returns and what ``take`` hands out after each
    finish, as the refresher and the simulator do."""
    n = data.draw(st.integers(min_value=1, max_value=12), label="n")
    after = {ts: data.draw(st.sets(st.integers(1, ts - 1)) if ts > 1
                           else st.just(set()), label=f"after {ts}")
             for ts in range(1, n + 1)}
    published = []
    schedule = ApplySchedule(
        slots, ordered, lambda ts, held: published.append((ts, held)))
    finished = set()
    running = []
    #: Jobs that may run but have not started -> (step, ts) they became
    #: runnable at; FIFO means the smallest starts first.
    runnable_since = {}
    #: Parked jobs -> predecessors still unfinished.
    waiting_on = {}

    def start(ts):
        if not ordered:
            assert after[ts] <= finished, \
                f"commit {ts} started before a predecessor finished"
        assert runnable_since[ts] == min(runnable_since.values()), \
            f"commit {ts} overtook an older runnable job"
        del runnable_since[ts]
        running.append(ts)
        assert schedule.busy == len(running)
        assert slots is None or schedule.busy <= slots

    next_ts = 1
    step = 0
    while next_ts <= n or running:
        step += 1
        if next_ts <= n and (not running
                             or data.draw(st.booleans(), label="admit")):
            ts = next_ts
            next_ts += 1
            blockers = set() if ordered else after[ts] - finished
            if blockers:
                waiting_on[ts] = blockers
            else:
                runnable_since[ts] = (step, ts)
            job = schedule.admit(ts, ts, after[ts])
            if job is not None:
                start(job)
        else:
            ts = running.pop(data.draw(
                st.integers(0, len(running) - 1), label="finish"))
            finished.add(ts)
            for dependent in sorted(waiting_on):
                waiting_on[dependent].discard(ts)
                if not waiting_on[dependent]:
                    del waiting_on[dependent]
                    runnable_since[dependent] = (step, dependent)
            before = len(published)
            newest = schedule.finish(ts, held=f"R{ts}")
            # Visible: exactly the contiguous finished prefix, in
            # admission order, each commit with what was held for it.
            assert published == [(t, f"R{t}")
                                 for t in range(1, len(published) + 1)]
            assert set(range(1, len(published) + 1)) <= finished
            assert len(published) + 1 not in finished
            assert newest == (published[-1][0]
                              if len(published) > before else 0)
            while (job := schedule.take()) is not None:
                start(job)
        # No free slot idles while a job may run.
        assert not runnable_since or schedule.busy == slots
    assert not waiting_on and not runnable_since
    assert len(published) == n and not schedule.pending
    assert schedule.refreshes_applied == n
    assert slots is None or schedule.max_concurrent_applicators <= slots
