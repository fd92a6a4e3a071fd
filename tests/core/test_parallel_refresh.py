"""Dependency-tracked parallel refresh: the conflict-graph scheduler.

Commit records carrying write-set fingerprints and a ``dep_ts`` bound
are handed straight to a secondary (``receive``); the tests verify
the scheduler's contract — conflicting commits serialise, independent
commits overlap, and the watermark keeps every out-of-order apply
invisible until the contiguous prefix below it is complete — plus the
fence semantics and the dormant default.
"""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.monitoring import system_status
from repro.core.records import (
    PropagatedCommit,
    PropagatedStart,
    key_fingerprint,
)
from repro.core.site import SecondarySite
from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError
from repro.kernel import Kernel
from repro.sim.rng import RandomStreams
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.history import HistoryRecorder
from repro.workload.generator import ZipfianKeys


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def site(kernel, recorder):
    """Two parallel workers with a 1 s/op apply cost: commit durations
    are proportional to update-list length, so apply order is under
    test control."""
    return SecondarySite(kernel, name="secondary-1", recorder=recorder,
                         parallel_refresh=2, refresh_apply_cost=1.0)


def start(txn_id, start_ts=0):
    return PropagatedStart(txn_id=txn_id, start_ts=start_ts)


def commit(txn_id, commit_ts, updates, dep_ts=0, write_fps=None):
    updates = tuple(updates)
    if write_fps is None:
        write_fps = tuple(key_fingerprint(k) for k, _v, _d in updates)
    return PropagatedCommit(txn_id=txn_id, commit_ts=commit_ts,
                            updates=updates, write_fps=tuple(write_fps),
                            dep_ts=dep_ts)


def slow(txn_id, commit_ts, key, value, dep_ts=0):
    """A commit whose apply takes 3 virtual seconds (three updates of
    the same key fingerprint — the engine keeps the last value)."""
    ups = [(key, value, False)] * 3
    return commit(txn_id, commit_ts, ups, dep_ts=dep_ts)


def fast(txn_id, commit_ts, key, value, dep_ts=0, write_fps=None):
    return commit(txn_id, commit_ts, [(key, value, False)],
                  dep_ts=dep_ts, write_fps=write_fps)


def _commit_order(recorder):
    return [e.refresh_of for e in recorder.events
            if e.kind == "commit" and e.refresh_of is not None]


# ---------------------------------------------------------------------------
# The scheduler itself
# ---------------------------------------------------------------------------

def test_independent_commits_apply_out_of_order(kernel, recorder, site):
    """T2 (short, no conflict with T1) physically commits before T1 —
    the whole point of the mode."""
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(slow(1, 1, "a", 1))
    site.receive(fast(2, 2, "b", 2))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p2", "txn-p1"]
    assert site.refresher.out_of_order_commits == 1
    assert site.engine.state_at() == {"a": 1, "b": 2}
    assert site.seq_db == 2


def test_conflicting_commits_serialise(kernel, recorder, site):
    """T2 writes T1's key (dep_ts names T1): despite being much
    shorter it must wait for T1 and apply second."""
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(slow(1, 1, "x", 1))
    site.receive(fast(2, 2, "x", 2, dep_ts=1))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p1", "txn-p2"]
    assert site.refresher.out_of_order_commits == 0
    assert site.engine.state_at() == {"x": 2}
    assert site.seq_db == 2


def test_dep_ts_prunes_fingerprint_collisions(kernel, recorder, site):
    """A fingerprint match newer than the shipped dep_ts is a collision,
    not a real conflict: the edge is pruned and T2 still overtakes."""
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(slow(1, 1, "a", 1))
    # Same fingerprint as T1's key, but the primary says T2 depends on
    # nothing (dep_ts=0) — so the match cannot be a true conflict.
    site.receive(fast(2, 2, "b", 2,
                               write_fps=(key_fingerprint("a"),)))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p2", "txn-p1"]
    assert site.refresher.out_of_order_commits == 1


def test_transitive_dependency_chain(kernel, recorder, site):
    """T3 depends on T2 depends on T1: the chain applies strictly in
    order even with idle workers available."""
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(start(3, 0))
    site.receive(slow(1, 1, "x", 1))
    site.receive(fast(2, 2, "x", 2, dep_ts=1))
    site.receive(fast(3, 3, "x", 3, dep_ts=2))
    kernel.run()
    assert _commit_order(recorder) == ["txn-p1", "txn-p2", "txn-p3"]
    assert site.engine.state_at() == {"x": 3}
    assert site.seq_db == 3


def test_watermark_gates_visibility(kernel, site):
    """While T1 is still applying, T2's already-committed version is
    invisible: reads and seq(DBsec) stay at the watermark."""
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(slow(1, 1, "a", 1))      # finishes at t=3
    site.receive(fast(2, 2, "b", 2))      # finishes at t=1
    probed = {}

    def probe():
        probed["state"] = site.engine.state_at()
        probed["seq_db"] = site.seq_db
        probed["lag"] = site.refresher.watermark_lag

    kernel.call_at(2.0, probe)                     # T2 done, T1 not
    kernel.run()
    assert probed["state"] == {}
    assert probed["seq_db"] == 0
    assert probed["lag"] == 2
    # Once the prefix completes, seq_db publishes both at once.
    assert site.seq_db == 2
    assert site.refresher.watermark_lag == 0
    assert site.refresher.max_watermark_lag == 2


def test_seq_db_never_exposes_a_hole(kernel, site):
    """A strong-session waiter blocked on seq_db >= 1 wakes only when
    the watermark crosses 1 — which, with T1 finishing last, means it
    observes 2 directly (1 alone was never a published state)."""
    seen = []

    def waiter():
        yield site.seq_cond.wait_for(lambda: site.seq_db >= 1)
        seen.append(site.seq_db)

    kernel.spawn(waiter())
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(slow(1, 1, "a", 1))
    site.receive(fast(2, 2, "b", 2))
    kernel.run()
    assert seen == [2]


def test_fence_truncates_out_of_order_applies(kernel, site):
    """A fence catching the scheduler mid-hole rolls back every commit
    above the watermark: those versions were never visible, and the new
    epoch's feed re-delivers or supersedes them."""
    site.receive(start(1, 0))
    site.receive(start(2, 0))
    site.receive(slow(1, 1, "a", 1))
    site.receive(fast(2, 2, "b", 2))
    kernel.run(until=2.0)                  # T2 applied above the watermark
    assert site.refresher.pending_count == 1       # T1 still in flight
    discarded = site.fence()
    # The in-flight T1 plus the rolled-back T2 both count as fenced.
    assert discarded == 2
    assert site.engine.state_at() == {}
    assert site.engine.latest_commit_ts == 0
    assert site.seq_db == 0
    # No refresh transaction survives the fence, and the site still
    # serves: a fresh feed starts clean.
    assert not site.engine.active_transactions
    site.receive(start(9, 0))
    site.receive(fast(9, 1, "c", 3))
    kernel.run()
    assert site.engine.state_at() == {"c": 3}
    assert site.seq_db == 1


def test_redelivered_commit_is_dropped_not_reapplied(kernel, site):
    site.receive(start(1, 0))
    site.receive(fast(1, 1, "x", 1))
    kernel.run()
    site.receive(fast(1, 1, "x", 1))      # redelivery
    kernel.run()
    assert site.refresher.stale_records_dropped == 1
    assert site.seq_db == 1
    assert site.engine.state_at() == {"x": 1}


# ---------------------------------------------------------------------------
# System integration, validation, and the dormant default
# ---------------------------------------------------------------------------

def test_parallel_system_converges_and_passes_checkers():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.5,
                              parallel_refresh=4, refresh_apply_cost=0.05)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    for i in range(40):
        session.write(f"k{i % 10}", i)
    system.quiesce()
    state = system.primary_state()
    for i in range(2):
        assert system.secondary_state(i) == state
        assert system.secondaries[i].seq_db == \
            system.primary.latest_commit_ts
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        result = check(system.recorder)
        assert result.ok, [v.message for v in result.violations]


def test_parallel_knob_validation():
    with pytest.raises(ConfigurationError):
        ReplicatedSystem(num_secondaries=1, parallel_refresh=0)
    with pytest.raises(ConfigurationError):
        ReplicatedSystem(num_secondaries=1, parallel_refresh=2,
                         serial_refresh=True)
    with pytest.raises(ConfigurationError):
        ReplicatedSystem(num_secondaries=1, refresh_apply_cost=-1.0)


def test_monitoring_surfaces_parallel_counters():
    system = ReplicatedSystem(num_secondaries=1, propagation_delay=0.5,
                              parallel_refresh=2, refresh_apply_cost=0.2)
    session = system.session()
    session.write("a", 1)
    session.write("b", 2)
    system.quiesce()
    status = system_status(system)
    refresher = system.secondaries[0].refresher
    assert refresher.parallel == 2
    assert status.secondaries[0].out_of_order_commits == \
        refresher.out_of_order_commits


def test_parallel_off_is_dormant():
    """The default keeps every new surface inert: FIFO pending queue,
    zero scheduler state."""
    system = ReplicatedSystem(num_secondaries=1)
    session = system.session()
    session.write("a", 1)
    system.quiesce()
    refresher = system.secondaries[0].refresher
    assert refresher.parallel is None
    assert refresher.out_of_order_commits == 0
    assert refresher.watermark_lag == 0
    assert refresher.max_runnable_depth == 0
    assert system_status(system).secondaries[0].out_of_order_commits == 0


# ---------------------------------------------------------------------------
# The protocol fact: what parallel refresh buys, and why one ordered
# engine is enough
# ---------------------------------------------------------------------------

APPLY_COST = 0.05       # virtual seconds of apply work per update op
PACE = 0.15             # virtual seconds between paced commits


def _browsing_mix_updates():
    """The update transactions among 3 000 client ops at a 95/5 mix.
    Sizes are heavy-tailed — ~90 % carry 1-2 operations, ~10 % carry
    25-40 — over a contiguous key range from a random base in 512 keys:
    a big transaction is expensive to apply but rarely overlaps another,
    so ordered refresh stalls the feed behind it while most of the
    stream may legally reorder."""
    stream = RandomStreams(42).stream("apply-bench-0.05")
    txns = []
    for _ in range(3000):
        if not stream.bernoulli(0.05):
            continue
        size = stream.randint(25, 40) if stream.bernoulli(0.10) \
            else stream.randint(1, 2)
        base = stream.randint(0, 511)
        txns.append([(f"k{(base + j) % 512}", stream.randint(0, 9999))
                     for j in range(size)])
    return txns


def _apply_system(**knobs):
    return ReplicatedSystem(num_secondaries=1, propagation_delay=0.1,
                            record_history=False,
                            refresh_apply_cost=APPLY_COST, **knobs)


def commit_at_primary(system, updates):
    txn = system.primary.begin_update()
    for key, value in updates:
        txn.write(key, value)
    txn.commit()


def drain_flood(system, txns):
    """Virtual seconds from releasing the whole stream (committed behind
    a paused propagator) to quiescence: pure refresh time."""
    system.propagator.pause()
    for updates in txns:
        commit_at_primary(system, updates)
    released_at = system.kernel.now
    system.propagator.resume()
    system.quiesce()
    return system.kernel.now - released_at


def _drain_throughput(txns, **knobs):
    """Commits per virtual second of the drained flood."""
    system = _apply_system(**knobs)
    drained = drain_flood(system, txns)
    assert system.secondary_state(0) == system.primary_state()
    return round(len(txns) / drained, 3)


def _paced_lag(txns, **knobs):
    """Mean commits-behind, sampled right after each of the commits
    made every ``PACE`` virtual seconds."""
    system = _apply_system(**knobs)
    secondary = system.secondaries[0]
    samples = []
    when = 0.0
    for updates in txns:
        system.run(until=when)
        commit_at_primary(system, updates)
        samples.append(system.primary.latest_commit_ts - secondary.seq_db)
        when += PACE
    system.quiesce()
    return round(sum(samples) / len(samples), 3)


def test_parallel_refresh_outruns_ordered_refresh_on_the_browsing_mix():
    txns = _browsing_mix_updates()
    assert (len(txns), sum(map(len, txns))) == (167, 614)
    ordered = (_drain_throughput(txns), _paced_lag(txns))
    assert ordered == (5.422, 29.461)
    # Relationship 2 serialises a sequentially committed stream however
    # many applicators exist, so one slot reads the same as one per
    # commit — the measurement that retired the applicator pool.
    assert (_drain_throughput(txns, serial_refresh=True),
            _paced_lag(txns, serial_refresh=True)) == ordered
    drained = _drain_throughput(txns, parallel_refresh=8)
    assert drained == 19.763 and drained >= 3 * ordered[0]     # 3.64x
    lags = [_paced_lag(txns, parallel_refresh=n) for n in (2, 4, 8)]
    assert lags == [10.09, 6.126, 5.976]
    assert all(lag < ordered[1] for lag in lags)


# ---------------------------------------------------------------------------
# C5's question: does transaction-granularity conflict scheduling fall
# behind on hot rows?
# ---------------------------------------------------------------------------

def _hot_rows_cell(skew, **knobs):
    """400 updates 0.04 s apart from one weak-SI session, each writing
    the rows of two draws from Zipf(``skew``) over 20 rows (one row when
    the draws coincide), at 0.05 s of apply work per row.  Returns the
    commits behind when the updates end, and the virtual time by which
    the secondary has drained."""
    system = ReplicatedSystem(num_secondaries=1, propagation_delay=0.1,
                              refresh_apply_cost=0.05, record_history=False,
                              **knobs)
    session = system.session(Guarantee.WEAK_SI)
    keys = ZipfianKeys(20, skew)
    stream = RandomStreams(7).stream("keys")
    for i in range(400):
        rows = {keys.draw(stream), keys.draw(stream)}
        session.execute_update(
            lambda txn, rows=rows, i=i: [txn.write(f"k{row}", i)
                                         for row in rows])
        system.run(until=(i + 1) * 0.04)
    behind = system.primary.latest_commit_ts - system.secondaries[0].seq_db
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()
    return behind, round(system.kernel.now, 4)


def test_conflict_admission_stops_scaling_on_hot_rows():
    admissions = {"ordered": {}, "serial": {"serial_refresh": True}}
    admissions.update({f"conflict/{n}": {"parallel_refresh": n}
                       for n in (2, 4, 8)})
    cells = {name: tuple(_hot_rows_cell(skew, **knobs) for skew in (0, 2.0))
             for name, knobs in admissions.items()}
    # (commits behind, drained at) on uniform rows, then on hot rows.
    assert cells == {
        "ordered": ((239, 39.2), (199, 32.35)),
        "serial": ((239, 39.2), (199, 32.35)),
        "conflict/2": ((82, 19.8), (173, 27.75)),
        "conflict/4": ((6, 16.16), (173, 27.7)),
        "conflict/8": ((6, 16.16), (173, 27.7)),
    }
    # On uniform rows four slots keep up: six commits behind is what the
    # 0.1 s propagation delay and one apply hold in flight, and the
    # drain ends 0.2 s after the last update.  On hot rows most commits
    # write the hottest row (p ≈ 0.63 a draw), so they apply as one
    # chain, and no slot count beyond two helps.  Sequential primary
    # transactions never overlap, so relationship 2 runs the paper's
    # applicator per commit exactly as slowly as serial replay.
