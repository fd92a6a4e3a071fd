"""Equivalence tests for the throughput pipeline knobs.

Batch frame shipping and the applicator bound change *how many events*
the replication pipeline costs, never *what it computes*: a batched
system with a zero-length cycle must land in the same state as an
unbatched one, and a system with bounded applicators (``serial_refresh``
or ``parallel_refresh``) must be deterministic and pass the same history
checkers as the paper's applicator-per-commit default.
"""

from repro.core.guarantees import Guarantee
from repro.core.monitoring import system_status
from repro.core.records import (
    PropagatedBatch,
    PropagatedCommit,
    PropagatedStart,
)
from repro.core.site import SecondarySite
from repro.core.system import ReplicatedSystem
from repro.kernel import Kernel
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)


def run_workload(**kwargs):
    """A fixed multi-session read/write mix; deterministic by design."""
    defaults = dict(num_secondaries=3, propagation_delay=2.0)
    defaults.update(kwargs)
    system = ReplicatedSystem(**defaults)
    sessions = [system.session(Guarantee.STRONG_SESSION_SI, secondary=i)
                for i in range(3)]
    for i in range(30):
        session = sessions[i % 3]
        session.write(f"k{i % 5}", i)
        if i % 7 == 3:
            session.read(f"k{(i + 1) % 5}", default=None)
        if i % 10 == 9:
            system.run(until=system.kernel.now + 5.0)
    system.quiesce()
    return system


def final_states(system):
    return [system.primary_state()] + [
        system.secondary_state(i)
        for i in range(len(system.secondaries))]


def checker_verdicts(system):
    results = (check_completeness(system.recorder),
               check_weak_si(system.recorder),
               check_strong_session_si(system.recorder))
    return [(r.criterion, r.ok, r.checked_transactions) for r in results]


# ---------------------------------------------------------------------------
# Batch frame shipping
# ---------------------------------------------------------------------------

def test_batch_interval_zero_equivalent_to_unbatched():
    """``batch_interval=0`` (flush every instant) and ``None`` (ship
    inline) must produce the same final states and checker verdicts —
    the frames only change event counts, not outcomes."""
    unbatched = run_workload(batch_interval=None)
    batched = run_workload(batch_interval=0.0)
    assert final_states(batched) == final_states(unbatched)
    assert checker_verdicts(batched) == checker_verdicts(unbatched)
    # Only the batched propagator ships frames.
    assert unbatched.propagator.batches_sent == 0
    assert batched.propagator.batches_sent > 0
    # Per-endpoint record deliveries are identical either way.
    assert batched.propagator.records_sent \
        == unbatched.propagator.records_sent


def test_batched_lag_counts_records_not_frames():
    """``SecondarySite.lag`` unpacks queued batch frames, so monitoring
    sees the same staleness either way."""
    system = ReplicatedSystem(num_secondaries=1, propagation_delay=0.0,
                              batch_interval=50.0)
    s = system.session()
    s.write("a", 1)
    s.write("b", 2)
    system.run(until=60.0)      # one flush: one frame, four records queued
    # The frame may already be drained; compare against max_staleness,
    # which uses the same accounting.
    assert system.max_staleness() == 0
    assert system.secondary_state(0) == {"a": 1, "b": 2}


# ---------------------------------------------------------------------------
# Bounded applicators (the "pool" of these test names is the slot bound:
# ``parallel_refresh=N`` slots, or the single slot of ``serial_refresh``)
# ---------------------------------------------------------------------------

def test_pooled_system_matches_classic_states_and_checkers():
    default = run_workload()
    bounded = run_workload(parallel_refresh=4)
    assert final_states(bounded) == final_states(default)
    assert checker_verdicts(bounded) == checker_verdicts(default)
    for secondary in bounded.secondaries:
        assert secondary.refresher.max_concurrent_applicators <= 4


def test_pooled_system_is_deterministic():
    a = run_workload(parallel_refresh=2)
    b = run_workload(parallel_refresh=2)
    assert final_states(a) == final_states(b)
    assert system_status(a).report() == system_status(b).report()
    assert a.kernel.now == b.kernel.now


def test_batching_and_pooling_together_pass_checkers():
    """The full throughput configuration still satisfies the paper's
    guarantees on the recorded history."""
    system = run_workload(batch_interval=1.0, parallel_refresh=4)
    for criterion, ok, checked in checker_verdicts(system):
        assert ok, criterion
    # All updates were checked, none lost in frames or the ready queue.
    assert final_states(system)[0] == final_states(system)[1]
    assert system.max_staleness() == 0


def test_pool_of_one_serialises_refreshes():
    """A single applicator slot is a valid (if slow) configuration:
    commit order still matches primary order, nothing deadlocks."""
    system = run_workload(serial_refresh=True)
    assert final_states(system) == final_states(run_workload())
    for secondary in system.secondaries:
        assert secondary.refresher.max_concurrent_applicators == 1


def test_pooled_duplicate_of_queued_commit_does_not_wedge_pool():
    """Regression: a redelivered commit whose original is still waiting
    for the one applicator slot must only drop the duplicate.  Aborting
    the live refresh transaction (the old stale-redelivery behaviour)
    left the original record with no transaction to apply, orphaning
    the pending-queue head — a deadlocked secondary."""
    kernel = Kernel()
    site = SecondarySite(kernel, name="s0", serial_refresh=True)
    c2 = PropagatedCommit(txn_id=2, commit_ts=2, updates=(("b", 2, False),))
    site.receive(PropagatedBatch(records=(
        PropagatedStart(txn_id=1, start_ts=0),
        PropagatedStart(txn_id=2, start_ts=0),
        PropagatedCommit(txn_id=1, commit_ts=1, updates=(("a", 1, False),)),
        c2,
        # Duplicate delivered while the original still queues behind
        # commit 1 (the single slot is claimed by commit 1 first).
        c2,
    )))
    kernel.run()
    assert site.engine.state_at() == {"a": 1, "b": 2}
    assert site.seq_db == 2
    assert not site.refresher.pending
    assert site.refresher.refreshes_applied == 2
    assert site.refresher.stale_records_dropped == 1


def test_applicator_from_stopped_incarnation_applies_nothing():
    """An applicator scheduled before a same-instant ``stop()``/
    ``start()`` carries a stale epoch: it must not replay into, or
    publish from, the restarted refresher."""
    kernel = Kernel()
    site = SecondarySite(kernel, name="s0")
    site.receive(PropagatedStart(txn_id=1, start_ts=0))
    site.receive(
        PropagatedCommit(txn_id=1, commit_ts=1, updates=(("a", 1, False),)))
    # The commit was accepted on arrival: its applicator is scheduled.
    assert site.refresher.pending
    site.refresher.stop()
    site.refresher.start()
    kernel.run()
    assert site.refresher.refreshes_applied == 0
    assert site.engine.state_at() == {}
    assert site.seq_db == 0
    assert site.refresher.idle


def test_pooled_refresher_survives_crash_recovery():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=1.0,
                              parallel_refresh=3)
    s = system.session(secondary=1)
    s.write("x", 1)
    system.crash_secondary(0)
    s.write("y", 2)
    system.recover_secondary(0)
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()
    assert system.secondary_state(1) == system.primary_state()
