"""Failure injection and Section 3.4 recovery tests."""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.system import ReplicatedSystem
from repro.errors import (
    NoLiveSecondariesError,
    SiteUnavailableError,
)
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)


def make_system(**kwargs):
    defaults = dict(num_secondaries=2, propagation_delay=1.0)
    defaults.update(kwargs)
    return ReplicatedSystem(**defaults)


def test_read_against_crashed_secondary_fails_over():
    """A session bound to a crashed replica rebinds to a live one instead
    of surfacing SiteUnavailableError to the client."""
    system = make_system()
    s = system.session(Guarantee.WEAK_SI, secondary=0)
    system.crash_secondary(0)
    assert s.read("x", default="fallback") == "fallback"
    assert s.failovers == 1
    assert s.secondary is system.secondaries[1]


def test_all_secondaries_crashed_rejects_reads():
    system = make_system()
    s = system.session(Guarantee.WEAK_SI, secondary=0)
    system.crash_secondary(0)
    system.crash_secondary(1)
    with pytest.raises(SiteUnavailableError):
        s.read("x", default=None)


def test_crash_loses_queued_updates():
    system = make_system(propagation_delay=50.0)
    writer = system.session(secondary=1)
    writer.write("x", 1)                    # in flight to both secondaries
    system.crash_secondary(0)
    system.quiesce()
    assert system.secondary_state(1) == {"x": 1}
    assert system.secondaries[0].engine.crashed


def test_other_secondaries_unaffected_by_crash():
    system = make_system(num_secondaries=3)
    system.crash_secondary(1)
    s = system.session(secondary=0)
    s.write("x", 1)
    assert s.read("x") == 1
    system.quiesce()
    assert system.secondary_state(2) == {"x": 1}


def test_recovery_reinstalls_quiesced_primary_copy():
    system = make_system()
    writer = system.session(secondary=1)
    writer.write("x", 1)
    writer.write("y", 2)
    system.crash_secondary(0)
    system.quiesce()
    system.recover_secondary(0)
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()
    assert system.secondaries[0].seq_db == system.primary.latest_commit_ts


def test_recovery_covers_commits_made_while_down():
    """Updates committed while the secondary was down are in the
    quiesced copy, and later ones reach it through the ordinary refresh
    mechanism (Section 3.4)."""
    system = make_system(propagation_delay=0.0)
    writer = system.session(secondary=1)
    writer.write("x", 1)
    system.quiesce()
    system.crash_secondary(0)
    writer.write("y", 2)          # committed while secondary 0 is down
    # Recover from the current primary copy, then more updates arrive.
    system.recover_secondary(0)
    writer.write("z", 3)
    system.quiesce()
    assert system.secondary_state(0) == {"x": 1, "y": 2, "z": 3}
    assert system.secondaries[0].seq_db == 3


def test_recovery_while_a_batch_holds_commits():
    """The copy a recovery installs already holds the commits a batch
    frame still buffers: nothing is replayed, and when the frame ships
    the refresher drops its two commits as stale."""
    system = make_system(propagation_delay=0.0, batch_interval=10.0)
    writer = system.session(secondary=1)
    writer.write("x", 1)                    # ships at t = 0
    system.run(until=1.0)
    writer.write("y", 2)                    # buffered until t = 10
    writer.write("z", 3)
    system.crash_secondary(0)
    system.recover_secondary(0)
    site = system.secondaries[0]
    assert site.seq_db == 3
    assert site.refresher.stale_records_dropped == 0
    system.quiesce()
    assert system.kernel.now == 10.0
    assert site.refresher.stale_records_dropped == 2
    assert system.secondary_state(0) == system.primary_state()
    assert site.seq_db == 3


def test_in_flight_deliveries_from_old_epoch_dropped():
    system = make_system(propagation_delay=10.0)
    writer = system.session(secondary=1)
    writer.write("x", "old-epoch")          # delivery scheduled at t+10
    system.crash_secondary(0)
    system.recover_secondary(0)             # recovery includes that commit
    system.quiesce()                        # old delivery arrives, dropped
    assert system.secondaries[0].records_dropped >= 1
    assert system.secondary_state(0) == system.primary_state()


def test_shared_arrival_drops_only_the_recovered_secondarys_share():
    """One arrival event hands each record to all three secondaries; the
    one that crashed and recovered before it arrives drops its
    old-epoch share (start and commit), the other two apply the write."""
    system = make_system(num_secondaries=3, propagation_delay=10.0)
    writer = system.session(secondary=1)
    writer.write("x", 1)                    # both records arrive at t+10
    system.crash_secondary(0)
    system.recover_secondary(0)             # recovery includes that commit
    system.quiesce()
    sites = system.secondaries
    assert [site.records_dropped for site in sites] == [2, 0, 0]
    assert [site.refresher.refreshes_applied for site in sites] == [0, 1, 1]
    assert [site.in_flight for site in sites] == [0, 0, 0]
    for index in range(3):
        assert system.secondary_state(index) == system.primary_state() \
            == {"x": 1}


@pytest.mark.parametrize("secondaries", [1, 3, 5])
def test_queued_events_after_a_write_do_not_grow_with_fanout(secondaries):
    """An unbatched write queues one arrival event per record (start and
    commit), however many secondaries receive it."""
    system = make_system(num_secondaries=secondaries)
    system.session().write("x", 1)
    assert system.kernel.pending_events == 2


def test_reads_after_recovery_see_consistent_state():
    system = make_system()
    writer = system.session(secondary=1)
    writer.write("a", 1)
    system.crash_secondary(0)
    writer.write("b", 2)
    system.recover_secondary(0)
    reader = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    assert reader.read_many(["a", "b"]) == {"a": 1, "b": 2}


def test_session_si_read_your_writes_survives_recovery():
    """seq(DBsec) is reinitialised so earlier session updates are visible
    without waiting (the Section 4 dummy-transaction trick)."""
    system = make_system(propagation_delay=2.0)
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    s.write("x", 1)
    system.quiesce()
    system.crash_secondary(0)
    system.recover_secondary(0)
    assert s.read("x") == 1


def test_double_crash_and_recover():
    system = make_system()
    writer = system.session(secondary=1)
    for round_ in range(2):
        writer.write(f"k{round_}", round_)
        system.crash_secondary(0)
        system.recover_secondary(0)
        system.quiesce()
        assert system.secondary_state(0) == system.primary_state()


def test_crash_is_idempotent():
    system = make_system()
    system.crash_secondary(0)
    system.crash_secondary(0)      # second crash must not blow up
    assert system.secondaries[0].engine.crashed


def test_propagator_pause_models_link_failure():
    """Pausing propagation (a partitioned link) just increases staleness;
    resume catches everything up in order."""
    system = make_system(propagation_delay=0.0)
    s = system.session(Guarantee.WEAK_SI, secondary=0)
    system.propagator.pause()
    s.write("x", 1)
    s.write("x", 2)
    system.run()
    assert system.secondary_state(0) == {}
    system.propagator.resume()
    system.quiesce()
    assert system.secondary_state(0) == {"x": 2}


# -- session failover ---------------------------------------------------------

def test_failover_preserves_session_guarantee():
    """The rebound replica must still satisfy seq(c) <= seq(DBsec) before
    the read runs (strong session SI survives the failover)."""
    system = make_system(num_secondaries=3, propagation_delay=2.0)
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    s.write("x", 1)
    system.quiesce()                    # all replicas at seq 1
    s.write("x", 2)                     # seq(c)=2, still propagating
    system.crash_secondary(0)
    assert s.read("x") == 2             # failover + freshness wait
    assert s.failovers == 1
    assert s.secondary.seq_db >= 2


def test_failover_prefers_fresh_replica():
    """Among live replicas, one already at seq(c) is chosen so the read
    need not wait."""
    system = make_system(num_secondaries=3, propagation_delay=5.0)
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    s.write("x", 1)
    system.quiesce()
    system.crash_secondary(0)
    # Both remaining replicas are at seq 1; the freshest is picked and the
    # read returns without any additional kernel progress.
    assert s.read("x") == 1
    assert s.blocked_reads == 0


def test_failover_waits_for_recovery_within_budget():
    """With failover_wait, a session outlives a window where every replica
    is down (reads block in virtual time until one recovers)."""
    system = make_system(num_secondaries=2, propagation_delay=0.0)
    s = system.session(Guarantee.WEAK_SI, secondary=0, failover_wait=60.0)
    s.write("x", 1)
    system.quiesce()
    system.crash_secondary(0)
    system.crash_secondary(1)
    system.kernel.call_at(system.kernel.now + 5.0,
                          lambda: system.recover_secondary(1))
    assert s.read("x") == 1
    assert s.failovers >= 1


def test_failover_mid_freshness_wait():
    """A replica crashing while a read is blocked on its freshness wait
    wakes the reader, which fails over instead of sleeping forever."""
    system = make_system(num_secondaries=2, propagation_delay=10.0)
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    s.write("x", 1)                     # propagating for 10 time units
    system.kernel.call_at(system.kernel.now + 1.0,
                          lambda: system.crash_secondary(0))
    assert s.read("x") == 1             # waited on 0, crashed, finished on 1
    assert s.failovers == 1


# -- max_staleness with crashed replicas --------------------------------------

def test_max_staleness_skips_crashed_secondaries():
    system = make_system(num_secondaries=2, propagation_delay=50.0)
    writer = system.session(secondary=1)
    writer.write("x", 1)
    system.crash_secondary(0)
    assert system.max_staleness() == 1   # only the live replica counts


def test_max_staleness_with_all_secondaries_crashed():
    """Regression: this used to raise a bare ValueError from max() on an
    empty sequence."""
    system = make_system(num_secondaries=2)
    system.crash_secondary(0)
    system.crash_secondary(1)
    with pytest.raises(NoLiveSecondariesError):
        system.max_staleness()


# -- primary crash & WAL restart ----------------------------------------------

def test_primary_crash_rejects_updates_but_not_reads():
    system = make_system(propagation_delay=0.0)
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    s.write("x", 1)
    system.quiesce()
    system.crash_primary()
    with pytest.raises(SiteUnavailableError):
        s.write("x", 2)
    assert s.read("x") == 1              # replica reads keep working


def test_primary_restart_recovers_committed_state_exactly():
    system = make_system(propagation_delay=0.0)
    s = system.session(secondary=0)
    s.write("x", 1)
    s.write("y", 2)
    s.write("x", 3)
    before = system.primary_state()
    system.crash_primary()
    recovered_ts = system.restart_primary()
    assert system.primary_state() == before
    assert recovered_ts == 3
    s.write("z", 4)                      # the system keeps going
    system.quiesce()
    assert system.secondary_state(0) == {"x": 3, "y": 2, "z": 4}


def test_primary_crash_aborts_in_flight_interactive_update():
    """An interactive update open at crash time aborts — and the abort
    propagates, so secondaries discard the dangling refresh transaction
    instead of holding it open forever."""
    system = make_system(propagation_delay=0.0)
    s = system.session(secondary=0)
    s.write("x", 1)
    txn = system.primary.begin_update(metadata={"logical_id": "doomed",
                                                "session": "s"})
    txn.write("x", 99)
    system.run()                         # start/update records propagate
    system.crash_primary()
    system.restart_primary()
    system.quiesce()
    assert system.primary_state() == {"x": 1}
    assert system.secondary_state(0) == {"x": 1}
    assert not system.secondaries[0].refresher.pending


def test_secondary_crash_between_start_and_commit_delivery():
    """A secondary that crashes after receiving start_p(T) but before
    commit_p(T) recovers to a state that already includes T."""
    system = make_system(propagation_delay=1.0)
    writer = system.session(secondary=1)
    writer.write("x", 1)
    system.quiesce()
    system.propagator.pause()
    writer.write("x", 2)                 # T: committed, not yet propagated
    system.propagator.resume()
    # Run just far enough that records are in flight, then crash.
    system.run(until=system.kernel.now + 0.5)
    system.crash_secondary(0)
    system.quiesce()
    system.recover_secondary(0)
    system.quiesce()
    assert system.secondary_state(0) == {"x": 2}
    assert system.secondaries[0].seq_db == system.primary.latest_commit_ts


def test_recovery_history_passes_checkers():
    """Crash/recovery (secondary and primary) leaves a history that still
    satisfies completeness, weak SI and strong session SI."""
    system = make_system(num_secondaries=2, propagation_delay=1.0)
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    s.write("a", 1)
    s.read("a")
    system.crash_secondary(0)
    s.write("b", 2)                      # session fails over for next read
    assert s.read("b") == 2
    system.recover_secondary(0)
    system.crash_primary()
    system.restart_primary()
    s.write("c", 3)
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()
    for check in (check_completeness(system.recorder),
                  check_weak_si(system.recorder),
                  check_strong_session_si(system.recorder)):
        assert check.ok, check.violations
