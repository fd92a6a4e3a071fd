"""End-to-end tests of the replicated system facade and client sessions."""

import pytest

from repro.core.admission import AdmissionConfig
from repro.core.guarantees import Guarantee
from repro.core.system import ReplicatedSystem
from repro.errors import (
    ConfigurationError,
    FirstCommitterWinsError,
    SessionClosedError,
)
from repro.storage.wal import AbortRecord, StartRecord, UpdateRecord
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)


def make_system(**kwargs):
    defaults = dict(num_secondaries=2, propagation_delay=1.0)
    defaults.update(kwargs)
    return ReplicatedSystem(**defaults)


# ---------------------------------------------------------------------------
# Basic routing and propagation
# ---------------------------------------------------------------------------

def test_update_executes_at_primary():
    system = make_system()
    with system.session() as s:
        s.write("x", 1)
    assert system.primary_state() == {"x": 1}
    assert system.primary.engine.commits == 1


def test_updates_propagate_to_all_secondaries():
    system = make_system(num_secondaries=3)
    with system.session() as s:
        s.write("x", 1)
    system.quiesce()
    for i in range(3):
        assert system.secondary_state(i) == {"x": 1}


def test_read_only_runs_at_sessions_secondary():
    system = make_system()
    with system.session(Guarantee.WEAK_SI, secondary=1) as s:
        s.read("nothing", default=None)
    assert system.secondaries[1].engine.commits == 1
    assert system.secondaries[0].engine.commits == 0
    assert system.primary.engine.commits == 0


def test_sessions_round_robin_over_secondaries():
    system = make_system(num_secondaries=3)
    secondaries = [system.session().secondary.name for _ in range(4)]
    assert secondaries == ["secondary-1", "secondary-2", "secondary-3",
                           "secondary-1"]


def test_secondary_index_validation():
    system = make_system()
    with pytest.raises(ConfigurationError):
        system.session(secondary=5)


def test_need_at_least_one_secondary():
    with pytest.raises(ConfigurationError):
        ReplicatedSystem(num_secondaries=0)


# ---------------------------------------------------------------------------
# Session guarantees
# ---------------------------------------------------------------------------

def test_read_your_writes_under_session_si():
    system = make_system(propagation_delay=5.0)
    with system.session(Guarantee.STRONG_SESSION_SI) as s:
        s.write("order", "placed")
        assert s.read("order") == "placed"      # waited for the refresh
        assert s.blocked_reads == 1
        assert s.total_read_wait == 5.0


def test_weak_si_shows_transaction_inversion():
    """The Section 1 bookstore anomaly: Tcheck misses Tbuy's effects."""
    system = make_system(propagation_delay=5.0)
    with system.session(Guarantee.WEAK_SI) as s:
        s.write("order", "placed")
        assert s.read("order", default="missing") == "missing"
        assert s.blocked_reads == 0


def test_weak_si_eventually_sees_update():
    system = make_system(propagation_delay=5.0)
    with system.session(Guarantee.WEAK_SI) as s:
        s.write("order", "placed")
        system.run(until=system.kernel.now + 10.0)
        assert s.read("order") == "placed"


def test_session_si_does_not_wait_for_other_sessions():
    system = make_system(propagation_delay=100.0)
    writer = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    reader = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    writer.write("x", 1)
    # Another session's read is not ordered after writer's update.
    assert reader.read("x", default="stale") == "stale"
    assert reader.blocked_reads == 0


def test_strong_si_waits_for_other_sessions():
    system = make_system(propagation_delay=3.0)
    writer = system.session(Guarantee.STRONG_SI, secondary=0)
    reader = system.session(Guarantee.STRONG_SI, secondary=1)
    writer.write("x", 1)
    assert reader.read("x") == 1          # waited for global freshness
    assert reader.blocked_reads == 1


def test_strong_si_vs_weak_si_update_visibility():
    system = make_system(propagation_delay=3.0)
    writer = system.session(Guarantee.WEAK_SI, secondary=0)
    strong_reader = system.session(Guarantee.STRONG_SI, secondary=1)
    weak_reader = system.session(Guarantee.WEAK_SI, secondary=1)
    writer.write("x", 1)
    assert weak_reader.read("x", default=None) is None
    assert strong_reader.read("x") == 1


def test_monotonic_session_reads():
    """Within a session, later reads never see older states."""
    system = make_system(propagation_delay=2.0)
    writer = system.session(secondary=0)
    reader = system.session(Guarantee.STRONG_SESSION_SI, secondary=1)
    observed = []
    for i in range(5):
        writer.write("counter", i)
        system.run(until=system.kernel.now + 3.0)
        observed.append(reader.read("counter", default=-1))
    assert observed == sorted(observed)


# ---------------------------------------------------------------------------
# Update semantics
# ---------------------------------------------------------------------------

def test_update_returns_work_result():
    system = make_system()
    with system.session() as s:
        result = s.execute_update(lambda t: t.read("x", default=0) + 1)
    assert result == 1


def test_update_retries_on_fcw_conflict():
    system = make_system()
    s = system.session()
    # Fabricate a conflict on the first attempt by committing a competing
    # write from inside the work function (first attempt only).
    attempts = []

    def work(txn):
        attempts.append(txn)
        value = txn.read("x", default=0)
        if len(attempts) == 1:
            rival = system.primary.begin_update()
            rival.write("x", 100)
            rival.commit()
        txn.write("x", value + 1)
        return value + 1

    result = s.execute_update(work)
    assert len(attempts) == 2
    assert result == 101
    assert s.fcw_retries == 1


def test_update_retries_exhausted_raises():
    system = make_system()
    s = system.session()

    def always_conflicting(txn):
        rival = system.primary.begin_update()
        rival.write("x", 0)
        rival.commit()
        txn.write("x", 1)

    with pytest.raises(FirstCommitterWinsError):
        s.execute_update(always_conflicting, max_retries=3)
    assert s.fcw_retries == 4


def test_write_many_is_atomic():
    system = make_system()
    with system.session() as s:
        s.write_many({"a": 1, "b": 2})
    system.quiesce()
    assert system.secondary_state(0) == {"a": 1, "b": 2}


def test_read_many():
    system = make_system()
    with system.session() as s:
        s.write_many({"a": 1, "b": 2})
        assert s.read_many(["a", "b", "c"]) == {"a": 1, "b": 2, "c": None}


def test_closed_session_rejects_operations():
    system = make_system()
    s = system.session()
    s.close()
    with pytest.raises(SessionClosedError):
        s.write("x", 1)
    with pytest.raises(SessionClosedError):
        s.read("x")


# ---------------------------------------------------------------------------
# System-level behaviour
# ---------------------------------------------------------------------------

def test_quiesce_applies_everything():
    system = make_system(num_secondaries=3, propagation_delay=7.0)
    s = system.session()
    for i in range(5):
        s.write(f"k{i}", i)
    system.quiesce()
    assert system.max_staleness() == 0
    for i in range(3):
        assert system.secondary_state(i) == system.primary_state()


def test_max_staleness_before_propagation():
    system = make_system(propagation_delay=100.0)
    s = system.session()
    s.write("x", 1)
    s.write("y", 2)
    assert system.max_staleness() == 2


def test_batched_propagation_end_to_end():
    system = make_system(batch_interval=10.0, propagation_delay=0.0)
    s = system.session(Guarantee.STRONG_SESSION_SI)
    s.write("x", 1)
    assert s.read("x") == 1        # read drives time through the batch
    assert s.total_read_wait == pytest.approx(10.0)


def test_seq_db_tracks_primary_commit_ts():
    system = make_system()
    s = system.session()
    for i in range(3):
        s.write("k", i)
    system.quiesce()
    assert all(sec.seq_db == 3 for sec in system.secondaries)


def test_serial_refresh_system_still_correct():
    system = make_system(serial_refresh=True)
    with system.session() as s:
        s.write("x", 1)
        assert s.read("x") == 1
    system.quiesce()
    assert system.secondary_state(0) == {"x": 1}


def test_delete_replication():
    system = make_system()
    with system.session() as s:
        s.write("x", 1)
        s.execute_update(lambda t: t.delete("x"))
    system.quiesce()
    assert system.secondary_state(0) == {}
    assert system.secondary_state(1) == {}


def test_quiesce_terminates_with_periodic_daemons_running():
    """Regression: quiesce used to require a drained event heap, so any
    periodic daemon (e.g. a monitoring probe) made it spin forever."""
    from repro.core.monitoring import StalenessProbe
    system = make_system(propagation_delay=2.0)
    probe = StalenessProbe(system, interval=0.5)
    probe.start()
    s = system.session()
    s.write("x", 1)
    system.quiesce()          # must return despite the probe's events
    assert system.secondary_state(0) == {"x": 1}
    assert system.max_staleness() == 0
    probe.stop()


def test_idle_system_spawns_no_process():
    """Autovacuum, a staleness probe, the failure detector and a fault
    plan are kernel callbacks: an idle system running them all for 100
    virtual seconds starts no process."""
    from repro.core.failover import FailoverConfig
    from repro.core.monitoring import StalenessProbe
    from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan
    system = ReplicatedSystem(
        num_secondaries=2, propagation_delay=0.5, batch_interval=0.0,
        autovacuum_interval=5.0,
        failover=FailoverConfig(heartbeat_interval=2.0,
                                suspicion_timeout=8.0, lease_duration=12.0))
    probe = StalenessProbe(system, interval=1.0)
    probe.start()
    injector = FaultInjector(system, FaultPlan.of([
        FaultEvent(at=10.0, action="crash_secondary", target=0),
        FaultEvent(at=20.0, action="recover_secondary", target=0)]))
    injector.start()
    system.run(until=100.0)
    assert injector.finished and len(injector.applied) == 2
    assert len(probe.samples) == 100
    assert min(daemon.runs for daemon in system.autovacuums) >= 18
    assert system.kernel._next_pid == 0


def test_quiesce_handles_direct_getter_handoff():
    """Regression: a record handed straight to the blocked refresher left
    every queue empty, so quiesce declared idle before it was applied."""
    system = make_system(propagation_delay=1.0)
    s = system.session()
    s.execute_update(lambda t: [t.write(f"k{i}", i) for i in range(3)])
    system.quiesce()
    assert system.secondary_state(0) == {"k0": 0, "k1": 1, "k2": 2}
    assert system.secondary_state(1) == system.secondary_state(0)


# ---------------------------------------------------------------------------
# Interactive update transactions
# ---------------------------------------------------------------------------

def test_interactive_update_commits_on_exit():
    system = make_system(propagation_delay=2.0)
    s = system.session(Guarantee.STRONG_SESSION_SI)
    with s.update_transaction() as txn:
        stock = txn.read("stock", default=10)
        txn.write("stock", stock - 1)
    assert system.primary_state()["stock"] == 9
    assert s.read("stock") == 9          # seq(c) advanced: RYW holds
    assert s.updates_committed == 1


def test_interactive_update_aborts_on_exception():
    system = make_system()
    s = system.session()
    with pytest.raises(RuntimeError, match="nope"):
        with s.update_transaction() as txn:
            txn.write("x", 1)
            raise RuntimeError("nope")
    assert system.primary_state() == {}
    assert s.updates_committed == 0


def test_interactive_update_fcw_surfaces_to_caller():
    system = make_system()
    s = system.session()
    with pytest.raises(FirstCommitterWinsError):
        with s.update_transaction() as txn:
            txn.write("x", 1)
            rival = system.primary.begin_update()
            rival.write("x", 2)
            rival.commit()
    assert system.primary_state()["x"] == 2
    assert s.updates_committed == 0


def test_interactive_update_explicit_commit_respected():
    system = make_system()
    s = system.session()
    with s.update_transaction() as txn:
        txn.write("x", 1)
        txn.commit()         # explicit commit inside the body
    assert system.primary_state()["x"] == 1
    assert s.updates_committed == 1


def test_interactive_update_explicit_abort_respected():
    system = make_system()
    s = system.session()
    with s.update_transaction() as txn:
        txn.write("x", 1)
        txn.abort()
    assert system.primary_state() == {}
    assert s.updates_committed == 0


def test_interactive_update_on_closed_session():
    system = make_system()
    s = system.session()
    s.close()
    with pytest.raises(SessionClosedError):
        s.update_transaction()


# ---------------------------------------------------------------------------
# A transaction body that raises
# ---------------------------------------------------------------------------

class BodyError(Exception):
    pass


def read_then_raise(txn):
    txn.read("x", default=None)
    raise BodyError


def write_then_raise(txn):
    txn.write("y", 2)
    raise BodyError


def assert_nothing_left_open(system):
    """No site keeps a transaction open, so every GC horizon has moved
    up to its site's newest state, and the history still checks."""
    for site in (system.primary, *system.secondaries):
        assert site.engine.active_transactions == [], site.name
        assert site.engine.gc_horizon() == site.engine.latest_commit_ts
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        assert check(system.recorder).ok, check.__name__


def test_raising_bodies_abort_their_transactions_at_every_site():
    system = make_system()
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    s.write("x", 1)
    system.quiesce()
    with pytest.raises(BodyError):
        s.execute_read_only(read_then_raise)
    with pytest.raises(BodyError):
        s.execute_update(write_then_raise)
    system.quiesce()
    s.write("x", 2)
    s.write("x", 3)
    system.quiesce()

    assert_nothing_left_open(system)
    assert system.primary.engine.latest_commit_ts == 3
    aborts = [record for record in system.primary.log
              if isinstance(record, AbortRecord)]
    assert [record.txn_id for record in aborts] == [2]
    events = system.recorder.events
    assert [(e.site, e.reason) for e in events
            if e.kind == "abort" and e.refresh_of is None] == [
        ("secondary-1", "body raised BodyError"),
        ("primary", "body raised BodyError")]
    # The update's start record reached both replicas, and its abort
    # ended the refresh transaction it had opened at each.
    assert sorted(e.site for e in events if e.kind == "abort"
                  and e.refresh_of is not None) == ["secondary-1",
                                                    "secondary-2"]
    assert s.reads_executed == 0 and s.updates_committed == 3


def test_raising_body_of_a_read_that_waited_is_aborted():
    system = make_system(propagation_delay=2.0)
    s = system.session(Guarantee.STRONG_SESSION_SI)
    s.write("x", 1)
    with pytest.raises(BodyError):
        s.execute_read_only(read_then_raise)
    assert s.blocked_reads == 1
    system.quiesce()
    assert_nothing_left_open(system)


def test_raising_body_of_an_admitted_update_is_aborted():
    system = make_system(admission=AdmissionConfig(rate=100.0))
    s = system.session()
    with pytest.raises(BodyError):
        s.execute_update(write_then_raise)
    system.quiesce()
    assert [type(record) for record in system.primary.log] == [
        StartRecord, UpdateRecord, AbortRecord]
    assert_nothing_left_open(system)
