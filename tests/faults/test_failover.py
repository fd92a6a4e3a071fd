"""Autonomous failover: heartbeats, leases, suspicion, split-brain safety.

These tests drive the :mod:`repro.core.failover` control plane directly
(no chaos harness): a healthy cluster never elects, a killed primary is
detected and replaced autonomously, and a live-but-partitioned primary
self-demotes before the coordinator can promote over it — its late
deliveries fenced, its unacknowledged commits surfaced as typed errors.
"""

import pytest

from repro.core import failover as failover_module
from repro.core.failover import AutoFailover, FailoverConfig
from repro.core.guarantees import Guarantee
from repro.core.system import ReplicatedSystem
from repro.errors import (
    ConfigurationError,
    KeyNotFound,
    LeaseExpiredError,
    LostUpdatesError,
)

#: Small detector so tests stay fast: heartbeats every 2s, suspicion
#: after 8s of silence, leases valid 12s.  Quorum defaults to majority.
CONFIG = FailoverConfig(heartbeat_interval=2.0, suspicion_timeout=8.0,
                        lease_duration=12.0)


def make_system(num_secondaries=3, **kwargs):
    return ReplicatedSystem(num_secondaries=num_secondaries,
                            propagation_delay=0.5, batch_interval=0.0,
                            failover=CONFIG, **kwargs)


def record_heartbeats(system):
    """Log ``(now, sent_at, suspicions so far)`` for every heartbeat the
    primary sends, on every secondary's link (links outlive promotions)."""
    sent = []
    detector = system.auto_failover
    for site in system.secondaries:
        link = system.propagator.link_for(site)

        def send_control(message, delay, _send=link.send_control):
            sent.append((system.kernel.now, message.sent_at,
                         detector.suspicions))
            _send(message, delay)
        link.send_control = send_control
    return sent


def pending_lease_checks(system):
    kernel = system.kernel
    check = system.auto_failover._lease_check
    return (sum(1 for entry in kernel._heap if entry[2] == check)
            + sum(1 for fn, _args in kernel._ready if fn == check))


def read_keys(keys):
    def body(txn):
        out = {}
        for key in keys:
            try:
                out[key] = txn.read(key)
            except KeyNotFound:
                out[key] = None
        return out
    return body


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(heartbeat_interval=0.0),
    dict(heartbeat_interval=-1.0),
    dict(heartbeat_interval=2.0, suspicion_timeout=3.0),   # < 2 intervals
    dict(suspicion_timeout=8.0, lease_duration=7.0),       # < suspicion
    dict(quorum=0),
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        FailoverConfig(**kwargs)


def test_quorum_defaults_to_majority():
    assert make_system(3).auto_failover.quorum == 2
    assert make_system(5).auto_failover.quorum == 3
    system = ReplicatedSystem(
        num_secondaries=3,
        failover=FailoverConfig(heartbeat_interval=2.0,
                                suspicion_timeout=8.0,
                                lease_duration=12.0, quorum=3))
    assert system.auto_failover.quorum == 3


@pytest.mark.parametrize("num_secondaries", [4, 5])
def test_every_kill_is_detected_until_one_secondary_is_left(
        num_secondaries):
    """A promoted secondary is the primary now and never suspects it, so
    the default quorum is a majority of the ones not yet promoted.
    Counting the promoted ones left two live followers facing a quorum
    of three: the third kill (of four secondaries) was never detected."""
    system = make_system(num_secondaries)
    detector = system.auto_failover
    for kill in range(1, num_secondaries):
        system.kill_primary()
        system.run(until=system.kernel.now + 60.0)
        assert detector.auto_promotions == kill
        assert not system.primary.crashed
        assert detector.quorum == (num_secondaries - kill) // 2 + 1


def test_failover_implies_promotion_config():
    assert make_system().promotion is not None


# ---------------------------------------------------------------------------
# Dormancy: failover=None builds nothing
# ---------------------------------------------------------------------------

def test_dormant_by_default():
    plain = ReplicatedSystem(num_secondaries=2)
    assert plain.auto_failover is None
    assert plain.failover is None
    # No links either, so partitions are a configuration error, not a
    # silent no-op.
    with pytest.raises(ConfigurationError):
        plain.partition()
    assert plain.partitions_active == 0
    assert plain.zombie_records_fenced == 0


# ---------------------------------------------------------------------------
# Healthy cluster: leases renew, nobody suspects, nobody elects
# ---------------------------------------------------------------------------

def test_healthy_cluster_never_suspects_or_elects():
    system = make_system()
    session = system.session(Guarantee.STRONG_SESSION_SI)
    for i in range(5):
        session.write(f"k{i}", i)
        system.run(until=10.0 * (i + 1))
    detector = system.auto_failover
    assert detector.heartbeats_sent > 0
    assert detector.grants_received > 0
    assert detector.suspicions == 0
    assert detector.false_suspicions == 0
    assert detector.lease_expiries == 0
    assert detector.auto_promotions == 0
    assert system.promotions == 0
    # The heartbeat stream must not keep the pipeline from settling.
    system.quiesce()
    for i in range(len(system.secondaries)):
        assert system.secondary_state(i) == system.primary_state()


# ---------------------------------------------------------------------------
# Kill detection: quorum of suspicions + lapsed lease -> promotion
# ---------------------------------------------------------------------------

def test_killed_primary_is_detected_and_replaced():
    system = make_system()
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("a", 1)
    system.quiesce()
    system.kill_primary()
    killed_at = system.kernel.now
    system.run(until=killed_at + 30.0)
    detector = system.auto_failover
    assert detector.suspicions >= detector.quorum
    assert detector.auto_promotions == 1
    assert system.promotions == 1
    assert system.cluster_epoch == 1
    assert not system.primary.crashed
    # The declaration waited for both conditions: the report landed
    # after the suspicion timeout AND after the last lease aged out.
    report = detector.reports[0]
    assert len(report.suspecting) >= detector.quorum
    assert report.at > report.lease_bound
    assert report.at >= killed_at + CONFIG.suspicion_timeout
    assert report.promoted == system.primary.name
    # The new epoch serves updates and converges.
    session2 = system.session(Guarantee.STRONG_SESSION_SI)
    session2.write("b", 2)
    system.quiesce()
    for i, secondary in enumerate(system.secondaries):
        if not secondary.retired:
            assert system.secondary_state(i) == system.primary_state()


def test_no_scripted_promotion_needed_after_kill():
    """The election is autonomous: nothing outside the detector calls
    promote(), yet the cluster ends with a live primary."""
    system = make_system()
    system.kill_primary()
    system.run(until=40.0)
    assert system.auto_failover.auto_promotions == 1
    assert not system.primary.crashed


# ---------------------------------------------------------------------------
# Split-brain safety: the partitioned zombie primary
# ---------------------------------------------------------------------------

def test_partitioned_primary_self_demotes_and_is_fenced():
    """The full zombie walk: a live primary is cut from every secondary
    mid-commit.  Its lease lapses -> it self-demotes (the open update
    aborts with LeaseExpiredError, never acknowledged); the coordinator
    then promotes; when the partition finally heals, the zombie's held
    traffic arrives with a stale epoch and is counted and dropped — no
    session ever sees the orphaned writes."""
    system = make_system()
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("a", 1)
    system.run(until=10.0)

    system.partition()                 # every link: a full primary cut
    assert system.partitions_active == len(system.secondaries)

    # Acknowledged during the partition: only the doomed primary has it.
    session.write("b", 2)

    with pytest.raises(LeaseExpiredError):
        with session.update_transaction() as txn:
            txn.write("c", 3)
            system.run(until=26.0)     # lease lapses while txn is open

    detector = system.auto_failover
    assert detector.lease_expiries == 1
    assert detector.auto_promotions == 1
    assert system.promotions == 1
    # Promotion re-routed the surviving replicas (their links healed as
    # the new primary's fresh routes); only the promoted site's own
    # link — the old primary's side of the cut — is still dark.
    assert system.partitions_active == 1
    fenced_at_promotion = system.zombie_records_fenced
    assert fenced_at_promotion > 0     # flushed old-epoch traffic fenced

    system.heal()                      # the zombie's link finally heals
    system.run(until=40.0)
    assert system.zombie_records_fenced > fenced_at_promotion
    assert system.partitions_active == 0

    # The acknowledged-then-truncated window is surfaced, never hidden.
    with pytest.raises(LostUpdatesError):
        session.read("a")

    # Fresh sessions see the surviving prefix only: "a" but never the
    # orphaned "b" (acknowledged to a poisoned session) or "c" (aborted).
    fresh = system.session(Guarantee.STRONG_SI)
    fresh.write("d", 4)
    system.quiesce()
    assert fresh.execute_read_only(read_keys(["a", "b", "c", "d"])) \
        == {"a": 1, "b": None, "c": None, "d": 4}
    for secondary in system.secondaries:
        if secondary.live:
            state = secondary.engine.state_at()
            assert "b" not in state and "c" not in state


def test_lease_expiry_is_exact_not_polled():
    """Self-demotion happens at the lease deadline itself: the demotion
    instant equals the last grant time plus the lease duration, not some
    later polling tick."""
    system = make_system()
    system.run(until=10.0)
    detector = system.auto_failover
    old_primary = system.primary
    deadline = detector.lease_expiry    # freshest grant + lease_duration
    system.partition()
    system.run(until=40.0)
    assert detector.lease_expiries >= 1
    assert old_primary.lease_demoted
    # demote() fired exactly when the freshest grant aged out.
    assert old_primary.demoted_at == deadline


# ---------------------------------------------------------------------------
# The tick and the lease check
# ---------------------------------------------------------------------------

def test_healthy_run_keeps_one_lease_check_armed():
    """A renewed grant moves the deadline, not the number of checks: the
    one armed check re-arms itself at the deadline current when it
    fires."""
    system = make_system()
    session = system.session(Guarantee.STRONG_SESSION_SI)
    kernel = system.kernel
    most = 0
    for i in range(8):
        session.write(f"k{i}", i)
        while kernel.now < 5.0 * (i + 1):
            kernel.step()
            most = max(most, pending_lease_checks(system))
    detector = system.auto_failover
    assert detector.grants_received > 50
    assert most == 1
    assert pending_lease_checks(system) == 1


def test_lease_check_from_the_previous_epoch_spares_the_new_primary():
    """The primary dies at t=9 holding a lease to 20.5 (the tick-8 grant,
    sent at 8.5).  A hand promotion at 20.25 installs a live primary
    before the detector's next tick has seen the new epoch, so the check
    armed for 20.5 finds an expired lease and a live primary — of the
    wrong epoch.  It must not demote it, and the new primary must still
    be fenced at its own exact deadline once it is cut off."""
    system = make_system()
    detector = system.auto_failover
    system.run(until=9.0)
    system.kill_primary()
    system.run(until=20.25)
    assert detector.lease_expiry == 20.5
    assert detector.auto_promotions == 0
    system.promote_secondary()
    new_primary = system.primary
    system.run(until=40.0)
    assert detector.lease_expiries == 0
    assert not new_primary.lease_demoted
    deadline = detector.lease_expiry
    system.partition()
    system.run(until=80.0)
    assert detector.lease_expiries == 1
    assert new_primary.demoted_at == deadline


def test_heartbeat_is_stamped_with_its_tick_instant(monkeypatch):
    """Every tick stamps its heartbeats with the tick instant, and the
    next tick keeps its place ahead of what this tick's promotion
    scheduled for the same instant — the place the heartbeat daemon's
    re-sleep held before the coordinator ran."""
    promote = failover_module.promote
    probes = []

    def promote_then_probe(system):
        promote(system)
        system.kernel.call_at(
            system.kernel.now + CONFIG.heartbeat_interval,
            lambda: probes.append((system.kernel.now, list(sent))))
    monkeypatch.setattr(failover_module, "promote", promote_then_probe)

    system = make_system()
    sent = record_heartbeats(system)
    system.run(until=9.0)
    assert [(now, stamp) for now, stamp, _ in sent] \
        == [(t, t) for t in (2.0, 4.0, 6.0, 8.0) for _ in range(3)]
    system.kill_primary()
    system.run(until=40.0)
    assert system.auto_failover.auto_promotions == 1
    (probe_at, sent_by_then), = probes
    assert sent_by_then[-1][:2] == (probe_at, probe_at)
    assert all(now == stamp for now, stamp, _ in sent)


def test_suspicion_is_raised_at_the_first_tick_past_the_timeout():
    """Secondary-1 last hears the tick-4 heartbeat at 4.5, so its
    silence first exceeds 8 s at the tick at 14 — and within that tick
    the heartbeats go out before the suspicion is raised."""
    system = make_system()
    sent = record_heartbeats(system)
    detector = system.auto_failover
    system.run(until=5.0)
    system.partition(0)
    system.run(until=13.5)
    assert detector.suspicions == 0
    system.run(until=14.0)
    assert detector.suspicions == 1
    system.run(until=16.0)
    assert [seen for now, _, seen in sent if now == 14.0] == [0, 0, 0]
    assert [seen for now, _, seen in sent if now == 16.0] == [1, 1, 1]


# ---------------------------------------------------------------------------
# False suspicion: a short single-link partition heals before quorum
# ---------------------------------------------------------------------------

def test_short_partition_causes_false_suspicion_not_promotion():
    system = make_system()
    system.run(until=5.0)
    system.partition(0)                # one secondary loses heartbeats
    assert system.partitions_active == 1
    system.run(until=5.0 + CONFIG.suspicion_timeout + 3.0)
    detector = system.auto_failover
    assert detector.suspicions == 1    # below the quorum of 2
    assert detector.auto_promotions == 0
    system.heal(0)
    system.run(until=system.kernel.now + 3 * CONFIG.heartbeat_interval)
    # The primary spoke again: the suspicion was retracted as false.
    assert detector.false_suspicions == 1
    assert detector.lease_expiries == 0
    assert system.promotions == 0
    # The held refresh traffic was delivered on heal: still convergent.
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()


def test_crashed_secondary_is_no_detector():
    """Down replicas neither suspect nor count toward quorum, and do not
    fire a stale suspicion the instant they recover."""
    system = make_system()
    system.run(until=5.0)
    system.crash_secondary(0)
    system.run(until=30.0)             # outage longer than the timeout
    system.recover_secondary(0)
    system.run(until=system.kernel.now + 3 * CONFIG.heartbeat_interval)
    detector = system.auto_failover
    assert detector.suspicions == 0
    assert detector.auto_promotions == 0
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()
