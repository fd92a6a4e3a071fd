"""Tests for the monitoring module."""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.monitoring import (
    StalenessProbe,
    aggregate_sessions,
    system_status,
)
from repro.core.promotion import PromotionConfig
from repro.core.sharding import ShardingConfig, shard_of
from repro.core.system import ReplicatedSystem
from repro.faults.channel import ChannelFaults


def make_system(**kwargs):
    defaults = dict(num_secondaries=2, propagation_delay=2.0)
    defaults.update(kwargs)
    return ReplicatedSystem(**defaults)


def test_status_reflects_primary_commits():
    system = make_system()
    s = system.session()
    s.write("x", 1)
    s.write("y", 2)
    status = system_status(system)
    assert status.primary_commit_ts == 2
    assert status.primary.commits == 2
    assert status.primary.seq_db is None


def test_status_shows_lag_before_propagation():
    system = make_system(propagation_delay=100.0)
    s = system.session()
    s.write("x", 1)
    status = system_status(system)
    assert all(sec.lag == 1 for sec in status.secondaries)
    system.quiesce()
    status = system_status(system)
    assert all(sec.lag == 0 for sec in status.secondaries)


def test_status_marks_crashed_site():
    system = make_system()
    system.crash_secondary(0)
    status = system_status(system)
    assert status.secondaries[0].crashed
    assert status.secondaries[0].lag is None
    assert not status.secondaries[1].crashed


def test_report_renders_all_sites():
    system = make_system()
    s = system.session()
    s.write("x", 1)
    system.quiesce()
    report = system_status(system).report()
    assert "primary" in report
    assert "secondary-1" in report and "secondary-2" in report
    assert "CRASHED" not in report
    system.crash_secondary(1)
    assert "CRASHED" in system_status(system).report()


def test_status_counts_versions_and_refreshes():
    system = make_system()
    s = system.session()
    for i in range(3):
        s.write("x", i)
    system.quiesce()
    status = system_status(system)
    assert status.primary.stored_versions == 3
    for sec in status.secondaries:
        assert sec.refreshes_applied == 3
        assert sec.stored_versions == 3
        assert sec.pending_refreshes == 0
        assert sec.queued_records == 0


def test_aggregate_sessions():
    system = make_system(propagation_delay=3.0)
    sessions = [system.session(Guarantee.STRONG_SESSION_SI)
                for _ in range(2)]
    sessions[0].write("x", 1)
    sessions[0].read("x")
    sessions[1].read("x", default=None)
    stats = aggregate_sessions(sessions)
    assert stats.sessions == 2
    assert stats.updates == 1
    assert stats.reads == 2
    assert stats.blocked_reads == 1
    assert stats.blocked_fraction == pytest.approx(0.5)
    assert stats.mean_wait_per_blocked_read == pytest.approx(3.0)


def test_staleness_probe_samples_lag():
    system = make_system(propagation_delay=5.0)
    probe = StalenessProbe(system, interval=1.0)
    probe.start()
    s = system.session(Guarantee.WEAK_SI)
    s.write("x", 1)
    system.run(until=10.0)
    probe.stop()
    assert probe.stats.n >= 9
    assert probe.stats.maximum == 1          # one commit lagged
    assert probe.samples[-1][1] == 0         # caught up by t=10
    lags = [lag for _, lag in probe.samples]
    assert 1 in lags and 0 in lags


def test_staleness_probe_starts_once_and_stops_cleanly():
    """A second ``start()`` adds no sampler, and ``stop()`` cancels the
    armed sample: nothing of the probe is left pending."""
    system = make_system()
    probe = StalenessProbe(system, interval=1.0)
    probe.start()
    probe.start()
    system.run(until=3.0)
    assert [t for t, _ in probe.samples] == [1.0, 2.0, 3.0]
    probe.stop()
    system.run(until=10.0)
    assert len(probe.samples) == 3
    assert system.kernel.pending_events == 0


def test_lag_of_a_partial_subscriber_counts_only_its_shards():
    """Status and probe share one per-replica lag: a replica holding
    shards {0, 1} is not behind commits on shards 2-3."""
    full = (0, 1, 2, 3)
    system = ReplicatedSystem(
        num_secondaries=3, propagation_delay=1.0,
        sharding=ShardingConfig(shards=4, placement=(full, full, (0, 1))))
    probe = StalenessProbe(system, interval=1.0)
    probe.start()
    s = system.session()
    keys = [key for key in (f"k{i}" for i in range(100))
            if shard_of(key, 4) in (2, 3)][:5]
    for value, key in enumerate(keys):
        s.write(key, value)
    system.quiesce()
    system.run(until=system.kernel.now + 2.0)
    probe.stop()
    status = system_status(system)
    assert [site.lag for site in status.secondaries] == [0, 0, 0]
    assert probe.samples[-1][1] == 0
    assert system.secondaries[2].seq_db == 0      # holds none of the five


def test_staleness_probe_interval_validation():
    system = make_system()
    with pytest.raises(ValueError):
        StalenessProbe(system, interval=0.0)


def test_fault_free_status_has_zero_fault_counters():
    system = make_system()
    s = system.session()
    s.write("x", 1)
    system.quiesce()
    status = system_status(system)
    for site in (status.primary,) + status.secondaries:
        assert (site.crash_count, site.recover_count, site.channel_dropped,
                site.channel_duplicated, site.channel_reordered,
                site.retransmissions, site.duplicates_filtered) == \
            (0,) * 7


def test_status_counts_crashes_recoveries_and_catch_up():
    """A recovery installs a copy at the newest logged commit, so the
    recovered replica is caught up as ``recover_secondary`` returns,
    with writes still in flight to the others."""
    system = make_system(propagation_delay=1.0)
    s = system.session(secondary=1)
    s.write("x", 1)
    system.crash_secondary(0)
    s.write("y", 2)
    system.recover_secondary(0)
    newest = system.propagator.newest_commit_ts(None)
    assert (system.secondaries[0].seq_db, newest) == (2, 2)
    assert system.secondaries[1].seq_db == 0      # both still in flight
    system.quiesce()
    system.crash_primary()
    system.restart_primary()
    status = system_status(system)
    assert status.primary.crash_count == 1
    assert status.primary.recover_count == 1
    sec0 = status.secondaries[0]
    assert sec0.crash_count == 1 and sec0.recover_count == 1


def test_status_exposes_link_counters():
    from repro.faults.channel import ChannelFaults
    system = make_system(
        propagation_delay=1.0,
        channel_faults=ChannelFaults(drop=0.4, duplicate=0.3),
        fault_seed=11)
    s = system.session(secondary=0)
    for i in range(10):
        s.write("k", i)
    system.quiesce()
    status = system_status(system)
    total_dropped = sum(sec.channel_dropped for sec in status.secondaries)
    total_retx = sum(sec.retransmissions for sec in status.secondaries)
    assert total_dropped > 0
    assert total_retx > 0


def test_status_exposes_vacuum_counters():
    system = make_system(propagation_delay=1.0, autovacuum_interval=5.0)
    s = system.session()
    for i in range(10):
        s.write("k", i)
    system.quiesce()
    system.run(until=system.kernel.now + 10.0)
    status = system_status(system)
    # One daemon per site, each of which ran and reclaimed.
    assert status.vacuum_runs >= 3
    assert status.versions_reclaimed >= 3


def test_fault_free_status_has_no_vacuum_lines():
    system = make_system()
    s = system.session()
    s.write("x", 1)
    system.quiesce()
    status = system_status(system)
    # The chaos summary prints its vacuum line only for a nonzero count.
    assert (status.vacuum_runs, status.versions_reclaimed) == (0, 0)


def test_aggregate_sessions_counts_failovers():
    system = make_system()
    s = system.session(secondary=0)
    s.write("x", 1)
    system.crash_secondary(0)
    assert s.read("x") == 1
    stats = aggregate_sessions([s])
    assert stats.failovers == 1


def test_a_promoted_sites_link_counters_stay_in_the_status():
    """A promotion retires the candidate but not its link: the retired
    entry of the status reads that link's own channel counters."""
    system = make_system(channel_faults=ChannelFaults(drop=0.3),
                         promotion=PromotionConfig())
    session = system.session()
    for i in range(40):
        session.write(f"k{i % 4}", i)
    system.quiesce()
    system.kill_primary()
    report = system.promote_secondary()
    status = system_status(system)
    (retired,) = status.retired
    assert retired.name == report.new_primary
    link = next(site.link for site in system.secondaries if site.retired)
    data, acks = link.data_channel, link.ack_channel
    assert retired.channel_dropped == data.dropped + acks.dropped > 0
    assert retired.channel_duplicated == data.duplicated + acks.duplicated
    assert retired.channel_reordered == data.reordered + acks.reordered
    assert retired.retransmissions == link.retransmissions > 0
    assert retired.duplicates_filtered == link.duplicates_filtered
