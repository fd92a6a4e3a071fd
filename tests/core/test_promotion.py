"""Primary promotion: epoch-fenced failover with session reconciliation.

Covers the promotion subsystem end to end — candidate selection, epoch
fencing, topology re-pointing, tail replay, the client-side bounded
retry (``promotion_wait`` / ``NoPrimaryError``), and the honest
surfacing of the acknowledged-but-lost window (``LostUpdatesError`` +
``lost_update_windows``) — plus the unified site-liveness predicate and
the promotion counters in monitoring.
"""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.monitoring import aggregate_sessions, system_status
from repro.core.promotion import PromotionConfig
from repro.core.sharding import ShardingConfig
from repro.core.system import ReplicatedSystem
from repro.errors import (
    ConfigurationError,
    LostUpdatesError,
    NoLiveSecondariesError,
    NoPrimaryError,
    SiteUnavailableError,
)
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)


def make_system(**kwargs):
    defaults = dict(num_secondaries=3, propagation_delay=1.0,
                    promotion=PromotionConfig())
    defaults.update(kwargs)
    return ReplicatedSystem(**defaults)


def assert_checkers_pass(system):
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        result = check(system.recorder)
        assert result.ok, [v.message for v in result.violations]


# ---------------------------------------------------------------------------
# Configuration and preconditions
# ---------------------------------------------------------------------------

def test_promotion_config_validation():
    with pytest.raises(ConfigurationError):
        PromotionConfig(promotion_wait=-1.0)
    with pytest.raises(ConfigurationError):
        PromotionConfig(retry_backoff=0.0)
    with pytest.raises(ConfigurationError):
        PromotionConfig(retry_backoff=2.0, max_backoff=1.0)


def test_promote_requires_promotion_config():
    system = make_system(promotion=None)
    system.kill_primary()
    with pytest.raises(ConfigurationError, match="promotion is disabled"):
        system.promote_secondary()


def test_promote_requires_crashed_primary():
    system = make_system()
    with pytest.raises(ConfigurationError, match="primary is live"):
        system.promote_secondary()


def test_promote_rejects_dead_explicit_candidate():
    system = make_system()
    system.crash_secondary(0)
    system.kill_primary()
    with pytest.raises(ConfigurationError, match="crashed"):
        system.promote_secondary(0)


def test_promote_requires_a_live_secondary():
    system = make_system(num_secondaries=2)
    system.crash_secondary(0)
    system.crash_secondary(1)
    system.kill_primary()
    with pytest.raises(NoLiveSecondariesError):
        system.promote_secondary()


def test_killed_primary_refuses_restart():
    system = make_system()
    system.kill_primary()
    assert system.primary.permanently_failed
    with pytest.raises(ConfigurationError, match="permanently"):
        system.restart_primary()


# ---------------------------------------------------------------------------
# The promotion itself
# ---------------------------------------------------------------------------

def test_promote_picks_freshest_live_secondary():
    system = make_system()
    writer = system.session()
    writer.write("x", 1)
    writer.write("y", 2)
    system.quiesce()
    # Make replica 1 strictly fresher than the others.
    system.propagator.pause()
    writer.write("z", 3)
    system.run()
    system.propagator.replay_to(system.secondaries[1], after_commit_ts=2)
    system.run()
    assert system.secondaries[1].seq_db == 3

    system.kill_primary()
    report = system.promote_secondary()
    assert report.new_primary == "secondary-2"
    assert report.old_primary == "primary"
    assert report.base_commit_ts == 3
    assert report.lost_commits == 0
    assert report.epoch == system.cluster_epoch == 1
    assert system.primary.name == "secondary-2"
    assert system.secondaries[1].retired
    assert not system.secondaries[1].live


def test_promotion_without_loss_converges_and_passes_checkers():
    system = make_system()
    session = system.session()
    for i in range(5):
        session.write(f"k{i}", i)
    system.quiesce()

    system.kill_primary()
    report = system.promote_secondary()
    assert report.lost_commits == 0
    assert report.lost_sessions == ()
    assert system.lost_update_windows == 0

    # The update path is back: the same session keeps writing, dense
    # commit numbering continues from the shared prefix.
    session.write("k5", 5)
    session.write("k0", 99)
    system.quiesce()
    assert system.primary.latest_commit_ts == 7
    state = system.primary_state()
    assert state["k5"] == 5 and state["k0"] == 99
    for i, secondary in enumerate(system.secondaries):
        if not secondary.retired:
            assert system.secondary_state(i) == state
            assert secondary.seq_db == 7
    assert system.max_staleness() == 0
    assert session.read("k5") == 5
    assert_checkers_pass(system)


def test_promotion_replays_tail_to_lagging_replicas():
    system = make_system()
    writer = system.session()
    writer.write("a", 1)
    system.quiesce()
    system.propagator.pause()
    writer.write("b", 2)
    writer.write("c", 3)
    system.run()
    # Only replica 0 gets the tail; it becomes the promotion candidate.
    system.propagator.replay_to(system.secondaries[0], after_commit_ts=1)
    system.run()
    assert system.secondaries[0].seq_db == 3
    assert system.secondaries[1].seq_db == 1

    system.kill_primary()
    report = system.promote_secondary()
    assert report.new_primary == "secondary-1"
    # The laggards were replayed up to the truncation point...
    assert report.replayed == {"secondary-2": 2, "secondary-3": 2}
    system.quiesce()
    state = system.primary_state()
    for i in (1, 2):
        assert system.secondary_state(i) == state
        assert system.secondaries[i].seq_db == 3
    assert_checkers_pass(system)


def test_lost_update_window_is_never_silent():
    """The acceptance property: acknowledged commits truncated by a
    promotion surface as LostUpdatesError + the lost_update_windows
    counter — never silently."""
    system = make_system()
    session = system.session()
    session.write("x", 1)
    system.quiesce()

    # Two acknowledged commits that never leave the primary.
    system.propagator.pause()
    session.write("x", 2)
    session.write("y", 3)
    system.run()
    system.kill_primary()
    report = system.promote_secondary()

    assert report.base_commit_ts == 1
    assert report.old_commit_ts == 3
    assert report.lost_commits == 2
    assert report.lost_sessions == (session.label,)
    assert system.lost_update_windows == 1
    assert system.tracker.lost_windows[session.label] == (1, 3)

    # The poisoned session reports the loss on every subsequent use.
    with pytest.raises(LostUpdatesError) as exc:
        session.write("x", 4)
    assert exc.value.window == (1, 3)
    with pytest.raises(LostUpdatesError):
        session.read("x")

    # A fresh session sees the surviving prefix and can move on.
    fresh = system.session()
    assert fresh.read("x") == 1
    assert fresh.read("y", default=None) is None
    fresh.write("y", 30)
    system.quiesce()
    assert system.primary_state() == {"x": 1, "y": 30}
    assert_checkers_pass(system)


def test_blocked_strong_session_read_unblocks_with_lost_updates_error():
    """A strong-session read waiting for a truncated seq(c) must not
    block forever: the promotion poisons the wait."""
    system = make_system()
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    system.quiesce()
    system.propagator.pause()
    session.write("x", 2)          # acknowledged, never shipped
    system.run()
    system.kill_primary()

    # Schedule the promotion to land while the read is blocked on
    # seq(c)=2, which no replica will ever reach.
    system.kernel.call_at(system.kernel.now + 2.0,
                          system.promote_secondary)
    with pytest.raises(LostUpdatesError):
        session.read("x")


@pytest.mark.parametrize("sharding", [None, ShardingConfig(shards=4)],
                         ids=["unsharded", "sharded"])
def test_read_parked_on_a_fenced_replica_wakes_with_lost_updates_error(
        sharding):
    """The same wait, parked on a replica the promotion *fences* rather
    than retires.  The fence notifies the replica's waiters before the
    session reconcile assigns the lost window, so without a second
    wake-up after the reconcile the read never re-evaluates its
    predicate (``DeadlockError`` — chaos seed 9 with ``--shards 8
    --primary-kill``)."""
    system = make_system(sharding=sharding)
    session = system.session(Guarantee.STRONG_SESSION_SI, secondary=1)
    session.write("x", 1)
    system.quiesce()
    system.propagator.pause()
    session.write("x", 2)          # acknowledged, never shipped
    system.run()
    system.kill_primary()
    system.kernel.call_at(system.kernel.now + 2.0,
                          system.promote_secondary, 0)
    with pytest.raises(LostUpdatesError):
        session.read("x")


def test_update_retries_across_promotion():
    """execute_update blocks through the no-primary window and commits
    on the new primary once promotion lands."""
    system = make_system(promotion=PromotionConfig(promotion_wait=30.0,
                                                   retry_backoff=0.25))
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    system.kill_primary()
    system.kernel.call_at(system.kernel.now + 5.0,
                          system.promote_secondary)

    session.write("x", 2)          # issued while no primary exists
    assert system.promotions == 1
    assert session.no_primary_errors == 0
    system.quiesce()
    assert system.primary_state()["x"] == 2
    assert_checkers_pass(system)


def test_no_primary_error_after_wait_exhausted():
    system = make_system(promotion=PromotionConfig(promotion_wait=2.0,
                                                   retry_backoff=0.25))
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    system.kill_primary()
    start = system.kernel.now
    with pytest.raises(NoPrimaryError):
        session.write("x", 2)
    assert system.kernel.now == pytest.approx(start + 2.0)
    assert session.no_primary_errors == 1
    # The error is transient, not poison: promotion revives the session.
    system.promote_secondary()
    session.write("x", 2)
    system.quiesce()
    assert system.primary_state()["x"] == 2


def test_reads_fail_over_from_the_promoted_replica():
    system = make_system()
    session = system.session(secondary=1)
    session.write("x", 1)
    system.quiesce()
    system.kill_primary()
    report = system.promote_secondary(1)
    assert report.new_primary == "secondary-2"
    # The session's replica retired; the read rebinds transparently.
    assert session.read("x") == 1
    assert session.failovers == 1
    assert session.secondary is not system.secondaries[1]


def test_time_travel_read_on_retired_replica_raises():
    system = make_system()
    session = system.session(secondary=0)
    session.write("x", 1)
    system.quiesce()
    system.kill_primary()
    system.promote_secondary(0)
    with pytest.raises(SiteUnavailableError, match="promoted"):
        session.execute_read_only_at(1, lambda t: t.read("x"))
    session.move_to(1)
    assert session.execute_read_only_at(1, lambda t: t.read("x")) == 1


def test_fencing_discards_stale_inflight_records():
    """Queued pre-promotion deliveries are fenced, not applied: the old
    epoch cannot leak into the new axis."""
    system = make_system(propagation_delay=5.0)
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    # Ship a commit that reaches the replicas' queues only after the
    # promotion (propagation delay) — it must be discarded by the fence.
    system.propagator.pause()
    session.write("x", 2)
    system.run()
    system.kill_primary()
    report = system.promote_secondary()
    assert system.fenced_stale_records == report.fenced_records
    system.quiesce()
    # The truncated commit is gone everywhere; replicas match the new
    # primary exactly.
    state = system.primary_state()
    assert state == {"x": 1}
    for i, secondary in enumerate(system.secondaries):
        if not secondary.retired:
            assert system.secondary_state(i) == state
    assert_checkers_pass(system)


def test_promotion_fences_loaded_applicators():
    """Promotion while every secondary's refresher is mid-drain —
    commits queued for the applicator slot, refresh transactions being
    replayed and open in the engine — must not wedge: the fence aborts
    the open refreshes, counts every queued-but-unapplied record, and
    the new regime proceeds cleanly."""
    system = make_system(serial_refresh=True, refresh_apply_cost=0.4)
    session = system.session()
    for i in range(6):
        session.write(f"k{i}", i)
    # Records arrive at t=1 (propagation delay); each apply costs 0.4 s,
    # so stopping at t=1.5 catches the applicator mid-apply with a backlog.
    system.run(until=1.5)
    loaded = [s for s in system.secondaries if s.refresher.pending_count]
    assert loaded, "drained early; the scenario needs a backlog"
    inflight_refreshes = [
        txn for s in system.secondaries
        for txn in s.engine.active_transactions
        if (txn.metadata or {}).get("refresh_of") is not None]
    assert inflight_refreshes, "no refresh transaction was in flight"
    expected_fenced = sum(s.lag for s in system.secondaries)

    system.kill_primary()
    report = system.promote_secondary()
    assert report.fenced_records == expected_fenced > 0
    assert system.fenced_stale_records == report.fenced_records
    # Every open refresh transaction was aborted by the fence, on
    # retired and fenced sites alike — nothing is left open to hold
    # back the engine.
    for site in [system.primary, *system.secondaries]:
        assert not [txn for txn in site.engine.active_transactions
                    if (txn.metadata or {}).get("refresh_of") is not None]

    # The new regime is fully live: a fresh session writes through the
    # promoted primary and the surviving replicas converge on it.
    fresh = system.session()
    fresh.write("post", 42)
    system.quiesce()
    state = system.primary_state()
    assert state["post"] == 42
    for i, secondary in enumerate(system.secondaries):
        if not secondary.retired:
            assert system.secondary_state(i) == state
            assert secondary.seq_db == system.primary.latest_commit_ts
    assert_checkers_pass(system)


def test_promotion_fences_parallel_refresh_mid_hole():
    """Same scenario with the parallel scheduler: commits applied out
    of order above the watermark are rolled back by the fence (they
    were never visible), and replay brings the survivors level."""
    system = make_system(parallel_refresh=2, refresh_apply_cost=0.4)
    session = system.session()
    for i in range(6):
        session.write(f"k{i}", i)
    system.run(until=1.5)
    assert any(s.refresher.pending_count for s in system.secondaries)

    system.kill_primary()
    report = system.promote_secondary()
    assert report.fenced_records >= 0
    fresh = system.session()
    fresh.write("post", 42)
    system.quiesce()
    state = system.primary_state()
    assert state["post"] == 42
    for i, secondary in enumerate(system.secondaries):
        if not secondary.retired:
            assert system.secondary_state(i) == state
            assert secondary.seq_db == system.primary.latest_commit_ts
    assert_checkers_pass(system)


def test_crash_and_recover_refuse_retired_targets():
    system = make_system()
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    system.kill_primary()
    report = system.promote_secondary()
    index = int(report.new_primary.rsplit("-", 1)[1]) - 1
    assert system.secondaries[index].retired
    with pytest.raises(ConfigurationError, match="promoted"):
        system.crash_secondary(index)
    with pytest.raises(ConfigurationError, match="promoted"):
        system.recover_secondary(index)


def test_second_promotion_stacks_epochs():
    system = make_system()
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    system.kill_primary()
    first = system.promote_secondary()
    session.write("x", 2)
    system.quiesce()
    system.kill_primary()
    second = system.promote_secondary()
    assert (first.epoch, second.epoch) == (1, 2)
    assert second.old_primary == first.new_primary
    assert system.cluster_epoch == 2 and system.promotions == 2
    session.write("x", 3)
    system.quiesce()
    live = [i for i, s in enumerate(system.secondaries) if not s.retired]
    assert len(live) == 1
    assert system.secondary_state(live[0]) == system.primary_state() \
        == {"x": 3}
    assert_checkers_pass(system)


# ---------------------------------------------------------------------------
# The unified liveness predicate (satellite)
# ---------------------------------------------------------------------------

def test_live_predicate_agrees_everywhere():
    """max_staleness and session failover must consult the same
    ``SecondarySite.live`` property: crashed OR retired means dead."""
    system = make_system()
    session = system.session(secondary=0)
    session.write("x", 1)
    system.quiesce()

    for site in system.secondaries:
        assert site.live == (not site.crashed and not site.retired)
    system.crash_secondary(0)
    assert not system.secondaries[0].live
    # max_staleness skips the crashed site instead of crashing on its
    # seq_db, and failover lands on a live one.
    assert system.max_staleness() == 0
    assert session.read("x") == 1
    assert session.secondary.live

    system.kill_primary()
    system.promote_secondary()           # retires the freshest live site
    retired = [s for s in system.secondaries if s.retired]
    assert len(retired) == 1
    assert not retired[0].crashed and not retired[0].live
    assert system.max_staleness() == 0   # skips crashed AND retired

    # With every replica crashed or retired, both surfaces agree there
    # is nothing to serve reads.
    live = [i for i, s in enumerate(system.secondaries) if s.live]
    for index in live:
        system.crash_secondary(index)
    with pytest.raises(NoLiveSecondariesError, match="crashed or retired"):
        system.max_staleness()
    with pytest.raises(SiteUnavailableError):
        session.read("x")


# ---------------------------------------------------------------------------
# Monitoring counters (satellite)
# ---------------------------------------------------------------------------

def test_monitoring_counts_promotions_and_losses():
    system = make_system()
    session = system.session()
    session.write("x", 1)
    system.quiesce()

    before = system_status(system)
    assert before.promotions == 0
    assert "promotions" not in before.report()

    system.propagator.pause()
    session.write("x", 2)                # will be truncated
    system.run()
    system.kill_primary()
    system.promote_secondary()

    status = system_status(system)
    assert status.promotions == 1
    assert status.cluster_epoch == 1
    assert status.lost_update_windows == 1
    assert status.fenced_stale_records == system.fenced_stale_records
    assert "promotions: 1" in status.report()
    # The retired replica is the primary now; it is not double-reported.
    assert len(status.secondaries) == 2

    with pytest.raises(LostUpdatesError):
        session.read("x")
    stats = aggregate_sessions([session])
    assert stats.lost_sessions == 1
    assert stats.no_primary_errors == 0


def test_session_stats_count_no_primary_errors():
    system = make_system(promotion=PromotionConfig(promotion_wait=1.0))
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    system.kill_primary()
    with pytest.raises(NoPrimaryError):
        session.write("x", 2)
    stats = aggregate_sessions([session])
    assert stats.no_primary_errors == 1
    assert stats.lost_sessions == 0


# ---------------------------------------------------------------------------
# The dormant default
# ---------------------------------------------------------------------------

def test_promotion_disabled_is_dormant():
    """promotion=None keeps every new surface inert: no counters, no
    report lines, and updates fail exactly as before while the primary
    is down."""
    system = make_system(promotion=None)
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    system.crash_primary()
    with pytest.raises(SiteUnavailableError):
        session.write("x", 2)
    assert system.promotions == 0
    assert system.cluster_epoch == 0
    assert system.promotion_reports == []
    status = system_status(system)
    assert "promotions" not in status.report()
    assert not any(s.retired for s in system.secondaries)
