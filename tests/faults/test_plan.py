"""FaultPlan / FaultInjector: scheduled crash-recovery choreography."""

import pytest

from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan
from repro.sim.rng import RandomStreams


def test_event_validation():
    with pytest.raises(ConfigurationError):
        FaultEvent(at=1.0, action="set-on-fire")
    with pytest.raises(ConfigurationError):
        FaultEvent(at=-1.0, action="crash_primary")
    with pytest.raises(ConfigurationError):
        FaultEvent(at=1.0, action="crash_secondary")   # needs target
    # Partition events are valid with a single-link target or without
    # one (a full primary partition).
    FaultEvent(at=1.0, action="partition")
    FaultEvent(at=1.0, action="partition", target=1)
    FaultEvent(at=2.0, action="heal")


def test_plan_sorts_events_and_reports_horizon():
    plan = FaultPlan.of([
        FaultEvent(at=9.0, action="restart_primary"),
        FaultEvent(at=3.0, action="crash_primary"),
    ])
    assert [e.at for e in plan] == [3.0, 9.0]
    assert plan.horizon == 9.0
    assert plan.count("crash_primary") == 1
    assert len(plan) == 2


def test_random_plan_shape():
    rng = RandomStreams(5)["plan"]
    plan = FaultPlan.random(rng, horizon=100.0, num_secondaries=3,
                            secondary_outages=2)
    assert plan.count("crash_secondary") == 2
    assert plan.count("recover_secondary") == 2
    assert plan.count("crash_primary") == 1
    assert plan.count("restart_primary") == 1
    assert plan.count("pause_propagator") == 1
    assert plan.count("resume_propagator") == 1
    assert all(0.0 < e.at < 100.0 for e in plan)


def test_random_plan_secondary_windows_do_not_overlap():
    for seed in range(20):
        rng = RandomStreams(seed)["plan"]
        plan = FaultPlan.random(rng, horizon=100.0, num_secondaries=2,
                                secondary_outages=3)
        down = 0
        for event in plan:
            if event.action == "crash_secondary":
                down += 1
                assert down <= 1   # never two secondaries down at once
            elif event.action == "recover_secondary":
                down -= 1
        assert down == 0           # every outage closed before the horizon


def test_random_plan_requires_two_secondaries():
    rng = RandomStreams(0)["plan"]
    with pytest.raises(ConfigurationError):
        FaultPlan.random(rng, horizon=10.0, num_secondaries=1)


@pytest.mark.parametrize("kwargs", [dict(secondary_outages=-1),
                                    dict(partitions=-1)])
def test_random_plan_rejects_negative_window_counts(kwargs):
    rng = RandomStreams(0)["plan"]
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        FaultPlan.random(rng, horizon=10.0, num_secondaries=3, **kwargs)


def test_injector_applies_events_at_their_times():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.0)
    plan = FaultPlan.of([
        FaultEvent(at=5.0, action="crash_secondary", target=0),
        FaultEvent(at=10.0, action="recover_secondary", target=0),
    ])
    injector = FaultInjector(system, plan)
    injector.start()
    system.run(until=6.0)
    assert system.secondaries[0].crashed
    system.run(until=11.0)
    assert not system.secondaries[0].crashed
    assert injector.finished
    assert [e.at for e in injector.applied] == [5.0, 10.0]


def test_injector_skips_inapplicable_events():
    system = ReplicatedSystem(num_secondaries=2)
    system.crash_secondary(0)
    plan = FaultPlan.of([
        FaultEvent(at=1.0, action="crash_secondary", target=0),   # already down
        FaultEvent(at=2.0, action="restart_primary"),             # never crashed
    ])
    injector = FaultInjector(system, plan)
    injector.start()
    system.run(until=3.0)
    assert injector.applied == []
    assert len(injector.skipped) == 2


# ---------------------------------------------------------------------------
# Permanent primary kill + promotion trigger
# ---------------------------------------------------------------------------

def test_random_kill_plan_shape():
    rng = RandomStreams(5)["plan"]
    plan = FaultPlan.random(rng, horizon=100.0, num_secondaries=3,
                            secondary_outages=2,
                            permanent_primary_kill=True)
    assert plan.count("kill_primary") == 1
    assert plan.count("promote_secondary") == 1
    assert plan.count("crash_primary") == 0
    assert plan.count("restart_primary") == 0
    kill = next(e for e in plan if e.action == "kill_primary")
    promote = next(e for e in plan if e.action == "promote_secondary")
    assert kill.at < promote.at
    assert promote.target is None     # freshest live secondary wins


def test_kill_plan_reuses_the_crash_plan_draws():
    """Flipping permanent_primary_kill must not shift any other seeded
    choice: the kill/promote pair lands exactly where the crash/restart
    pair would have."""
    for seed in range(10):
        crash = FaultPlan.random(RandomStreams(seed)["plan"],
                                 horizon=100.0, num_secondaries=3)
        kill = FaultPlan.random(RandomStreams(seed)["plan"],
                                horizon=100.0, num_secondaries=3,
                                permanent_primary_kill=True)
        remap = {"crash_primary": "kill_primary",
                 "restart_primary": "promote_secondary"}
        assert [(e.at, remap.get(e.action, e.action), e.target)
                for e in crash] \
            == [(e.at, e.action, e.target) for e in kill]


def test_injector_applies_kill_and_promotion():
    from repro.core.promotion import PromotionConfig

    system = ReplicatedSystem(num_secondaries=3, propagation_delay=0.0,
                              promotion=PromotionConfig())
    session = system.session()
    session.write("x", 1)
    system.quiesce()
    plan = FaultPlan.of([
        FaultEvent(at=5.0, action="kill_primary"),
        FaultEvent(at=10.0, action="promote_secondary"),
    ])
    injector = FaultInjector(system, plan)
    injector.start()
    system.run(until=6.0)
    assert system.primary.crashed and system.primary.permanently_failed
    system.run(until=11.0)
    assert not system.primary.crashed
    assert system.promotions == 1
    assert len(injector.applied) == 2
    session.write("x", 2)
    system.quiesce()
    assert system.primary_state() == {"x": 2}


def test_injector_skips_promotion_when_disabled_or_primary_live():
    system = ReplicatedSystem(num_secondaries=2)
    plan = FaultPlan.of([
        # Primary is live, so neither event applies: promotion answers
        # a failure that has not happened...
        FaultEvent(at=1.0, action="promote_secondary"),
        # ...and with promotion=None the trigger is inert even after a
        # crash (no accidental epoch churn on classic configurations).
        FaultEvent(at=2.0, action="crash_primary"),
        FaultEvent(at=3.0, action="promote_secondary"),
    ])
    injector = FaultInjector(system, plan)
    injector.start()
    system.run(until=4.0)
    assert [e.action for e in injector.applied] == ["crash_primary"]
    assert [e.action for e in injector.skipped] \
        == ["promote_secondary", "promote_secondary"]
    system.restart_primary()


def test_kill_plan_without_scripted_promotion_same_draws():
    """scripted_promotion=False must only remove the promote event: the
    promotion-trigger time is still drawn, so no other choice shifts."""
    for seed in range(10):
        scripted = FaultPlan.random(RandomStreams(seed)["plan"],
                                    horizon=100.0, num_secondaries=3,
                                    permanent_primary_kill=True)
        auto = FaultPlan.random(RandomStreams(seed)["plan"],
                                horizon=100.0, num_secondaries=3,
                                permanent_primary_kill=True,
                                scripted_promotion=False)
        assert auto.count("promote_secondary") == 0
        assert [(e.at, e.action, e.target) for e in scripted
                if e.action != "promote_secondary"] \
            == [(e.at, e.action, e.target) for e in auto]


def test_injector_skips_restart_after_permanent_kill():
    from repro.core.promotion import PromotionConfig

    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.0,
                              promotion=PromotionConfig())
    plan = FaultPlan.of([
        FaultEvent(at=1.0, action="kill_primary"),
        FaultEvent(at=2.0, action="restart_primary"),   # must be refused
        FaultEvent(at=3.0, action="promote_secondary"),
    ])
    injector = FaultInjector(system, plan)
    injector.start()
    system.run(until=4.0)
    assert [e.action for e in injector.applied] \
        == ["kill_primary", "promote_secondary"]
    assert [e.action for e in injector.skipped] == ["restart_primary"]


# ---------------------------------------------------------------------------
# Partition windows
# ---------------------------------------------------------------------------

def test_random_plan_partition_windows():
    rng = RandomStreams(5)["plan"]
    plan = FaultPlan.random(rng, horizon=100.0, num_secondaries=3,
                            partitions=2)
    assert plan.count("partition") == 2
    assert plan.count("heal") == 2
    cuts = [e for e in plan if e.action in ("partition", "heal")]
    # Sequential windows: cut/heal/cut/heal, never two cuts open at once,
    # every cut targets a single secondary's link (never the full tier).
    assert [e.action for e in cuts] == ["partition", "heal"] * 2
    for cut, heal in zip(cuts[::2], cuts[1::2]):
        assert cut.at < heal.at
        assert cut.target == heal.target
        assert cut.target is not None and 0 <= cut.target < 3


def test_partition_draws_do_not_shift_existing_plans():
    """partitions=N draws come last: every pre-partition event of the
    plan is identical to the partitions=0 plan for the same seed."""
    for seed in range(10):
        base = FaultPlan.random(RandomStreams(seed)["plan"],
                                horizon=100.0, num_secondaries=3)
        cut = FaultPlan.random(RandomStreams(seed)["plan"],
                               horizon=100.0, num_secondaries=3,
                               partitions=2)
        assert [(e.at, e.action, e.target) for e in base] \
            == [(e.at, e.action, e.target) for e in cut
                if e.action not in ("partition", "heal")]


def test_injector_applies_partition_and_heal():
    from repro.core.failover import FailoverConfig

    system = ReplicatedSystem(
        num_secondaries=2, propagation_delay=0.5,
        failover=FailoverConfig(heartbeat_interval=2.0,
                                suspicion_timeout=8.0,
                                lease_duration=12.0))
    plan = FaultPlan.of([
        FaultEvent(at=1.0, action="partition", target=0),
        FaultEvent(at=2.0, action="heal", target=0),
        FaultEvent(at=3.0, action="heal", target=0),      # already healed
    ])
    injector = FaultInjector(system, plan)
    injector.start()
    system.run(until=1.5)
    assert system.partitions_active == 1
    system.run(until=4.0)
    assert system.partitions_active == 0
    assert [e.action for e in injector.applied] == ["partition", "heal"]
    assert [e.action for e in injector.skipped] == ["heal"]


def test_injector_skips_partition_without_links():
    """Classic systems have no link layer: partition events are skipped,
    not errors, so one plan can run against any configuration."""
    system = ReplicatedSystem(num_secondaries=2)
    plan = FaultPlan.of([
        FaultEvent(at=1.0, action="partition"),
        FaultEvent(at=2.0, action="heal"),
    ])
    injector = FaultInjector(system, plan)
    injector.start()
    system.run(until=3.0)
    assert injector.applied == []
    assert len(injector.skipped) == 2
