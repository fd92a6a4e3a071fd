"""Tests for overload protection: admission control, backpressure,
retry budgets, circuit breakers and graceful degradation."""

import pytest

from repro.core.admission import (
    SHED_POLICIES,
    AdmissionConfig,
    StalenessReport,
    TokenBucket,
)
from repro.core.guarantees import Guarantee
from repro.core.monitoring import system_status
from repro.core.system import ReplicatedSystem
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    FreshnessTimeoutError,
    OverloadError,
)
from repro.kernel.sync import Condition
from repro.sim.rng import RandomStreams
from repro.workload.generator import arrival_times


def make_system(admission, **kwargs):
    defaults = dict(num_secondaries=1, propagation_delay=0.1)
    defaults.update(kwargs)
    return ReplicatedSystem(admission=admission, **defaults)


def submit_update(system, session, key, value, outcomes):
    """Spawn one concurrent update; record how it ended."""

    def attempt():
        try:
            yield from session._update_process(
                lambda txn: txn.write(key, value))
            outcomes.append("committed")
        except (OverloadError, CircuitOpenError) as exc:
            outcomes.append(exc)

    return system.kernel.spawn(attempt(), name=f"submit-{key}")


def drain(system, processes):
    for process in processes:
        system.kernel.run_until_complete(process)


# ---------------------------------------------------------------------------
# TokenBucket (pure arithmetic, shared with the simulation model)
# ---------------------------------------------------------------------------

def test_token_bucket_starts_full_and_refills():
    bucket = TokenBucket(rate=2.0, burst=3.0)
    assert bucket.try_acquire(0.0)
    assert bucket.try_acquire(0.0)
    assert bucket.try_acquire(0.0)
    assert not bucket.try_acquire(0.0)          # empty
    assert not bucket.try_acquire(0.4)          # 0.8 tokens accrued
    assert bucket.try_acquire(0.5)              # 1.0 token at t=0.5


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    bucket.refill(1000.0)
    assert bucket.tokens == 2.0


def test_token_bucket_time_to_token_and_rate_scale():
    bucket = TokenBucket(rate=2.0, burst=1.0)
    assert bucket.try_acquire(0.0)
    assert bucket.time_to_token() == pytest.approx(0.5)
    # Browned-out refill at half rate takes twice as long.
    assert bucket.time_to_token(rate_scale=0.5) == pytest.approx(1.0)
    assert not bucket.try_acquire(0.25, rate_scale=0.5)  # 0.25 tokens
    assert bucket.try_acquire(1.0, rate_scale=0.5)


def test_token_bucket_validation():
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=1.0, burst=0.5)


# ---------------------------------------------------------------------------
# AdmissionConfig validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(rate=0.0),
    dict(rate=1.0, burst=0.5),
    dict(rate=1.0, queue_limit=-1),
    dict(rate=1.0, shed_policy="coin-flip"),
    dict(rate=1.0, retry_budget=-1),
    dict(rate=1.0, retry_base=0.0),
    dict(rate=1.0, retry_base=2.0, retry_cap=1.0),
    dict(rate=1.0, breaker_threshold=-1),
    dict(rate=1.0, breaker_cooldown=0.0),
    dict(rate=1.0, breaker_cooldown=5.0, breaker_cooldown_cap=1.0),
    dict(rate=1.0, lag_bound=0.0),
    dict(rate=1.0, brownout_floor=0.0),
    dict(rate=1.0, read_deadline=0.0),
    dict(rate=1.0, degrade_to_stale=True),      # no read_deadline
])
def test_invalid_admission_configs_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        AdmissionConfig(**kwargs)


def test_effective_burst_defaults_to_rate():
    assert AdmissionConfig(rate=4.0).effective_burst == 4.0
    assert AdmissionConfig(rate=0.5).effective_burst == 1.0
    assert AdmissionConfig(rate=4.0, burst=16.0).effective_burst == 16.0


# ---------------------------------------------------------------------------
# Dormant default
# ---------------------------------------------------------------------------

def test_admission_none_builds_nothing():
    system = make_system(None)
    assert system.admission_controller is None
    session = system.session(Guarantee.STRONG_SESSION_SI)
    assert session._breaker is None
    session.write("x", 1)
    assert session.read("x") == 1
    assert session.overload_errors == 0
    assert session.degraded_reads == 0
    status = system_status(system)
    assert status.admission_attempts == 0
    assert "admission:" not in status.report()


# ---------------------------------------------------------------------------
# Fast path, throttling and accounting
# ---------------------------------------------------------------------------

def test_fast_path_admits_without_queueing():
    system = make_system(AdmissionConfig(rate=100.0))
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    controller = system.admission_controller
    assert controller.attempts == 1
    assert controller.admitted == 1
    assert controller.throttled == 0
    assert controller.shed == 0
    system.quiesce()


def test_empty_bucket_throttles_then_admits():
    # burst=1: the first update takes the only token, the second waits
    # in the queue until the 1-token refill at t=1.
    system = make_system(AdmissionConfig(rate=1.0, burst=1.0))
    session_a = system.session(Guarantee.STRONG_SESSION_SI)
    session_b = system.session(Guarantee.STRONG_SESSION_SI)
    outcomes = []
    processes = [submit_update(system, session_a, "a", 1, outcomes),
                 submit_update(system, session_b, "b", 2, outcomes)]
    drain(system, processes)
    assert outcomes == ["committed", "committed"]
    controller = system.admission_controller
    assert controller.attempts == 2
    assert controller.admitted == 2
    assert controller.throttled == 1
    assert controller.peak_queue_depth == 1
    assert controller.total_queue_wait == pytest.approx(1.0)
    assert system.kernel.now == pytest.approx(1.0)
    system.quiesce()


# ---------------------------------------------------------------------------
# Shed policies
# ---------------------------------------------------------------------------

def shed_scenario(policy, priorities):
    """One token, queue_limit=1: admit one, queue one, overflow one."""
    system = make_system(AdmissionConfig(rate=1.0, burst=1.0,
                                         queue_limit=1,
                                         shed_policy=policy))
    sessions = [system.session(Guarantee.STRONG_SESSION_SI, priority=p)
                for p in priorities]
    outcomes = []
    processes = [submit_update(system, s, f"k{i}", i, outcomes)
                 for i, s in enumerate(sessions)]
    # One step: all three run their admission attempt at t=0 in spawn
    # order before any token refill.
    system.run(until=0.001)
    drain(system, processes)
    system.quiesce()
    return system, sessions, outcomes


def test_reject_newest_sheds_the_arrival():
    system, sessions, outcomes = shed_scenario("reject-newest", [0, 0, 0])
    shed = [o for o in outcomes if isinstance(o, OverloadError)]
    assert len(shed) == 1
    assert shed[0].label == sessions[2].label    # the newcomer
    assert shed[0].policy == "reject-newest"
    assert shed[0].queue_depth == 1
    assert sessions[2].overload_errors == 1
    controller = system.admission_controller
    assert controller.attempts == 3
    assert controller.admitted + controller.shed == controller.attempts


def test_reject_oldest_evicts_the_queue_head():
    system, sessions, outcomes = shed_scenario("reject-oldest", [0, 0, 0])
    shed = [o for o in outcomes if isinstance(o, OverloadError)]
    assert len(shed) == 1
    assert shed[0].label == sessions[1].label    # the queued head
    assert sessions[1].overload_errors == 1
    assert sessions[2].updates_committed == 1    # newcomer took the slot


def test_by_session_priority_evicts_the_lowest():
    # Waiter priority 0 loses its slot to the arriving priority-1 update.
    system, sessions, outcomes = shed_scenario("by-session-priority",
                                               [0, 0, 1])
    shed = [o for o in outcomes if isinstance(o, OverloadError)]
    assert len(shed) == 1
    assert shed[0].label == sessions[1].label
    assert sessions[2].updates_committed == 1


def test_by_session_priority_newcomer_loses_ties():
    # Queue holds priority 1; an equal-priority arrival is the latest, so
    # the tie-break sheds the newcomer rather than churning the queue.
    system, sessions, outcomes = shed_scenario("by-session-priority",
                                               [0, 1, 1])
    shed = [o for o in outcomes if isinstance(o, OverloadError)]
    assert len(shed) == 1
    assert shed[0].label == sessions[2].label
    assert sessions[1].updates_committed == 1


# ---------------------------------------------------------------------------
# Retry budgets
# ---------------------------------------------------------------------------

def test_retry_budget_exhausts_to_overload_error():
    # queue_limit=0: every empty-bucket attempt sheds immediately.  The
    # token refills at t=1.0, far past the unjittered backoff schedule
    # (0.05 + 0.1 = 0.15s), so the budget of 2 retries exhausts.
    system = make_system(AdmissionConfig(rate=1.0, burst=1.0,
                                         queue_limit=0, retry_budget=2,
                                         retry_jitter=False))
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("warm", 0)                     # consumes the one token
    with pytest.raises(OverloadError):
        session.write("x", 1)
    assert session.overload_retries == 2
    assert session.overload_errors == 1
    controller = system.admission_controller
    assert controller.attempts == 4              # 1 admitted + 3 shed
    assert controller.shed == 3
    assert controller.admitted + controller.shed == controller.attempts
    system.quiesce()


def test_retry_budget_recovers_within_budget():
    # Backoff base 1.0: the single retry lands at t=1.0, exactly when
    # the bucket has refilled one token — the retry succeeds.
    system = make_system(AdmissionConfig(rate=1.0, burst=1.0,
                                         queue_limit=0, retry_budget=3,
                                         retry_base=1.0, retry_cap=2.0,
                                         retry_jitter=False))
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("warm", 0)
    session.write("x", 1)
    assert session.overload_retries == 1
    assert session.overload_errors == 0
    assert session.updates_committed == 2
    system.quiesce()


def test_jittered_retries_draw_from_dedicated_stream():
    system = make_system(AdmissionConfig(rate=1.0, burst=1.0,
                                         queue_limit=0, retry_budget=1,
                                         retry_seed=5))
    session = system.session(Guarantee.STRONG_SESSION_SI)
    rng = system.admission_controller.retry_rng(session.label)
    assert system.admission_controller.retry_rng(session.label) is rng
    # Jitter draws are full-jitter: strictly within the deterministic
    # schedule, reproducible from retry_seed alone.
    session.write("warm", 0)
    with pytest.raises(OverloadError):
        session.write("x", 1)
    assert session.overload_retries == 1
    system.quiesce()


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

def test_breaker_opens_fails_fast_and_recovers_via_probe():
    system = make_system(AdmissionConfig(rate=1.0, burst=1.0,
                                         queue_limit=0,
                                         breaker_threshold=2,
                                         breaker_cooldown=1.0))
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("warm", 0)                     # the only token
    for _ in range(2):                           # two consecutive sheds
        with pytest.raises(OverloadError):
            session.write("x", 1)
    breaker = session._breaker
    assert breaker.state == "open"
    assert breaker.opens == 1
    # While open: fail fast, no admission attempt reaches the bucket.
    attempts_before = system.admission_controller.attempts
    with pytest.raises(CircuitOpenError) as exc_info:
        session.write("x", 1)
    assert exc_info.value.label == session.label
    assert exc_info.value.retry_after > 0
    assert session.circuit_open_errors == 1
    assert breaker.fast_failures == 1
    assert system.admission_controller.attempts == attempts_before
    # Past the cooldown the breaker half-opens and admits one probe; by
    # then the bucket has refilled, so the probe commits and closes it.
    system.run(until=5.0)
    session.write("x", 2)
    assert breaker.state == "closed"
    assert breaker.probes == 1
    assert breaker.probe_successes == 1
    assert session.updates_committed == 2
    system.quiesce()


def test_failed_probe_reopens_with_longer_cooldown():
    system = make_system(AdmissionConfig(rate=0.1, burst=1.0,
                                         queue_limit=0,
                                         breaker_threshold=1,
                                         breaker_cooldown=1.0,
                                         breaker_cooldown_cap=8.0))
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("warm", 0)
    with pytest.raises(OverloadError):
        session.write("x", 1)                    # trips at threshold 1
    breaker = session._breaker
    assert breaker.state == "open"
    first_deadline = breaker._open_until
    system.run(until=2.0)
    # Probe admitted (half-open) but the bucket is still dry at rate
    # 0.1/s: the probe sheds, reopening with a doubled cooldown.
    with pytest.raises(OverloadError):
        session.write("x", 1)
    assert breaker.state == "open"
    assert breaker.opens == 2
    assert breaker._open_until - system.kernel.now \
        > first_deadline  # 2.0 cooldown vs initial 1.0
    system.quiesce()


# ---------------------------------------------------------------------------
# Backpressure (brownout)
# ---------------------------------------------------------------------------

def test_refresh_backlog_brownouts_admission_rate():
    # Each commit costs the secondary 1s of apply work; after a quick
    # burst the backlog exceeds lag_bound=1 and the next refill observes
    # a brownout factor < 1.
    system = make_system(AdmissionConfig(rate=100.0, lag_bound=1.0),
                         refresh_apply_cost=1.0)
    session = system.session(Guarantee.WEAK_SI)
    for i in range(4):
        session.write(f"k{i}", i)
    system.run(until=0.5)                        # commits shipped, unapplied
    controller = system.admission_controller
    assert controller.brownouts == 0
    session.write("late", 1)
    assert controller.brownouts >= 1
    assert controller.min_brownout_factor < 1.0
    assert controller.min_brownout_factor \
        >= AdmissionConfig(rate=100.0, lag_bound=1.0).brownout_floor
    system.quiesce()


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

def test_read_degrades_to_stale_with_staleness_report():
    system = make_system(AdmissionConfig(rate=100.0, read_deadline=2.0,
                                         degrade_to_stale=True),
                         propagation_delay=50.0)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    value = session.read("x")                    # replica 50s behind
    assert value is None                         # served the stale snapshot
    assert session.degraded_reads == 1
    report = session.staleness_reports[0]
    assert isinstance(report, StalenessReport)
    assert report.session == session.label
    assert report.guarantee == Guarantee.STRONG_SESSION_SI.value
    assert report.required_seq == 1
    assert report.served_seq == 0
    assert report.staleness == 1
    assert report.staleness <= report.bound
    assert report.time == pytest.approx(2.0)
    assert system.admission_controller.degraded_reads == 1
    # The degradation is never silent: a later, fresh read sees the write.
    system.quiesce()
    assert session.read("x") == 1
    assert session.degraded_reads == 1


def test_read_without_opt_in_raises_freshness_timeout():
    system = make_system(AdmissionConfig(rate=100.0, read_deadline=2.0),
                         propagation_delay=50.0)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    with pytest.raises(FreshnessTimeoutError):
        session.read("x")
    assert session.degraded_reads == 0
    assert session.staleness_reports == []
    system.quiesce()


def test_explicit_max_wait_overrides_read_deadline():
    system = make_system(AdmissionConfig(rate=100.0, read_deadline=2.0,
                                         degrade_to_stale=True),
                         propagation_delay=50.0)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    value = session.execute_read_only(lambda t: t.read("x"),
                                      keys=["x"], max_wait=60.0)
    assert value == 1                            # waited, never degraded
    assert session.degraded_reads == 0
    system.quiesce()


# ---------------------------------------------------------------------------
# The protocol fact: what admission buys under a flash crowd
# ---------------------------------------------------------------------------

HORIZON = 120.0
#: Where ``arrival_times("flash-crowd")`` puts 90 % of the arrivals.
BURST_LO, BURST_HI = 0.45 * HORIZON, 0.55 * HORIZON


def _flash_crowd_ops():
    """600 ops over eight sessions as ``(arrival, session, writes, read
    key)``.  70 % are six-key updates, each 0.3 s of refresh work at the
    one secondary, so the burst offers ~30 updates/s to a replica that
    absorbs ~3.3 — where an unprotected refresh backlog explodes."""
    streams = RandomStreams(42)
    arrivals = arrival_times("flash-crowd", 600, HORIZON,
                             streams["overload-arrivals"])
    mix = streams["overload-mix"]
    ops = []
    for when in arrivals:
        index = mix.randint(0, 7)
        base = mix.randint(0, 63)
        if mix.bernoulli(0.7):
            ops.append((when, index, {f"k{(base + j) % 64}":
                                      mix.randint(0, 9999)
                                      for j in range(6)}, None))
        else:
            ops.append((when, index, None, f"k{base}"))
    return ops


def _drive_open_loop(ops, admission):
    """Hand each op to its session's runner process at its arrival
    instant (sessions run concurrently, each serial within itself, as in
    the ``--overload`` chaos storm), so the burst converges on the
    admission queue — or, with admission off, on the refresh backlog."""
    system = make_system(admission, record_history=False,
                         refresh_apply_cost=0.05)
    sessions = [system.session(Guarantee.STRONG_SESSION_SI)
                for _ in range(8)]
    kernel = system.kernel
    secondary = system.secondaries[0]
    pending = [[] for _ in sessions]
    closed = []
    cond = Condition(kernel, name="overload-ops")
    commit_times, read_waits, errors = [], [], []
    peak_lag = 0

    def runner(i):
        session = sessions[i]
        while pending[i] or not closed:
            if not pending[i]:
                yield cond.wait_for(lambda: pending[i] or closed)
                continue
            writes, key = pending[i].pop(0)
            if writes is None:
                # Start of execution to completion: the freshness wait
                # read_deadline governs, not the session's own queue.
                started = kernel.now
                yield from session._read_only_process(
                    lambda txn: txn.read(key, default=None), keys=[key])
                read_waits.append(kernel.now - started)
                continue

            def work(txn):
                for k, v in writes.items():
                    txn.write(k, v)
            try:
                yield from session._update_process(work)
                commit_times.append(kernel.now)
            except OverloadError as exc:
                errors.append(exc)

    runners = [kernel.spawn(runner(i), name=f"overload-client@{i}")
               for i in range(len(sessions))]
    for when, index, writes, key in ops:
        system.run(until=when)
        # The gauge the brownout watches: shipped-but-unapplied commits
        # plus the in-flight refresh watermark gap.
        peak_lag = max(peak_lag,
                       secondary.lag + secondary.refresher.watermark_lag)
        pending[index].append((writes, key))
        cond.notify_all()
    closed.append(True)
    cond.notify_all()
    drain(system, runners)
    system.quiesce()

    steady = sum(t < BURST_LO for t in commit_times) / BURST_LO
    burst = sum(BURST_LO <= t <= BURST_HI for t in commit_times) \
        / (BURST_HI - BURST_LO)
    read_waits.sort()
    return {"burst_over_steady": round(burst / steady, 4),
            "read_p99": round(read_waits[int(0.99 * (len(read_waits) - 1))],
                              4),
            "peak_lag": peak_lag, "client_errors": len(errors),
            "sessions": sessions, "controller": system.admission_controller}


def test_admission_holds_burst_goodput_where_the_open_system_falls_off():
    ops = _flash_crowd_ops()
    # A shade supercritical on purpose (4 commits/s x 0.3 s = 1.2 s of
    # refresh work per second), so the bucket alone cannot hold the line:
    # queue_limit sits below the session count and sheds, lag_bound
    # brownouts the admitted rate, and reads past read_deadline degrade
    # to a reported bounded-staleness snapshot instead of queueing.
    on = _drive_open_loop(ops, AdmissionConfig(
        rate=4.0, queue_limit=4, retry_budget=3, lag_bound=10,
        read_deadline=1.0, degrade_to_stale=True))
    off = _drive_open_loop(ops, None)

    assert on["burst_over_steady"] == 8.625     # holds: the bar is >= 0.9
    # The lag gauge counts the start record a waiting refresher holds
    # (12 and 66 before it did), so the brownout bites a little sooner:
    # the accounting below read 1080 / 211 / 869, 666 / 203 / 203 and 72.
    assert (on["read_p99"], on["peak_lag"]) == (1.0, 13)
    assert (off["read_p99"], off["peak_lag"]) == (9.6, 67)
    # Exact accounting: every attempt is admitted or shed, every shed is
    # retried or surfaced, every degraded read kept its reported bound.
    controller, sessions = on["controller"], on["sessions"]
    assert (controller.attempts, controller.admitted, controller.shed) \
        == (1131, 196, 935)
    assert controller.attempts == controller.admitted + controller.shed
    retries = sum(s.overload_retries for s in sessions)
    surfaced = sum(s.overload_errors for s in sessions)
    assert (retries, surfaced, on["client_errors"]) == (717, 218, 218)
    assert controller.shed == retries + surfaced
    reports = [r for s in sessions for r in s.staleness_reports]
    assert len(reports) == controller.degraded_reads == 69
    assert all(r.staleness <= r.bound for r in reports)


# ---------------------------------------------------------------------------
# Monitoring surface
# ---------------------------------------------------------------------------

def test_system_status_reports_admission_counters():
    system = make_system(AdmissionConfig(rate=1.0, burst=1.0,
                                         queue_limit=0,
                                         read_deadline=2.0,
                                         degrade_to_stale=True),
                         propagation_delay=50.0)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    with pytest.raises(OverloadError):
        session.write("y", 2)
    session.read("x")                            # degrades
    status = system_status(system)
    assert status.admission_attempts == 2
    assert status.admission_admitted == 1
    assert status.admission_shed == 1
    assert status.admission_degraded_reads == 1
    assert "admission:" in status.report()
    system.quiesce()


def test_all_shed_policies_are_exposed():
    assert SHED_POLICIES == ("reject-newest", "reject-oldest",
                             "by-session-priority")
