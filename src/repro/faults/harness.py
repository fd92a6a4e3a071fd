"""The chaos harness: seeded fault schedules vs. the SI guarantees.

``run_chaos(ChaosConfig(seed=7))`` builds a full
:class:`~repro.core.system.ReplicatedSystem` with lossy propagation
channels (drop/duplicate/jitter/reorder, all drawn from seeded streams),
runs a seeded multi-session client workload while a seeded
:class:`~repro.faults.plan.FaultPlan` crashes and recovers secondaries,
crashes and WAL-restarts the primary (or, with ``primary_kill``, kills
it for good and promotes a secondary under a new cluster epoch — an
election the :mod:`~repro.core.failover` control plane runs on its own
when ``auto_failover`` is set), stalls the propagator, and (with
``partitions``) blackholes links for seeded windows — then verifies
that nothing the paper proves was lost:

* the system **converges**: after recovery and ``quiesce()`` every
  secondary state equals the primary state;
* the recorded history still passes the **completeness**, **weak SI**
  and **strong session SI** checkers (which trust no middleware
  bookkeeping, only the history itself).

Every run is a pure function of its seed — replay a failing seed to get
the identical execution, fault for fault.

CLI: ``python -m repro.faults --seeds 20``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.admission import AdmissionConfig
from repro.core.failover import FailoverConfig
from repro.core.guarantees import Guarantee
from repro.core.monitoring import (
    SessionStats,
    SystemStatus,
    aggregate_sessions,
    system_status,
)
from repro.core.promotion import PromotionConfig
from repro.core.sharding import ShardingConfig
from repro.core.system import ReplicatedSystem
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    FirstCommitterWinsError,
    FreshnessTimeoutError,
    LostUpdatesError,
    NoPrimaryError,
    OverloadError,
    ReproError,
    ShardUnavailableError,
    SiteUnavailableError,
)
from repro.faults.channel import ChannelFaults
from repro.faults.plan import FaultInjector, FaultPlan
from repro.kernel.sync import Condition
from repro.sim.rng import RandomStreams
from repro.workload.generator import arrival_times
from repro.txn.checkers import (
    CheckResult,
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.history import HistoryRecorder

#: Channel faults aggressive enough that every schedule sees drops,
#: duplicates and reordering, yet tame enough to converge quickly.
DEFAULT_FAULTS = ChannelFaults(drop=0.15, duplicate=0.10, jitter=2.0,
                               reorder=0.10, reorder_delay=3.0)

#: Share of client ops that are updates; the rest are point reads.
UPDATE_SHARE = 0.4
#: How long a read waits for a live replica before it is deferred.
READ_FAILOVER_WAIT = 60.0

#: The one outcome table: the :class:`ChaosResult` counter each typed
#: error bumps, by ``(error type, op is an update)``.  An op ending in
#: ``LostUpdatesError`` replaces its session; any other error escapes.
_OUTCOMES = {
    # The primary is down, or no promoted one appeared in time.
    (SiteUnavailableError, True): "deferred_updates",
    (NoPrimaryError, True): "deferred_updates",
    (FirstCommitterWinsError, True): "fcw_aborts",
    (OverloadError, True): "shed_updates",     # after the retry budget
    (CircuitOpenError, True): "breaker_fast_fails",
    # Every replica, or every holder of the key's shard, stayed down.
    (SiteUnavailableError, False): "deferred_reads",
    (ShardUnavailableError, False): "deferred_reads",
    # The admission read deadline passed with degradation off.
    (FreshnessTimeoutError, False): "read_timeouts",
}


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run: a seed plus workload/fault shape knobs."""

    seed: int
    num_secondaries: int = 3
    num_sessions: int = 4
    ops: int = 120
    keys: int = 8
    horizon: float = 120.0
    propagation_delay: float = 1.0
    faults: ChannelFaults = DEFAULT_FAULTS
    secondary_outages: int = 2
    primary_crash: bool = True
    #: Make the primary failure *permanent*: the plan's primary window
    #: becomes kill + promotion of the freshest live secondary, the
    #: system gets a default :class:`PromotionConfig`, and the workload
    #: rides the failover (retrying updates, replacing sessions whose
    #: acknowledged commits were truncated).
    primary_kill: bool = False
    #: Seeded partition windows: each blackholes one secondary's link
    #: (data held, control dropped) and heals it later in the run.
    partitions: int = 0
    #: Autonomous failover: run the heartbeat/lease/suspicion control
    #: plane (a default :class:`FailoverConfig`) and let the
    #: :class:`~repro.core.failover.AutoFailover` coordinator detect a
    #: killed primary and promote on its own — the plan's scripted
    #: ``promote_secondary`` trigger is suppressed.
    auto_failover: bool = False
    #: Throughput knobs: propagation batching cycle and per-site
    #: autovacuum cadence.
    batch_interval: Optional[float] = None
    autovacuum_interval: Optional[float] = None
    #: Dependency-tracked parallel refresh (workers per secondary) and
    #: per-update-op virtual apply cost.  A nonzero cost is what makes
    #: reordering actually happen under faults — with free applies every
    #: commit finishes instantly and in order.
    parallel_refresh: Optional[int] = None
    refresh_apply_cost: float = 0.0
    #: Client arrival shaping ("uniform", "flash-crowd" or "diurnal").
    #: "uniform" keeps the classic sorted-uniform op times (bit-identical
    #: replay); the shaped patterns draw op instants from a dedicated
    #: "arrivals" stream, so the workload stream's draw sequence — and
    #: thus every op's session/key/value choice — is untouched.
    arrival_pattern: str = "uniform"
    #: Admission control / overload protection.  Default ``None`` keeps
    #: a controller-free system whose client ops run one at a time.
    #: When set, they are dispatched *open-loop*: per-session runner
    #: processes execute them concurrently across sessions (serialized
    #: within each), which is what actually fills the bounded admission
    #: queue during a burst.
    admission: Optional[AdmissionConfig] = None
    #: Keyspace sharding with partial replication: ``shards=N`` derives a
    #: placement where the first two secondaries hold every shard (so
    #: promotion always has a full-coverage candidate through any single
    #: outage) and each further secondary subscribes to an alternating
    #: half of the keyspace.
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("ops", "keys"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.secondary_outages < 0 or self.partitions < 0:
            raise ConfigurationError(
                "secondary_outages and partitions must be >= 0")
        for name in ("num_sessions", "num_secondaries"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")

    def sharding_config(self) -> Optional[ShardingConfig]:
        """The derived :class:`ShardingConfig` (None with sharding off)."""
        if self.shards is None:
            return None
        return ShardingConfig(
            shards=self.shards,
            placement=derived_placement(self.shards,
                                        self.num_secondaries))


def derived_placement(shards: int,
                      num_secondaries: int) -> tuple[frozenset, ...]:
    """Chaos-harness placement: two full-coverage replicas, then halves.

    Secondaries 0 and 1 subscribe to every shard — the promotion pool
    stays non-empty through any single-site outage — and each further
    secondary takes an alternating half of the shard range, so partial
    subscription, routing by held shards and per-shard frontiers all get
    exercised whenever there are three or more secondaries.
    """
    full = frozenset(range(shards))
    if shards < 2:
        return tuple(full for _ in range(num_secondaries))
    half = shards // 2
    halves = (frozenset(range(half)), frozenset(range(half, shards)))
    placement = []
    for index in range(num_secondaries):
        if index < 2:
            placement.append(full)
        else:
            placement.append(halves[index % 2])
    return tuple(placement)


@dataclass
class ChaosResult:
    """Outcome and diagnostics of one chaos run.

    The system's own counters are read once, at the end of the run, into
    :attr:`status` and :attr:`clients`; the fields here are what only the
    harness knows: the driver's operation outcomes and the injector's
    bookkeeping.
    """

    seed: int
    converged: bool
    checks: list[CheckResult] = field(default_factory=list)
    plan: Optional[FaultPlan] = None
    #: The run's recorded history (for re-checking, e.g. against the
    #: reference checkers) and its approximate size.
    recorder: Optional["HistoryRecorder"] = None
    history_bytes: int = 0
    live_keys: int = 0             # keys in the converged primary state
    #: The settled system's snapshot, and its sessions' (replaced ones
    #: included) summed counters.
    status: Optional[SystemStatus] = None
    clients: Optional[SessionStats] = None
    #: Operation outcomes, as the driver saw them.
    updates: int = 0
    reads: int = 0
    deferred_updates: int = 0      # primary was down; dropped client-side
    fcw_aborts: int = 0
    deferred_reads: int = 0        # no live replica (holding its shard)
    shed_updates: int = 0          # updates shed after the retry budget
    breaker_fast_fails: int = 0    # updates failed fast by an open breaker
    read_timeouts: int = 0         # freshness deadline hit, no degradation
    #: Injector bookkeeping: kills, partitions and heals applied, and how
    #: many plan events actually fired vs. were skipped as inapplicable
    #: (e.g. promote with no live candidate, heal of a never-cut link).
    primary_kills: int = 0
    partitions: int = 0
    heals: int = 0
    events_applied: int = 0
    events_skipped: int = 0
    skipped_actions: tuple = ()

    @property
    def ok(self) -> bool:
        return self.converged and all(c.ok for c in self.checks)

    def describe(self) -> str:
        """One human-readable line per aspect (used by CLI and asserts)."""
        status, clients = self.status, self.clients
        sites = status.secondaries + status.retired
        lines = [f"seed {self.seed}: "
                 f"{'OK' if self.ok else 'FAILED'} "
                 f"(converged={self.converged})"]
        for check in self.checks:
            lines.append(f"  {check.summary()}")
            for violation in check.violations[:5]:
                lines.append(f"    {violation.kind}: {violation.message}")
        lines.append(
            f"  ops: {self.updates} updates ({self.deferred_updates} "
            f"deferred while primary down), {self.reads} reads, "
            f"{clients.failovers} failovers")
        lines.append(
            f"  channel: {sum(s.channel_dropped for s in sites)} dropped, "
            f"{sum(s.channel_duplicated for s in sites)} duplicated, "
            f"{sum(s.channel_reordered for s in sites)} reordered, "
            f"{sum(s.retransmissions for s in sites)} retransmitted, "
            f"{sum(s.duplicates_filtered for s in sites)} dup-filtered")
        lines.append(
            f"  crashes: {sum(s.crash_count for s in sites)} secondary "
            f"(+{sum(s.recover_count for s in sites)} recoveries), "
            f"{status.primary.crash_count} primary "
            f"(+{status.primary.recover_count} restarts)")
        if self.primary_kills or status.promotions:
            resynced = status.resynced_replicas
            lines.append(
                f"  promotion: {self.primary_kills} kills, "
                f"{status.promotions} promotions, "
                + (f"{resynced} replicas resynced, " if resynced else "")
                + f"{status.fenced_stale_records} fenced records, "
                f"{status.lost_update_windows} lost windows, "
                f"{clients.lost_sessions} lost sessions, "
                f"{clients.no_primary_errors} no-primary errors")
        if (self.partitions or status.suspicions or status.lease_expiries
                or status.auto_promotions or status.zombie_records_fenced):
            lines.append(
                f"  failover: {status.suspicions} suspicions "
                f"({status.false_suspicions} false), "
                f"{status.lease_expiries} lease expiries, "
                f"{status.auto_promotions} auto-promotions, "
                f"{self.partitions} partitions (+{self.heals} heals), "
                f"{status.zombie_records_fenced} zombie records fenced")
        if self.events_skipped:
            lines.append(
                f"  plan: {self.events_applied} events applied, "
                f"{self.events_skipped} skipped "
                f"({', '.join(sorted(set(self.skipped_actions)))})")
        out_of_order = sum(s.out_of_order_commits for s in sites)
        if out_of_order:
            lines.append(
                f"  parallel refresh: {out_of_order} "
                f"commits applied out of order")
        if status.num_shards:
            lines.append(
                f"  sharding: {status.num_shards} shards, "
                f"{clients.shard_routing_misses} routing misses, "
                f"{self.deferred_reads} reads deferred "
                f"(no live shard holder)")
        if status.admission_attempts:
            lines.append(
                f"  admission: {status.admission_attempts} attempts, "
                f"{status.admission_admitted} admitted, "
                f"{status.admission_shed} shed "
                f"({self.shed_updates} client-visible after "
                f"{clients.overload_retries} retries), "
                f"{status.admission_throttled} throttled, "
                f"peak queue {status.admission_peak_queue}, "
                f"{status.admission_brownouts} brownouts")
        if (status.admission_degraded_reads or self.read_timeouts
                or clients.breaker_opens):
            lines.append(
                f"  degradation: {status.admission_degraded_reads} "
                f"degraded reads "
                f"(max staleness {clients.max_reported_staleness}), "
                f"{self.read_timeouts} freshness timeouts, "
                f"{clients.breaker_opens} breaker opens "
                f"({self.breaker_fast_fails} fast-fails)")
        if status.vacuum_runs:
            max_store = max(s.stored_versions
                            for s in (status.primary, *sites))
            lines.append(
                f"  vacuum: {status.vacuum_runs} runs, "
                f"{status.versions_reclaimed} versions reclaimed, "
                f"max store {max_store} ({self.live_keys} live keys)")
        if status.kernel_events_dispatched:
            lines.append(
                f"  kernel: {status.kernel_events_dispatched} events "
                f"dispatched ({status.kernel_same_instant_ratio:.1%} "
                f"same-instant), peak queue depth "
                f"{status.kernel_peak_queue_depth}, "
                f"{status.kernel_timer_cancellations} timer cancellations")
        return "\n".join(lines)


def _dispatch(system, config, result, workload, op_times, sessions,
              replace_lost) -> None:
    """Drive the client op stream: each arrival draws its session, key
    and op, then runs it and counts its outcome in :data:`_OUTCOMES`.

    With admission off the op runs on the caller's stack, one at a time
    in arrival order, so no admission queue can ever fill.  With it on,
    the op is handed to its session's runner process and the driver
    moves straight on, so distinct sessions' ops overlap: during a flash
    crowd the token bucket empties and the bounded queue actually fills.
    Within one session ops stay serialized (a session is one client).
    """
    kernel = system.kernel
    open_loop = config.admission is not None
    pending: list[list] = [[] for _ in sessions]
    closed = False
    wake = Condition(kernel, name="chaos-ops")

    def op(index: int, is_update: bool, key: str, value):
        """One op and its counted outcome.  Open-loop it is a runner's
        process body; closed-loop it never yields, so ``next()`` runs
        it to the end."""
        session = sessions[index]
        try:
            if is_update and open_loop:
                yield from session.update_process(
                    lambda txn: txn.write(key, value))
            elif is_update:
                session.write(key, value)
            elif open_loop:
                yield from session.read_only_process(
                    lambda txn: txn.read(key, default=None), keys=[key])
            else:
                session.read(key, default=None)
        except LostUpdatesError:
            replace_lost(session)
        except ReproError as error:
            counter = _OUTCOMES.get((type(error), is_update))
            if counter is None:
                raise
            setattr(result, counter, getattr(result, counter) + 1)
        else:
            if is_update:
                result.updates += 1
            else:
                result.reads += 1

    def runner(index: int):
        queue = pending[index]
        while queue or not closed:
            if queue:
                yield from op(index, *queue.pop(0))
            else:
                yield wake.wait_for(lambda: queue or closed)

    runners = ([kernel.spawn(runner(i), name=f"client@{i}")
                for i in range(len(sessions))] if open_loop else [])
    for when in op_times:
        if when > kernel.now:
            system.run(until=when)
        index = workload.randint(0, len(sessions) - 1)
        key = f"k{workload.randint(0, config.keys - 1)}"
        is_update = workload.bernoulli(UPDATE_SHARE)
        value = workload.randint(0, 10_000) if is_update else None
        if open_loop:
            pending[index].append((is_update, key, value))
            wake.notify_all()
        else:
            next(op(index, is_update, key, value), None)
    closed = True
    wake.notify_all()
    # Drain: every queued op (including backed-off retries past the
    # horizon) finishes before the fault plan is settled and audited.
    for process in runners:
        kernel.run_until_complete(process)


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Execute one seeded chaos schedule and audit the result."""
    streams = RandomStreams(config.seed)
    promotion = (PromotionConfig()
                 if config.primary_kill or config.auto_failover else None)
    failover = FailoverConfig() if config.auto_failover else None
    system = ReplicatedSystem(
        num_secondaries=config.num_secondaries,
        propagation_delay=config.propagation_delay,
        batch_interval=config.batch_interval,
        parallel_refresh=config.parallel_refresh,
        refresh_apply_cost=config.refresh_apply_cost,
        autovacuum_interval=config.autovacuum_interval,
        channel_faults=config.faults,
        fault_seed=config.seed,
        promotion=promotion,
        sharding=config.sharding_config(),
        failover=failover,
        admission=config.admission)
    plan = FaultPlan.random(
        streams["plan"], horizon=config.horizon,
        num_secondaries=config.num_secondaries,
        secondary_outages=config.secondary_outages,
        primary_crash=config.primary_crash,
        permanent_primary_kill=config.primary_kill,
        partitions=config.partitions,
        scripted_promotion=not config.auto_failover,
        overload=(config.admission is not None
                  and config.arrival_pattern == "flash-crowd"))
    injector = FaultInjector(system, plan)
    injector.start()

    # All sessions run at the strictest level: strong session SI must
    # hold for each of them through every fault in the plan.  Priorities
    # alternate high/low; only the by-session-priority shed policy reads
    # them.
    sessions = [system.session(Guarantee.STRONG_SESSION_SI,
                               failover_wait=READ_FAILOVER_WAIT,
                               priority=i % 2)
                for i in range(config.num_sessions)]
    all_sessions = list(sessions)      # replaced sessions still count

    def replace_lost(session) -> None:
        """Swap a session poisoned by ``LostUpdatesError`` for a fresh
        one — the client-side answer to a truncated session."""
        fresh = system.session(Guarantee.STRONG_SESSION_SI,
                               failover_wait=READ_FAILOVER_WAIT,
                               priority=session.priority)
        sessions[sessions.index(session)] = fresh
        all_sessions.append(fresh)

    result = ChaosResult(seed=config.seed, converged=False, plan=plan)
    workload = streams["workload"]
    if config.arrival_pattern == "uniform":
        # The classic draw, verbatim: uniform runs replay bit-identically.
        op_times = sorted(workload.uniform(0.0, config.horizon)
                          for _ in range(config.ops))
    else:
        # Shaped arrivals come from a dedicated stream, so the workload
        # stream's draw sequence is untouched by the pattern choice.
        op_times = arrival_times(config.arrival_pattern, config.ops,
                                 config.horizon, streams["arrivals"])
    _dispatch(system, config, result, workload, op_times, sessions,
              replace_lost)

    # Drain the plan, then bring everything back and settle the system.
    if plan.horizon > system.kernel.now:
        system.run(until=plan.horizon)
    system.run(until=max(system.kernel.now, config.horizon))
    if system.partitions_active:           # pragma: no cover - plan ends healed
        system.heal()
    if system.propagator.paused:           # pragma: no cover - plan ends resumed
        system.propagator.resume()
    if failover is not None and system.primary.crashed:
        # Give the detector one full suspicion+lease cycle to declare
        # the death and promote on its own before falling back to the
        # scripted path (a kill at the very end of the horizon may not
        # have aged past the lease bound yet).
        grace = (failover.lease_duration + failover.suspicion_timeout
                 + 4 * failover.heartbeat_interval)
        system.run(until=system.kernel.now + grace)
    if system.primary.crashed:
        if system.primary.permanently_failed:
            system.promote_secondary()
        else:
            # A crash the plan never ended, or a lease demotion with no
            # full-coverage replica live to elect: replay the WAL.
            system.restart_primary()
    for index, secondary in enumerate(system.secondaries):
        # (A retired site shares its engine with a primary it once was;
        # if that primary died in turn, there is nothing to bring back.)
        if secondary.crashed and not secondary.retired:
            system.recover_secondary(index)
    system.quiesce()

    # Retired sites share the new primary's engine; convergence is over
    # the replicas that still follow the feed.  One has converged when
    # it holds the primary state projected onto its subscription and its
    # frontier on every axis it holds reached the newest commit there
    # (the primary's newest overall is unreachable for a partial
    # subscriber — commits outside its subscription never ship).
    primary_state = system.primary_state()
    newest = system.propagator.newest_commit_ts
    result.converged = all(
        system.secondary_state(index) == secondary.projection(primary_state)
        and all(secondary.frontier(axis) >= newest(axis)
                for axis in secondary.axes)
        for index, secondary in enumerate(system.secondaries)
        if not secondary.retired)
    result.recorder = system.recorder
    result.history_bytes = system.recorder.nbytes()
    result.checks = [
        check_completeness(system.recorder),
        check_weak_si(system.recorder),
        check_strong_session_si(system.recorder),
    ]

    result.status = system_status(system)
    result.clients = aggregate_sessions(all_sessions)
    result.live_keys = len(primary_state)
    applied = [event.action for event in injector.applied]
    result.primary_kills = applied.count("kill_primary")
    result.partitions = applied.count("partition")
    result.heals = applied.count("heal")
    result.events_applied = len(injector.applied)
    result.events_skipped = len(injector.skipped)
    result.skipped_actions = tuple(event.action
                                   for event in injector.skipped)
    return result

