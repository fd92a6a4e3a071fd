"""Operational monitoring for the functional replicated system.

Production replication stacks expose replica lag, queue depths and
session-blocking statistics; this module provides the same view over a
:class:`~repro.core.system.ReplicatedSystem`, both as structured data
(:class:`SystemStatus`) and as a formatted report.  A
:class:`StalenessProbe` samples lag over virtual time for experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.sim.stats import SummaryStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import ClientSession, ReplicatedSystem


@dataclass(frozen=True)
class SiteStatus:
    """Point-in-time view of one site."""

    name: str
    crashed: bool
    commits: int
    aborts: int
    seq_db: Optional[int]           # None for the primary
    lag: Optional[int]              # commits behind the primary
    queued_records: Optional[int]
    pending_refreshes: Optional[int]
    refreshes_applied: Optional[int]
    peak_applicators: Optional[int]
    stored_versions: int
    # -- fault & recovery counters (zero on a healthy, fault-free run) ----
    crash_count: int = 0
    recover_count: int = 0          # restarts, for the primary
    channel_dropped: int = 0        # messages lost on this site's link
    channel_duplicated: int = 0
    retransmissions: int = 0
    duplicates_filtered: int = 0
    stale_refreshes_dropped: int = 0
    mean_catch_up_time: Optional[float] = None   # recovery -> caught up
    # -- storage-maintenance counters (zero with autovacuum off) ----------
    max_chain_length: int = 0       # longest per-key version chain
    vacuum_runs: int = 0
    versions_reclaimed: int = 0
    # -- parallel-refresh counters (None/zero with parallel refresh off) --
    parallel_workers: Optional[int] = None
    out_of_order_commits: int = 0   # commits applied ahead of the watermark
    peak_runnable_depth: int = 0    # deepest runnable queue observed
    watermark_lag: int = 0          # newest enqueued commit - watermark
    peak_pending: int = 0           # deepest refresh backlog ever observed
    # -- partial-replication counters (None with sharding off) ------------
    shards_subscribed: Optional[int] = None

    @property
    def fault_activity(self) -> bool:
        """True if any fault machinery fired at this site."""
        return bool(self.crash_count or self.recover_count
                    or self.channel_dropped or self.channel_duplicated
                    or self.retransmissions or self.duplicates_filtered
                    or self.stale_refreshes_dropped)


@dataclass(frozen=True)
class SystemStatus:
    """Point-in-time view of the whole replicated system."""

    now: float
    primary_commit_ts: int
    primary: SiteStatus
    secondaries: tuple[SiteStatus, ...]
    max_lag: int
    # -- propagator shipping counters ------------------------------------
    #: Per-endpoint deliveries (replays and retransmissions included);
    #: grows with the number of attached secondaries.  Before the
    #: batch-shipping overhaul this counted each log record once — that
    #: endpoint-independent metric now lives in :attr:`records_logged`.
    records_sent: int = 0
    batches_sent: int = 0
    #: Log records the propagator sniffed, counted once regardless of
    #: endpoint count — the pre-overhaul ``records_sent`` semantics,
    #: kept for baseline comparability.
    records_logged: int = 0
    # -- promotion counters (zero while the original primary survives) ----
    cluster_epoch: int = 0
    promotions: int = 0
    fenced_stale_records: int = 0
    lost_update_windows: int = 0
    # -- failover / partition counters (zero with failover=None and no
    # partitions injected) -------------------------------------------------
    suspicions: int = 0
    false_suspicions: int = 0
    lease_expiries: int = 0
    auto_promotions: int = 0
    partitions_active: int = 0
    zombie_records_fenced: int = 0
    # -- partial-replication counters (zero/empty with sharding off) ------
    num_shards: int = 0
    records_shipped_by_shard: tuple[tuple[int, int], ...] = ()
    shard_routing_misses: int = 0
    # -- admission-control counters (all zero with admission=None) ---------
    admission_attempts: int = 0
    admission_admitted: int = 0
    admission_shed: int = 0
    admission_throttled: int = 0
    admission_peak_queue: int = 0
    admission_brownouts: int = 0
    admission_min_brownout_factor: float = 1.0
    admission_degraded_reads: int = 0
    # -- kernel event-queue counters (properties of the dispatched event
    # stream, so they repeat exactly for the same seed) --------------------
    kernel_events_dispatched: int = 0
    kernel_peak_queue_depth: int = 0
    kernel_timer_cancellations: int = 0
    kernel_same_instant_ratio: float = 0.0

    def report(self) -> str:
        """A human-readable multi-line status report."""
        lines = [
            f"replicated system @ t={self.now:.2f}  "
            f"(primary at commit ts {self.primary_commit_ts})",
            f"  {'site':<14}{'state':<8}{'commits':>8}{'aborts':>7}"
            f"{'seq(DBsec)':>11}{'lag':>5}{'queue':>7}{'pending':>8}"
            f"{'versions':>9}",
        ]
        for site in (self.primary,) + self.secondaries:
            state = "CRASHED" if site.crashed else "up"
            seq = "-" if site.seq_db is None else str(site.seq_db)
            lag = "-" if site.lag is None else str(site.lag)
            queued = "-" if site.queued_records is None \
                else str(site.queued_records)
            pending = "-" if site.pending_refreshes is None \
                else str(site.pending_refreshes)
            lines.append(
                f"  {site.name:<14}{state:<8}{site.commits:>8}"
                f"{site.aborts:>7}{seq:>11}{lag:>5}{queued:>7}"
                f"{pending:>8}{site.stored_versions:>9}")
        # Fault machinery lines, only for sites where something fired, so
        # a fault-free report stays byte-identical to the classic format.
        for site in (self.primary,) + self.secondaries:
            if not site.fault_activity:
                continue
            parts = [f"crashes={site.crash_count}",
                     f"recoveries={site.recover_count}"]
            if site.channel_dropped or site.retransmissions:
                parts.append(f"link dropped={site.channel_dropped} "
                             f"dup={site.channel_duplicated} "
                             f"retx={site.retransmissions} "
                             f"dup-filtered={site.duplicates_filtered}")
            if site.stale_refreshes_dropped:
                parts.append(f"stale-refreshes={site.stale_refreshes_dropped}")
            if site.mean_catch_up_time is not None:
                parts.append(f"catch-up={site.mean_catch_up_time:.2f}s")
            lines.append(f"  {site.name + ' faults:':<22}"
                         + "  ".join(parts))
        # Maintenance / batching lines, again only when the corresponding
        # knob fired, so classic-configuration reports stay byte-identical.
        if self.batches_sent:
            lines.append(f"  propagator: records={self.records_sent}  "
                         f"batches={self.batches_sent}  "
                         f"logged={self.records_logged}")
        # Parallel-refresh lines, only for sites running the dependency
        # scheduler, so FIFO-configuration reports stay byte-identical.
        for site in self.secondaries:
            if site.parallel_workers is None:
                continue
            lines.append(
                f"  {site.name + ' parallel:':<22}"
                f"workers={site.parallel_workers}  "
                f"out-of-order={site.out_of_order_commits}  "
                f"peak-runnable={site.peak_runnable_depth}  "
                f"watermark-lag={site.watermark_lag}")
        # Promotion line, only once a promotion happened, so pre-failover
        # (and promotion-disabled) reports stay byte-identical.
        if self.promotions:
            lines.append(
                f"  promotions: {self.promotions} (epoch "
                f"{self.cluster_epoch})  "
                f"fenced-records={self.fenced_stale_records}  "
                f"lost-windows={self.lost_update_windows}")
        # Failover line, only once the detector (or a partition) fired,
        # so failover-disabled reports stay byte-identical.
        if (self.suspicions or self.lease_expiries or self.auto_promotions
                or self.partitions_active or self.zombie_records_fenced):
            lines.append(
                f"  failover: suspicions={self.suspicions} "
                f"(false={self.false_suspicions})  "
                f"lease-expiries={self.lease_expiries}  "
                f"auto-promotions={self.auto_promotions}  "
                f"partitions-active={self.partitions_active}  "
                f"zombies-fenced={self.zombie_records_fenced}")
        for site in (self.primary,) + self.secondaries:
            if not site.vacuum_runs:
                continue
            lines.append(
                f"  {site.name + ' vacuum:':<22}runs={site.vacuum_runs}  "
                f"reclaimed={site.versions_reclaimed}  "
                f"longest-chain={site.max_chain_length}")
        # Sharding line, only when partial replication is configured, so
        # unsharded reports stay byte-identical.
        if self.num_shards:
            shipped = " ".join(f"{shard}:{count}" for shard, count
                               in self.records_shipped_by_shard)
            subscribed = " ".join(
                f"{site.name}:{site.shards_subscribed}"
                for site in self.secondaries
                if site.shards_subscribed is not None)
            lines.append(
                f"  sharding: shards={self.num_shards}  "
                f"routing-misses={self.shard_routing_misses}  "
                f"shipped=[{shipped}]  subscribed=[{subscribed}]")
        # Admission line, only once the controller saw traffic, so
        # admission-disabled reports stay byte-identical.
        if self.admission_attempts:
            line = (f"  admission: attempts={self.admission_attempts}  "
                    f"admitted={self.admission_admitted}  "
                    f"shed={self.admission_shed}  "
                    f"throttled={self.admission_throttled}  "
                    f"peak-queue={self.admission_peak_queue}  "
                    f"degraded-reads={self.admission_degraded_reads}")
            if self.admission_brownouts:
                line += (f"  brownouts={self.admission_brownouts} "
                         f"(min-rate="
                         f"{self.admission_min_brownout_factor:.0%})")
            lines.append(line)
        if self.kernel_events_dispatched:
            lines.append(
                f"  kernel: dispatched={self.kernel_events_dispatched}  "
                f"peak-depth={self.kernel_peak_queue_depth}  "
                f"timer-cancels={self.kernel_timer_cancellations}  "
                f"same-instant={self.kernel_same_instant_ratio:.1%}")
        return "\n".join(lines)


def system_status(system: "ReplicatedSystem") -> SystemStatus:
    """Collect a :class:`SystemStatus` snapshot."""
    primary_ts = system.primary.latest_commit_ts
    vacuums = {id(daemon.engine): daemon
               for daemon in getattr(system, "autovacuums", [])}

    def vacuum_stats(engine) -> tuple[int, int]:
        daemon = vacuums.get(id(engine))
        if daemon is None:
            return 0, 0
        return daemon.runs, daemon.versions_reclaimed

    failover = getattr(system, "auto_failover", None)
    kernel_counters = system.kernel.counters()
    primary_vacuum = vacuum_stats(system.primary.engine)
    primary = SiteStatus(
        name=system.primary.name,
        crashed=system.primary.engine.crashed,
        commits=system.primary.engine.commits,
        aborts=system.primary.engine.aborts,
        seq_db=None,
        lag=None,
        queued_records=None,
        pending_refreshes=None,
        refreshes_applied=None,
        peak_applicators=None,
        stored_versions=system.primary.engine.version_count,
        crash_count=system.primary.crash_count,
        recover_count=system.primary.restart_count,
        max_chain_length=system.primary.engine.max_chain_length,
        vacuum_runs=primary_vacuum[0],
        versions_reclaimed=primary_vacuum[1],
    )
    secondaries = []
    max_lag = 0
    for secondary in system.secondaries:
        if secondary.retired:
            # A retired site *is* the current primary (reported above);
            # listing it as a secondary would double-count its engine.
            continue
        lag = None
        if not secondary.engine.crashed:
            lag = primary_ts - secondary.seq_db
            max_lag = max(max_lag, lag)
        link = system.propagator.link_for(secondary)
        dropped = duplicated = retransmissions = filtered = 0
        if link is not None:
            dropped = link.data_channel.dropped + link.ack_channel.dropped
            duplicated = (link.data_channel.duplicated
                          + link.ack_channel.duplicated)
            retransmissions = link.retransmissions
            filtered = link.duplicates_filtered
        catch_up = None
        if secondary.catch_up_times:
            catch_up = (sum(secondary.catch_up_times)
                        / len(secondary.catch_up_times))
        secondaries.append(SiteStatus(
            name=secondary.name,
            crashed=secondary.engine.crashed,
            commits=secondary.engine.commits,
            aborts=secondary.engine.aborts,
            seq_db=secondary.seq_db,
            lag=lag,
            queued_records=secondary.refresher.queued,
            pending_refreshes=secondary.refresher.pending_count,
            refreshes_applied=secondary.refresher.refreshes_applied,
            peak_applicators=secondary.refresher
            .max_concurrent_applicators,
            stored_versions=secondary.engine.version_count,
            crash_count=secondary.crash_count,
            recover_count=secondary.recover_count,
            channel_dropped=dropped,
            channel_duplicated=duplicated,
            retransmissions=retransmissions,
            duplicates_filtered=filtered,
            stale_refreshes_dropped=secondary.refresher
            .stale_records_dropped,
            mean_catch_up_time=catch_up,
            max_chain_length=secondary.engine.max_chain_length,
            vacuum_runs=vacuum_stats(secondary.engine)[0],
            versions_reclaimed=vacuum_stats(secondary.engine)[1],
            parallel_workers=secondary.refresher.parallel,
            out_of_order_commits=secondary.refresher.out_of_order_commits,
            peak_runnable_depth=secondary.refresher.max_runnable_depth,
            watermark_lag=secondary.refresher.watermark_lag,
            peak_pending=secondary.refresher.peak_pending,
            shards_subscribed=(len(secondary.subscription)
                               if secondary.sharded else None),
        ))
    sharding = getattr(system, "sharding", None)
    admission = getattr(system, "admission_controller", None)
    return SystemStatus(now=system.kernel.now,
                        primary_commit_ts=primary_ts,
                        primary=primary,
                        secondaries=tuple(secondaries),
                        max_lag=max_lag,
                        records_sent=system.propagator.records_sent,
                        batches_sent=system.propagator.batches_sent,
                        records_logged=system.propagator.records_logged,
                        cluster_epoch=getattr(system, "cluster_epoch", 0),
                        promotions=getattr(system, "promotions", 0),
                        fenced_stale_records=getattr(
                            system, "fenced_stale_records", 0),
                        lost_update_windows=getattr(
                            system, "lost_update_windows", 0),
                        suspicions=getattr(failover, "suspicions", 0),
                        false_suspicions=getattr(
                            failover, "false_suspicions", 0),
                        lease_expiries=getattr(failover,
                                               "lease_expiries", 0),
                        auto_promotions=getattr(failover,
                                                "auto_promotions", 0),
                        partitions_active=getattr(
                            system, "partitions_active", 0),
                        zombie_records_fenced=getattr(
                            system, "zombie_records_fenced", 0),
                        num_shards=(sharding.shards
                                    if sharding is not None else 0),
                        records_shipped_by_shard=tuple(sorted(
                            system.propagator
                            .records_shipped_by_shard.items())),
                        shard_routing_misses=sum(
                            session.shard_routing_misses
                            for session in system._sessions),
                        admission_attempts=getattr(
                            admission, "attempts", 0),
                        admission_admitted=getattr(
                            admission, "admitted", 0),
                        admission_shed=getattr(admission, "shed", 0),
                        admission_throttled=getattr(
                            admission, "throttled", 0),
                        admission_peak_queue=getattr(
                            admission, "peak_queue_depth", 0),
                        admission_brownouts=getattr(
                            admission, "brownouts", 0),
                        admission_min_brownout_factor=getattr(
                            admission, "min_brownout_factor", 1.0),
                        admission_degraded_reads=getattr(
                            admission, "degraded_reads", 0),
                        kernel_events_dispatched=kernel_counters[
                            "events_dispatched"],
                        kernel_peak_queue_depth=kernel_counters[
                            "peak_queue_depth"],
                        kernel_timer_cancellations=kernel_counters[
                            "timer_cancellations"],
                        kernel_same_instant_ratio=kernel_counters[
                            "same_instant_ratio"])


@dataclass
class SessionStats:
    """Aggregate statistics over a set of client sessions."""

    sessions: int = 0
    updates: int = 0
    reads: int = 0
    blocked_reads: int = 0
    total_read_wait: float = 0.0
    fcw_retries: int = 0
    freshness_timeouts: int = 0
    failovers: int = 0
    no_primary_errors: int = 0
    lost_sessions: int = 0
    shard_routing_misses: int = 0
    # -- overload counters (zero with admission=None) ---------------------
    overload_errors: int = 0        # sheds that exhausted the retry budget
    overload_retries: int = 0       # backed-off re-submissions after a shed
    circuit_open_errors: int = 0    # fast-fails from an open breaker
    degraded_reads: int = 0         # reads served stale under degradation

    @property
    def blocked_fraction(self) -> float:
        return self.blocked_reads / self.reads if self.reads else 0.0

    @property
    def mean_wait_per_blocked_read(self) -> float:
        return (self.total_read_wait / self.blocked_reads
                if self.blocked_reads else 0.0)


def aggregate_sessions(sessions: list["ClientSession"]) -> SessionStats:
    """Sum the per-session counters into one :class:`SessionStats`."""
    stats = SessionStats()
    for session in sessions:
        stats.sessions += 1
        stats.updates += session.updates_committed
        stats.reads += session.reads_executed
        stats.blocked_reads += session.blocked_reads
        stats.total_read_wait += session.total_read_wait
        stats.fcw_retries += session.fcw_retries
        stats.freshness_timeouts += session.freshness_timeouts
        stats.failovers += session.failovers
        stats.no_primary_errors += getattr(session, "no_primary_errors", 0)
        stats.shard_routing_misses += getattr(
            session, "shard_routing_misses", 0)
        stats.overload_errors += getattr(session, "overload_errors", 0)
        stats.overload_retries += getattr(session, "overload_retries", 0)
        stats.circuit_open_errors += getattr(
            session, "circuit_open_errors", 0)
        stats.degraded_reads += getattr(session, "degraded_reads", 0)
        if getattr(session, "_lost_window", None) is not None:
            stats.lost_sessions += 1
    return stats


class StalenessProbe:
    """Samples replica lag over virtual time on the functional system.

    >>> probe = StalenessProbe(system, interval=1.0)
    >>> probe.start()
    ... # run workload ...
    >>> probe.stats.mean           # mean commits-behind across samples
    """

    def __init__(self, system: "ReplicatedSystem", interval: float = 1.0):
        if interval <= 0:
            raise ValueError("probe interval must be positive")
        self.system = system
        self.interval = interval
        self.stats = SummaryStats()
        self.samples: list[tuple[float, int]] = []
        self._process = None

    def start(self) -> None:
        self._process = self.system.kernel.spawn(
            self._run(), name="staleness-probe", daemon=True)

    def stop(self) -> None:
        if self._process is not None:
            self.system.kernel.kill(self._process)
            self._process = None

    def _run(self):
        while True:
            yield self.system.kernel.sleep(self.interval)
            lag = 0
            primary_ts = self.system.primary.latest_commit_ts
            for secondary in self.system.secondaries:
                if secondary.live:
                    lag = max(lag, primary_ts - secondary.seq_db)
            self.stats.add(lag)
            self.samples.append((self.system.kernel.now, lag))
