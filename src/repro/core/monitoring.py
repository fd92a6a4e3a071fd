"""Operational monitoring for the functional replicated system.

Production replication stacks expose replica lag, queue depths and
session-blocking statistics; this module provides the same view over a
:class:`~repro.core.system.ReplicatedSystem`, both as structured data
(:class:`SystemStatus`) and as a site table.  A
:class:`StalenessProbe` samples lag over virtual time for experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.sim.stats import SummaryStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import ClientSession, ReplicatedSystem
    from repro.kernel import Timer


@dataclass(frozen=True)
class SiteStatus:
    """Point-in-time view of one site."""

    name: str
    crashed: bool
    commits: int
    aborts: int
    seq_db: Optional[int]           # None for the primary
    lag: Optional[int]              # ReplicatedSystem.replica_lag
    queued_records: Optional[int]
    pending_refreshes: Optional[int]
    refreshes_applied: Optional[int]
    stored_versions: int
    # -- fault & recovery counters (zero on a healthy, fault-free run) ----
    crash_count: int = 0
    recover_count: int = 0          # restarts, for the primary
    channel_dropped: int = 0        # messages lost on this site's link
    channel_duplicated: int = 0
    channel_reordered: int = 0
    retransmissions: int = 0
    duplicates_filtered: int = 0
    # -- parallel refresh: commits applied ahead of the watermark ---------
    out_of_order_commits: int = 0


@dataclass(frozen=True)
class SystemStatus:
    """Point-in-time view of the whole replicated system.

    The chaos harness's :meth:`~repro.faults.harness.ChaosResult.describe`
    renders the feature counters; :meth:`report` is the site table.
    """

    now: float
    primary_commit_ts: int
    primary: SiteStatus
    secondaries: tuple[SiteStatus, ...]
    #: Secondaries a promotion retired: each is (or was) a primary, so
    #: :attr:`secondaries` leaves them out, but their crashes, recoveries
    #: and out-of-order commits happened in this run.
    retired: tuple[SiteStatus, ...] = ()
    # -- promotion counters (zero while the original primary survives) ----
    promotions: int = 0
    fenced_stale_records: int = 0
    lost_update_windows: int = 0
    resynced_replicas: int = 0      # copies a promotion installed
    # -- failover counters (zero with failover=None) -----------------------
    suspicions: int = 0
    false_suspicions: int = 0
    lease_expiries: int = 0
    auto_promotions: int = 0
    zombie_records_fenced: int = 0
    # -- autovacuum totals over every daemon, a killed primary's included -
    vacuum_runs: int = 0
    versions_reclaimed: int = 0
    num_shards: int = 0             # 0 with sharding off
    # -- admission-control counters (all zero with admission=None) ---------
    admission_attempts: int = 0
    admission_admitted: int = 0
    admission_shed: int = 0
    admission_throttled: int = 0
    admission_peak_queue: int = 0
    admission_brownouts: int = 0
    admission_degraded_reads: int = 0
    # -- kernel event-queue counters (properties of the dispatched event
    # stream, so they repeat exactly for the same seed) --------------------
    kernel_events_dispatched: int = 0
    kernel_peak_queue_depth: int = 0
    kernel_timer_cancellations: int = 0
    kernel_same_instant_ratio: float = 0.0

    def report(self) -> str:
        """The site table and the kernel line, one site per row."""
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
        lines.append(
            f"  kernel: dispatched={self.kernel_events_dispatched}  "
            f"peak-depth={self.kernel_peak_queue_depth}  "
            f"timer-cancels={self.kernel_timer_cancellations}  "
            f"same-instant={self.kernel_same_instant_ratio:.1%}")
        return "\n".join(lines)


def system_status(system: "ReplicatedSystem") -> SystemStatus:
    """Collect a :class:`SystemStatus` snapshot."""

    def engine_status(site) -> dict:
        engine = site.engine
        return dict(
            name=site.name, crashed=engine.crashed, commits=engine.commits,
            aborts=engine.aborts, stored_versions=engine.version_count)

    def secondary_status(secondary) -> SiteStatus:
        link = secondary.link
        channels = {}
        if link is not None:
            data, acks = link.data_channel, link.ack_channel
            channels = dict(
                channel_dropped=data.dropped + acks.dropped,
                channel_duplicated=data.duplicated + acks.duplicated,
                channel_reordered=data.reordered + acks.reordered,
                retransmissions=link.retransmissions,
                duplicates_filtered=link.duplicates_filtered)
        refresher = secondary.refresher
        return SiteStatus(
            **engine_status(secondary), **channels,
            seq_db=secondary.seq_db,
            lag=system.replica_lag(secondary) if secondary.live else None,
            queued_records=refresher.queued,
            pending_refreshes=refresher.pending_count,
            refreshes_applied=refresher.refreshes_applied,
            crash_count=secondary.crash_count,
            recover_count=secondary.recover_count,
            out_of_order_commits=refresher.out_of_order_commits)

    primary = SiteStatus(
        **engine_status(system.primary), seq_db=None, lag=None,
        queued_records=None, pending_refreshes=None, refreshes_applied=None,
        crash_count=system.primary.crash_count,
        recover_count=system.primary.restart_count)
    secondaries, retired = [], []
    for secondary in system.secondaries:
        # A retired site *is* the current primary (reported above), or
        # was one; listing it as a secondary would double-count its
        # engine, but its counters still belong to the run.
        (retired if secondary.retired else secondaries).append(
            secondary_status(secondary))
    detector = {}
    if system.auto_failover is not None:
        failover = system.auto_failover
        detector = dict(suspicions=failover.suspicions,
                        false_suspicions=failover.false_suspicions,
                        lease_expiries=failover.lease_expiries,
                        auto_promotions=failover.auto_promotions)
    admission = {}
    if system.admission_controller is not None:
        controller = system.admission_controller
        admission = dict(
            admission_attempts=controller.attempts,
            admission_admitted=controller.admitted,
            admission_shed=controller.shed,
            admission_throttled=controller.throttled,
            admission_peak_queue=controller.peak_queue_depth,
            admission_brownouts=controller.brownouts,
            admission_degraded_reads=controller.degraded_reads)
    kernel = system.kernel.counters()
    return SystemStatus(
        now=system.kernel.now,
        primary_commit_ts=system.primary.latest_commit_ts,
        primary=primary,
        secondaries=tuple(secondaries),
        retired=tuple(retired),
        promotions=system.promotions,
        fenced_stale_records=system.fenced_stale_records,
        lost_update_windows=system.lost_update_windows,
        resynced_replicas=sum(len(report.resynced)
                              for report in system.promotion_reports),
        **detector,
        zombie_records_fenced=system.zombie_records_fenced,
        vacuum_runs=sum(daemon.runs for daemon in system.autovacuums),
        versions_reclaimed=sum(daemon.versions_reclaimed
                               for daemon in system.autovacuums),
        num_shards=system.sharding.shards if system.sharding else 0,
        **admission,
        kernel_events_dispatched=kernel["events_dispatched"],
        kernel_peak_queue_depth=kernel["peak_queue_depth"],
        kernel_timer_cancellations=kernel["timer_cancellations"],
        kernel_same_instant_ratio=kernel["same_instant_ratio"])


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
    breaker_opens: int = 0
    degraded_reads: int = 0         # reads served stale under degradation
    max_reported_staleness: int = 0  # worst StalenessReport.staleness

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
        stats.no_primary_errors += session.no_primary_errors
        stats.shard_routing_misses += session.shard_routing_misses
        stats.overload_errors += session.overload_errors
        stats.overload_retries += session.overload_retries
        stats.circuit_open_errors += session.circuit_open_errors
        stats.degraded_reads += session.degraded_reads
        if session._breaker is not None:
            stats.breaker_opens += session._breaker.opens
        for report in session.staleness_reports:
            stats.max_reported_staleness = max(
                stats.max_reported_staleness, report.staleness)
        if session._lost_window is not None:
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
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        """Begin sampling every ``interval``; a second call is a no-op."""
        if self._timer is None:
            # Armed through a same-instant hop, as AutovacuumDaemon is.
            self._timer = self.system.kernel.call_later(0.0, self._arm)

    def stop(self) -> None:
        """Cancel the next sample; :meth:`start` may begin again."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        self._timer = self.system.kernel.call_later(self.interval,
                                                    self._sample)

    def _sample(self) -> None:
        lag = 0
        for secondary in self.system.secondaries:
            if secondary.live:
                lag = max(lag, self.system.replica_lag(secondary))
        self.stats.add(lag)
        self.samples.append((self.system.kernel.now, lag))
        self._arm()
