"""Primary promotion — surviving permanent primary failure.

The lazy-master architecture has a single point of update availability:
the primary.  PR 2's WAL restart covers transient crashes, but a primary
whose disk died with it needs the classic replicated-systems answer —
promote a replica.  This module implements that under a **cluster
epoch** discipline:

1. **Choose** the freshest live secondary (highest ``seq(DBsec)``); its
   applied prefix S^0..S^base becomes the new axis of comparison.  Any
   commit the old primary acknowledged beyond ``base`` is *truncated* —
   the acknowledged-but-lost window ``(base, old_ts]`` that lazy
   replication fundamentally cannot avoid (the updates existed only on
   the dead site).
2. **Fence** the old epoch everywhere: the old propagator detaches and
   stops sniffing, every secondary bumps its delivery epoch (in-flight
   deliveries are discarded on arrival), queued records and pending or
   open refresh transactions are dropped, and each
   :class:`~repro.core.propagation.ReliableLink` is ``resync()``-ed so
   sequence numbering restarts clean for the new regime.
3. **Rebuild** the promoted engine as a primary: a fresh logical log is
   seeded with one synthetic base transaction installing the promoted
   state at commit timestamp ``base`` (so a later WAL restart of the
   *new* primary recovers correctly), and a new propagator re-points the
   topology at the remaining secondaries, reusing the resynced links.
4. **Replay** the surviving prefix: replicas behind ``base`` receive the
   old archive's tail capped at the truncation point, so every replica
   converges on the new primary's prefix and dense commit numbering
   continues seamlessly (the checkers verify this across the epoch).
5. **Reconcile sessions**: :meth:`~repro.core.sessions.SequenceTracker.
   truncate` clamps every ``seq(c)`` to ``base``.  A session whose own
   acknowledged commits were truncated gets a permanent
   :class:`~repro.errors.LostUpdatesError` — the loss is surfaced, never
   hidden.  A strong-session reader that merely *observed* past ``base``
   (at a replica that has since crashed) is poisoned the same way:
   honouring its monotonicity on the new axis is impossible.  Weaker
   sessions just have their freshness bookkeeping clamped.

``ReplicatedSystem(promotion=None)`` — the default — keeps all of this
machinery dormant and the system bit-identical to its pre-promotion
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.propagation import Propagator
from repro.core.site import PrimarySite
from repro.errors import (
    ConfigurationError,
    NoLiveSecondariesError,
    ReplicationError,
)
from repro.storage.wal import LogicalLog

if TYPE_CHECKING:
    from repro.core.system import ReplicatedSystem


@dataclass(frozen=True)
class PromotionConfig:
    """Enables promotion and shapes the client-side failover behaviour.

    Parameters
    ----------
    promotion_wait:
        Total virtual time an update transaction waits for a live
        primary to appear before raising
        :class:`~repro.errors.NoPrimaryError`.
    retry_backoff:
        Initial probe interval of the bounded exponential backoff.
    max_backoff:
        Ceiling on the backoff interval.
    """

    promotion_wait: float = 30.0
    retry_backoff: float = 0.25
    max_backoff: float = 8.0

    def __post_init__(self) -> None:
        if self.promotion_wait < 0:
            raise ConfigurationError("promotion_wait must be >= 0")
        if self.retry_backoff <= 0:
            raise ConfigurationError("retry_backoff must be > 0")
        if self.max_backoff < self.retry_backoff:
            raise ConfigurationError(
                "max_backoff must be >= retry_backoff")


@dataclass(frozen=True)
class PromotionReport:
    """What one promotion did (returned by :func:`promote`)."""

    #: Cluster epoch after this promotion (1 for the first one).
    epoch: int
    old_primary: str
    new_primary: str
    #: The truncation point k: states S^0..S^k survive as the shared
    #: prefix of the old and new primary timelines.
    base_commit_ts: int
    #: The last commit the old primary acknowledged before dying.
    old_commit_ts: int
    #: Queued/pending refresh records discarded by the epoch fence.
    fenced_records: int
    #: Per-secondary archive-tail replays performed to reach ``base``.
    replayed: dict[str, int]
    #: Labels of sessions poisoned with ``LostUpdatesError``.
    lost_sessions: tuple[str, ...]
    #: Replicas that had applied commits above ``base`` and were resynced
    #: from a copy of the new primary (crash + Section 3.4 recovery).
    resynced: tuple[str, ...] = ()

    @property
    def lost_commits(self) -> int:
        """Size of the acknowledged-but-lost window ``(base, old_ts]``."""
        return self.old_commit_ts - self.base_commit_ts


def promote(system: "ReplicatedSystem",
            index: Optional[int] = None) -> "PromotionReport":
    """Promote a live secondary (default: the freshest) to primary.

    Synchronous — performs the whole epoch switch at the current virtual
    instant, so calling it from a fault-injection daemon is deterministic.
    Requires ``system.promotion`` to be configured and the current
    primary to be down (promotion answers permanent failure; it is not a
    live switchover).
    """
    if system.promotion is None:
        raise ConfigurationError(
            "promotion is disabled; construct the system with "
            "promotion=PromotionConfig(...) to enable it")
    if not system.primary.crashed:
        raise ConfigurationError(
            "cannot promote while the primary is live; promotion is a "
            "permanent-failure response, not a switchover")
    if index is not None:
        candidate = system.secondaries[index]
        if not candidate.live:
            raise ConfigurationError(
                f"cannot promote {candidate.name!r}: site is "
                f"{'retired' if candidate.retired else 'crashed'}")
        if not candidate.full_coverage:
            raise ConfigurationError(
                f"cannot promote {candidate.name!r}: it subscribes to "
                f"shards {sorted(candidate.subscription)} only; promote "
                f"a full-coverage replica")
    else:
        candidates = system.promotable()
        if not candidates:
            raise NoLiveSecondariesError(
                "cannot promote: no live full-coverage secondary remains "
                "(every one is crashed or retired)")
        candidate = max(candidates, key=lambda s: s.seq_db)

    old_primary = system.primary
    old_propagator = system.propagator
    old_ts = old_primary.latest_commit_ts
    base = candidate.seq_db
    if candidate.engine.latest_commit_ts != base:  # pragma: no cover
        raise ReplicationError(
            f"cannot promote {candidate.name!r}: engine commit timestamp "
            f"{candidate.engine.latest_commit_ts} disagrees with "
            f"seq(DBsec) {base}")

    # Era boundary in the recorded history: the checkers audit commits
    # before this event against the old primary's timeline and commits
    # after it against the spliced prefix + new-primary timeline.
    if system.recorder is not None:
        system.recorder.record_promotion(
            old_site=old_primary.name, new_site=candidate.name,
            time=system.kernel.now, truncation_ts=base)

    # -- fence the old epoch ------------------------------------------------
    # Grab the links first: retiring the propagator forgets them, but the
    # new regime reuses the same channels (resynced) for its own feed.
    links = {site.name: old_propagator.link_for(site)
             for site in system.secondaries}
    old_propagator.retire()
    fenced = candidate.retire()
    ahead: list[int] = []
    for index, site in enumerate(system.secondaries):
        if site is candidate or not site.live:
            continue
        fenced += site.fence()
        if site.engine.latest_commit_ts > base:
            # Gap-tolerant refresh let this (partial) subscriber apply
            # commits the candidate never received.  The fence only drops
            # queued work; the truncated tail is installed and readable.
            # Nothing short of a state transfer removes it, so the site
            # takes the Section 3.4 path: down now, and a copy of the new
            # primary once the epoch below is installed.
            site.crash()
            ahead.append(index)
    for link in links.values():
        if link is not None:
            link.resync()
            # Anything still arriving with a pre-resync epoch is zombie
            # traffic from the dead regime (e.g. records a partitioned
            # old primary sent before this fence, delivered only after
            # the partition heals): count it and drop it.
            link.arm_zombie_fence()

    # -- rebuild the promoted engine as a primary ---------------------------
    log = LogicalLog(name=f"{candidate.name}-log")
    if base > 0:
        # Seed the WAL with one synthetic transaction installing the
        # promoted state at commit timestamp ``base``: a later crash of
        # the *new* primary can then restart_from_wal() back to exactly
        # this state plus whatever it committed since.  Seeded before the
        # new propagator subscribes, so the base snapshot is never
        # shipped — the replicas reach S^base by refresh or replay.
        log.append_start(0, 0)
        for key, value in candidate.engine.state_at().items():
            log.append_update(0, key, value)
        log.append_commit(0, base)
    candidate.engine.log = log
    new_primary = PrimarySite.adopt(system.kernel, candidate, log)

    new_propagator = Propagator(
        system.kernel, log, delay=old_propagator.delay,
        batch_interval=old_propagator.batch_interval,
        # The new propagator's per-key last-writer map starts empty, so
        # the first new-epoch writer of any key would otherwise ship
        # dep_ts=0 and could be applied by a parallel secondary before
        # the replayed archive tail that leads up to S^base.  Flooring
        # every dependency at ``base`` keeps new-epoch commits behind
        # the entire surviving prefix.
        dep_floor=base,
        sharding=old_propagator.sharding,
        # The newest surviving commit per axis: recovery frontier
        # floors, strong-SI requirements and the session clamps below
        # all come from this map, and an inflated value would make
        # sessions wait for a frontier no replica can ever reach.
        newest_floor=old_propagator.newest_commit_ts_up_to(base))
    # Shipping counters continue across the epoch (monitoring reads
    # whichever propagator is current).
    new_propagator.records_sent = old_propagator.records_sent
    new_propagator.batches_sent = old_propagator.batches_sent
    new_propagator.records_logged = old_propagator.records_logged
    new_propagator.records_shipped_by_shard = dict(
        old_propagator.records_shipped_by_shard)

    replayed: dict[str, int] = {}
    for site in system.secondaries:
        if site is candidate:
            continue
        link = links.get(site.name)
        if link is not None and link.blackholed:
            # A partition severs the *old* primary's route to this
            # replica; the new primary's feed takes a fresh one.  Heal
            # the adopted link — old-epoch traffic the partition held
            # flushes now and is fenced (counted) on arrival.  The
            # promoted site's own link is deliberately left partitioned:
            # it models the old primary's side of the cut, and its held
            # zombie traffic stays dark until that partition heals.
            link.heal()
        new_propagator.attach(site, link=link)
        if site.live and site.seq_db < base:
            replayed[site.name] = old_propagator.replay_to(
                site, after_commit_ts=site.seq_db, up_to_commit_ts=base)

    # -- reconcile sessions across the epoch --------------------------------
    surviving = new_propagator.newest_commit_ts
    truncated = system.tracker.truncate(base, surviving)
    lost_sessions: list[str] = []
    system._sessions = [s for s in system._sessions if not s.closed]
    for session in system._sessions:
        window = truncated.get(session.label)
        observed = session._observed
        seen = observed.get(None, 0)
        if window is not None:
            # The session's own acknowledged commits are gone.  This is a
            # durability loss, not an ordering subtlety — surface it for
            # every guarantee level.
            session._lost_window = window
            lost_sessions.append(session.label)
        elif seen > base and session.guarantee.orders_reads_within_session:
            # The session *observed* truncated states (at a replica
            # that has since crashed); monotonic session reads can
            # never be honoured on the new axis.
            session._lost_window = (base, seen)
            lost_sessions.append(session.label)
        # Weak/PCSI sessions make no cross-read ordering promise, and a
        # surviving strong session may have read a shard past its newest
        # surviving commit: clamp the freshness bookkeeping on every
        # axis to that commit (not to ``base``, which need not touch the
        # shard), so the session never remembers a frontier value no
        # replica can reach again.
        for axis, frontier in observed.items():
            if frontier > surviving(axis):
                observed[axis] = surviving(axis)

    # -- install the new epoch ----------------------------------------------
    system.primary = new_primary
    system.propagator = new_propagator
    system.cluster_epoch += 1
    system.promotions += 1
    system.fenced_stale_records += fenced
    if old_ts > base:
        system.lost_update_windows += 1
    for index in ahead:
        system.recover_secondary(index)
    # Readers park on ``... or self._lost_window is not None``; the fence
    # above notified them *before* the reconcile set it, so wake them
    # again now or a read whose required state was truncated never
    # re-evaluates its predicate.
    for site in system.secondaries:
        site.seq_cond.notify_all()

    report = PromotionReport(
        epoch=system.cluster_epoch,
        old_primary=old_primary.name,
        new_primary=candidate.name,
        base_commit_ts=base,
        old_commit_ts=old_ts,
        fenced_records=fenced,
        replayed=replayed,
        lost_sessions=tuple(lost_sessions),
        resynced=tuple(system.secondaries[index].name for index in ahead),
    )
    system.promotion_reports.append(report)
    return report
