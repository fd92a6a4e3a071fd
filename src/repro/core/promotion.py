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
2. **Fence** the old epoch everywhere: every secondary bumps its
   delivery epoch (in-flight deliveries are discarded on arrival),
   queued records and pending or open refresh transactions are dropped,
   and the :class:`~repro.core.propagation.ReliableLink` of every site
   still in the replica tier is ``resync()``-ed so sequence numbering
   restarts clean for the new regime.
3. **Hand over**: the promoted engine becomes the primary behind a fresh
   logical log, seeded with one synthetic base transaction installing
   the promoted state at commit timestamp ``base`` (so a later WAL
   restart of the *new* primary recovers correctly).  The one
   propagator switches from the dead primary's log to it
   (:meth:`~repro.core.propagation.Propagator.hand_over`): whatever it
   held for the dead primary goes, its newest commit per freshness axis
   becomes the promoted site's, and it keeps feeding every secondary
   that is not retired, each through its own resynced ``link``.  The
   promoted site keeps its link too: its counters stay in the run's
   totals, and traffic a partition holds on it is fenced when it
   finally arrives.
4. **Copy** the surviving prefix: a live replica whose frontier on some
   axis it holds differs from the new primary's — behind ``base``, or
   ahead of it with commits the truncation removed — reinstalls a
   quiesced copy of the new primary in place, the one catch-up path of
   Section 3.4.  Every replica then sits on the new primary's prefix
   and dense commit numbering continues seamlessly (the checkers verify
   this across the epoch).
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
    """

    promotion_wait: float = 30.0

    def __post_init__(self) -> None:
        if self.promotion_wait < 0:
            raise ConfigurationError("promotion_wait must be >= 0")


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
    #: Labels of sessions poisoned with ``LostUpdatesError``.
    lost_sessions: tuple[str, ...]
    #: Replicas behind or ahead of the surviving prefix, resynced in
    #: place from a copy of the new primary (Section 3.4).
    resynced: tuple[str, ...] = ()

    @property
    def lost_commits(self) -> int:
        """Size of the acknowledged-but-lost window ``(base, old_ts]``."""
        return self.old_commit_ts - self.base_commit_ts


def promote(system: "ReplicatedSystem",
            index: Optional[int] = None) -> "PromotionReport":
    """Promote a live secondary (default: the freshest) to primary.

    Synchronous — performs the whole epoch switch at the current virtual
    instant, so calling it from a fault-injection callback is deterministic.
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
    propagator = system.propagator
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
    # The links of the sites the propagator fed, the candidate's
    # included; a site retired by an earlier promotion keeps its link as
    # it is.
    links = [site.link for site in system.secondaries
             if not site.retired and site.link is not None]
    fenced = candidate.retire()
    for site in system.secondaries:
        if site is not candidate and site.live:
            fenced += site.fence()
    for link in links:
        link.resync()
        # Anything still arriving with a pre-resync epoch is zombie
        # traffic from the dead regime (e.g. records a partitioned old
        # primary sent before this fence, delivered only after the
        # partition heals): count it and drop it.
        link.arm_zombie_fence()

    # -- hand the propagator over to the promoted engine ---------------------
    log = LogicalLog(name=f"{candidate.name}-log")
    if base > 0:
        # Seed the WAL with one synthetic transaction installing the
        # promoted state at commit timestamp ``base``: a later crash of
        # the *new* primary can then restart_from_wal() back to exactly
        # this state plus whatever it committed since.  Seeded before the
        # propagator subscribes, so the base snapshot is never shipped —
        # the replicas reach S^base by refresh or by a copy.
        log.append_start(0, 0)
        for key, value in candidate.engine.state_at().items():
            log.append_update(0, key, value)
        log.append_commit(0, base)
    candidate.engine.log = log
    new_primary = PrimarySite(system.kernel, candidate.engine)
    propagator.hand_over(log, base, candidate.shard_frontier)
    surviving = propagator.newest_commit_ts

    resync: list = []
    for site in propagator.endpoints:       # the sites not retired
        link = site.link
        if link is not None and link.blackholed:
            # A partition severs the *old* primary's route to this
            # replica; the new primary's feed takes a fresh one.  Heal
            # the link — old-epoch traffic the partition held flushes
            # now and is fenced (counted) on arrival.  The promoted
            # site's own link is deliberately left partitioned: it
            # models the old primary's side of the cut, and its held
            # zombie traffic stays dark until that partition heals.
            link.heal()
        if site.live and any(site.frontier(axis) != surviving(axis)
                             for axis in site.axes):
            # Behind the surviving prefix, or ahead of it (gap-tolerant
            # refresh lets a partial subscriber apply commits the
            # candidate never received): the fence dropped only queued
            # work, so the site takes a copy of the new primary below.
            resync.append(site)

    # -- reconcile sessions across the epoch --------------------------------
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
    # The report is the promotion counters' record (cluster epoch,
    # fenced records, lost windows).
    report = PromotionReport(
        epoch=system.promotions + 1,
        old_primary=old_primary.name,
        new_primary=candidate.name,
        base_commit_ts=base,
        old_commit_ts=old_ts,
        fenced_records=fenced,
        lost_sessions=tuple(lost_sessions),
        resynced=tuple(site.name for site in resync),
    )
    system.promotion_reports.append(report)
    for site in resync:
        # In place, not a crash: the fence aborted the site's refresh
        # transactions and a read begins and commits without yielding,
        # so no transaction is open on it now.
        system._install_copy(site)
    # Readers park on ``... or self._lost_window is not None``; the fence
    # above notified them *before* the reconcile set it, so wake them
    # again now or a read whose required state was truncated never
    # re-evaluates its predicate.
    for site in system.secondaries:
        site.seq_cond.notify_all()
    return report
