"""Primary and secondary replication sites (Figure 1's boxes).

Each site wraps an autonomous :class:`~repro.storage.SIDatabase` with
strong SI locally — the paper's architectural assumption.  The primary
additionally exposes its logical log; each secondary owns the refresher
its records are delivered to and the ``seq(DBsec)`` freshness sequence
with its wait condition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.records import PropagationRecord
from repro.core.refresh import Refresher
from repro.core.sharding import shard_of
from repro.errors import ConfigurationError
from repro.kernel import Condition, Kernel
from repro.storage.engine import SIDatabase, Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.propagation import ReliableLink


class PrimarySite:
    """The single primary: executes all update transactions.

    Wraps an engine with a logical log: the first primary's own, or a
    promoted secondary's, which keeps its identity — name, recorder,
    committed state and version history all carry over, so commit
    timestamps continue the shared numbering.  The crash/restart
    accounting belongs to this site alone.
    """

    def __init__(self, kernel: Kernel, engine: SIDatabase):
        self.kernel = kernel
        self.name = engine.name
        self.log = engine.log
        self.engine = engine
        self.crash_count = 0
        self.restart_count = 0
        #: Set by :meth:`kill`: the site is gone for good (disk and WAL
        #: lost), so :meth:`restart` refuses — the only way forward is
        #: promoting a secondary.
        self.permanently_failed = False
        #: Set by :meth:`demote`: this primary stepped down because its
        #: lease lapsed (autonomous failover's split-brain fence).
        self.lease_demoted = False
        #: Virtual time of the self-demotion (None until it happens):
        #: by construction exactly the lease deadline, never later.
        self.demoted_at: Optional[float] = None
        #: Transaction ids aborted *by* the self-demotion; the session
        #: layer maps these to :class:`~repro.errors.LeaseExpiredError`
        #: so the client sees a typed refusal, never a silent ack.
        self.demote_aborted: set[int] = set()

    def begin_update(self, metadata: Optional[dict] = None) -> Transaction:
        """Start a forwarded update transaction under local strong SI."""
        return self.engine.begin(update=True, metadata=metadata)

    @property
    def latest_commit_ts(self) -> int:
        return self.engine.latest_commit_ts

    @property
    def crashed(self) -> bool:
        return self.engine.crashed

    def quiesced_copy(self) -> tuple[dict, int]:
        """A transaction-consistent copy of the latest committed state
        plus its commit timestamp (Section 3.4's recovery source)."""
        ts = self.engine.latest_commit_ts
        return self.engine.state_at(ts), ts

    # -- failure & recovery --------------------------------------------------
    def crash(self) -> None:
        """Fail the primary: in-flight update transactions abort.

        The aborts are written to the logical log *before* the engine
        goes down (a real DBMS resolves in-doubt transactions as aborted
        during restart and its replication agent ships the outcome), so
        secondaries that already received the transactions' start records
        discard the corresponding refresh transactions instead of holding
        them open forever.
        """
        if not self.engine.crashed:
            self.crash_count += 1
        for txn in self.engine.active_transactions:
            txn.abort("primary crash")
        self.engine.crash()

    def kill(self) -> None:
        """Permanently fail the primary.

        In-flight updates abort exactly as in :meth:`crash`; the
        difference is durability — the WAL is lost with the site, so
        :meth:`restart` refuses afterwards.
        """
        self.crash()
        self.permanently_failed = True

    def demote(self) -> None:
        """Self-demote: the primary's lease lapsed (autonomous failover).

        The engine goes down as in :meth:`crash`: a primary that kept
        serving after its lease expired could acknowledge commits the
        new epoch will orphan.  Unlike :meth:`kill`, the WAL survives,
        so when no full-coverage replica is live to take over, the site
        can still come back through :meth:`restart`.  In-flight update
        transactions are aborted with a lease reason and their ids
        recorded in :attr:`demote_aborted`, so the session layer
        surfaces :class:`~repro.errors.LeaseExpiredError` instead of a
        silent no-op.
        """
        if not self.engine.crashed:
            self.crash_count += 1
        self.lease_demoted = True
        self.demoted_at = self.kernel.now
        for txn in self.engine.active_transactions:
            self.demote_aborted.add(txn.txn_id)
            txn.abort("lease expired; primary self-demoted")
        self.engine.crash()

    def restart(self) -> int:
        """Recover the primary by replaying its write-ahead (logical) log.

        In-memory multiversion state is discarded and rebuilt from the
        durable log: committed transactions are reinstalled at their
        original commit timestamps, uncommitted and aborted ones are
        discarded.  Returns the commit timestamp recovered to, which
        always equals the pre-crash committed state (Section 3.4 takes
        this recoverability for granted; here it is exercised).
        """
        if self.permanently_failed:
            raise ConfigurationError(
                f"primary {self.name!r} failed permanently (no WAL to "
                f"replay); promote a secondary instead of restarting")
        recovered_ts = self.engine.restart_from_wal()
        self.restart_count += 1
        return recovered_ts


#: The freshness axes of a full-replication site: just the whole
#: database, spelled ``None`` — the paper's ``seq(DBsec)``.
WHOLE_DATABASE: frozenset = frozenset((None,))


class SecondarySite:
    """A secondary: executes read-only transactions, applies refreshes.

    Freshness is answered per *axis*.  A full-replication site has one,
    the whole database (``None``), and its frontier there is
    ``seq(DBsec)``.  A partial-replication site has one per subscribed
    shard, whose frontier is the newest visible commit touching that
    shard — it may never reach commits outside its subscription, so the
    whole-database axis is not one it holds.  Sessions ask
    :meth:`holds`, :meth:`frontier` and :meth:`reached` and never look
    at which kind of site answers.
    """

    def __init__(self, kernel: Kernel, name: str, recorder: Any = None,
                 serial_refresh: bool = False,
                 parallel_refresh: Optional[int] = None,
                 refresh_apply_cost: float = 0.0,
                 subscription: Optional[frozenset] = None,
                 num_shards: Optional[int] = None):
        self.kernel = kernel
        self.name = name
        self.recorder = recorder
        #: Partial replication: the shard set this replica subscribes to
        #: (None = sharding off, classic full replication).
        self.subscription = subscription
        self.num_shards = num_shards
        #: The freshness axes this replica answers for.
        self.axes: frozenset = \
            WHOLE_DATABASE if subscription is None else subscription
        #: Per-shard freshness frontier: commit ts of the newest *visible*
        #: commit touching each subscribed shard.  Advanced by the
        #: refresher alongside seq(DBsec).
        self.shard_frontier: dict[int, int] = \
            dict.fromkeys(subscription or (), 0)
        self.engine = SIDatabase(name=name, log=None, recorder=recorder,
                                 clock=kernel.clock)
        #: seq(DBsec): primary commit ts of the newest applied refresh.
        self.seq_db = 0
        self.seq_cond = Condition(kernel, name=f"{name}-seq")
        #: Incarnation (delivery epoch), bumped by ``refresher.stop()``
        #: on every crash and fence: in-flight deliveries, applicators
        #: and resumes from an earlier incarnation do nothing.
        self.epoch = 0
        self.refresher = Refresher(kernel, self, serial=serial_refresh,
                                   parallel=parallel_refresh,
                                   apply_cost=refresh_apply_cost)
        #: This replica's channel from the primary (None: direct
        #: delivery), set once at system construction and kept for the
        #: whole run, through promotions and after its own retirement.
        self.link: Optional[ReliableLink] = None
        self.records_dropped = 0
        #: Records and frames sent but not yet arrived, counted by the
        #: propagator (used by :meth:`ReplicatedSystem.quiesce` to
        #: detect idleness).
        self.in_flight = 0
        self.crash_count = 0
        self.recover_count = 0
        #: Set when this site was promoted to primary: it permanently
        #: leaves the replica tier (bound sessions fail over and the
        #: refresher stays down), while the same engine keeps running as
        #: the new primary under :class:`PrimarySite`.
        self.retired = False

    @property
    def crashed(self) -> bool:
        return self.engine.crashed

    @property
    def live(self) -> bool:
        """The one "can this replica serve?" predicate: up and not
        retired by a promotion.  Used by failover, staleness accounting,
        quiescence detection and fault-plan applicability alike."""
        return not self.engine.crashed and not self.retired

    @property
    def sharded(self) -> bool:
        """The stream kind this site consumes: True for the commit-only,
        projected stream of partial replication, False for the
        contiguous start/commit/abort stream of full replication."""
        return self.subscription is not None

    @property
    def full_coverage(self) -> bool:
        """True when every commit reaches this replica whole — full
        replication, or a subscription to every shard.  Only such a
        replica can be promoted: a partial subscriber's state is a
        keyspace projection, never the axis the others converge on."""
        return self.subscription is None \
            or len(self.subscription) == self.num_shards

    def holds(self, axes) -> bool:
        """True when this replica answers for every given axis."""
        return axes <= self.axes

    def frontier(self, axis) -> int:
        """How far this replica has got on one axis: ``seq(DBsec)`` on
        the whole-database axis, the newest visible commit touching a
        subscribed shard — and -1, short of every requirement, on a
        shard it does not subscribe to (0 there would read as "nothing
        committed yet", which any replica satisfies)."""
        if axis is None:
            return self.seq_db
        return self.shard_frontier.get(axis, -1)

    def reached(self, required: dict) -> bool:
        """The session rule ``seq(c) <= seq(DBsec)`` on every axis of a
        requirement ``{axis: commit_ts}``."""
        for axis, sequence in required.items():
            if self.frontier(axis) < sequence:
                return False
        return True

    def projection(self, state: dict) -> dict:
        """``state`` restricted to the keys this replica subscribes to
        (all of it under full replication).  Projection is by key, never
        by transaction, so a transaction-consistent state stays one."""
        if self.subscription is None:
            return state
        return {key: value for key, value in state.items()
                if shard_of(key, self.num_shards) in self.subscription}

    # -- propagation endpoint ----------------------------------------------
    def arrive(self, epoch: int, record: PropagationRecord) -> None:
        """A record or frame sent in delivery ``epoch`` arrives (the
        propagator counted it in :attr:`in_flight` at send time)."""
        self.in_flight -= 1
        if epoch != self.epoch or self.engine.crashed:
            self.records_dropped += 1
            return
        self.refresher.deliver(record)

    def receive(self, record: PropagationRecord) -> bool:
        """Accept an already-arrived record (the :class:`ReliableLink`
        receiver hands over records here after sequencing/dedup).

        Returns False (dropping the record) if the site is down.
        """
        if self.engine.crashed:
            self.records_dropped += 1
            return False
        self.refresher.deliver(record)
        return True

    # -- freshness ----------------------------------------------------------
    def set_seq_db(self, commit_ts: int) -> None:
        """Advance seq(DBsec) and wake blocked read-only transactions."""
        if commit_ts > self.seq_db:
            self.seq_db = commit_ts
            self.seq_cond.notify_all()

    def note_shards_applied(self, shard_deps: tuple,
                            commit_ts: int) -> None:
        """Advance the per-shard frontiers for one newly *visible* commit.

        Called by the refresher's publish loop as a commit's versions
        become externally visible, with the commit's ``shard_deps`` —
        one pair per shard it touches, none on a full-replication
        stream.  Frontiers only grow; the blocked readers are woken by
        the caller's ``set_seq_db``.
        """
        frontier = self.shard_frontier
        for shard, _dep in shard_deps:
            if commit_ts > frontier.get(shard, 0):
                frontier[shard] = commit_ts

    def begin_read_only(self, metadata: Optional[dict] = None) -> Transaction:
        """Start a read-only transaction under local strong SI."""
        return self.engine.begin(update=False, metadata=metadata)

    # -- failure & recovery (Section 3.4) -------------------------------------
    def crash(self) -> None:
        """Fail the site: lose held records and all refresh state."""
        if not self.engine.crashed:
            self.crash_count += 1
        self.refresher.stop()
        self.engine.crash()
        # Blocked freshness waits re-evaluate their predicates (which also
        # test ``crashed``) so client sessions can fail over immediately
        # instead of sleeping on a dead replica forever.
        self.seq_cond.notify_all()

    def recover(self, source_state: dict, source_commit_ts: int,
                shard_frontiers: dict) -> None:
        """Reinstall a quiesced primary copy and restart refresh machinery.

        ``seq(DBsec)`` is reinitialised to the copy's commit timestamp —
        the sequence number Section 4 obtains via a dummy transaction at
        the primary.  Under partial replication the copy is transaction-
        consistent at ``source_commit_ts``; ``shard_frontiers`` carries
        the per-shard timestamps of the newest commit *touching each
        subscribed shard* at copy time (empty under full replication;
        NOT the scalar copy timestamp —
        frontier values must always name commits that touched the shard,
        or a session could observe an inflated frontier here and then
        block forever demanding it of a replica that can never reach
        it).  They are *set*, not merged: the site now holds exactly the
        copy, and after a promotion that can be older than what it held
        before (a replica that ran ahead of the promoted candidate is
        resynced down to the surviving prefix).
        """
        self.engine.recover_from(source_state, source_commit_ts)
        if self.recorder is not None:
            self.recorder.record_recovery(self.name, self.kernel.now,
                                          source_state, source_commit_ts)
        self.seq_db = source_commit_ts
        self.shard_frontier.update(shard_frontiers)
        self.recover_count += 1
        self.refresher.start()
        self.seq_cond.notify_all()

    # -- promotion (cluster epoch fence) --------------------------------------
    def fence(self) -> int:
        """Fence the old cluster epoch without losing the site.

        The committed state and all read service survive — only
        replication state from the dead primary's regime is discarded:
        held records, pending refreshes and open refresh transactions
        go, and the refresher restarts clean for the new primary's feed.
        Returns the number of stale records discarded *here* — the
        :attr:`lag` plus the refresher's own count; in-flight deliveries
        from the old epoch are dropped on arrival by the epoch check and
        land in ``records_dropped`` as usual.
        """
        discarded = self.lag
        discarded += self.refresher.fence()
        self.seq_cond.notify_all()
        return discarded

    def retire(self) -> int:
        """Withdraw this site from the replica tier: it was promoted.

        Like :meth:`fence`, but the refresher stays down and ``retired``
        flips — ``live`` turns False, so bound sessions fail over to the
        remaining replicas while the engine serves on as the primary.
        """
        discarded = self.lag
        discarded += self.refresher.fence(restart=False)
        self.retired = True
        self.seq_cond.notify_all()
        return discarded

    @property
    def lag(self) -> int:
        """Number of delivered-but-unapplied refresh records (staleness).

        Held batch frames count as their contained records, so lag is
        comparable whether or not batching is on.
        """
        return self.refresher.queued + self.refresher.pending_count
