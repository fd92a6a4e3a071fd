"""Algorithms 3.2/3.3 — secondary refresh: one apply schedule, fed by
records, applicators as completion callbacks.

The refresh discipline — the pending queue, the applicator slots,
ordered versus conflict admission and the contiguous watermark — is
:class:`ApplySchedule`, which knows no kernel.  Two models drive it: the
functional :class:`Refresher` below, where Theorems 3.1/3.2/4.1 are
checked, and the simulator's secondaries (:mod:`repro.simmodel.model`),
which produce the paper's figures.  Each supplies only how records
arrive and wait, and how apply time is charged.

One refresher runs per secondary, as a callback state machine rather
than a process.  Each propagated record is handled inside its own
arrival event (:meth:`Refresher.deliver`; a
:class:`~repro.core.records.PropagatedBatch` frame is unpacked in place,
its records handled in log order as if they had arrived one by one):

* on ``start_p(T)`` — **waits until the pending queue is empty**, then
  starts T's refresh transaction R against the local engine (relationship
  2: a refresh transaction does not start until every refresh transaction
  that committed before T started has committed here);
* on ``commit_p(T)`` — admits ``commit_p(T)`` to the schedule;
* on ``abort_p(T)`` — aborts R.

The wait is the only place the refresher blocks, and it is a *hold*: the
record that must wait, the rest of its frame and every later delivery
stay in a FIFO inbox, and the publish that empties the pending queue
schedules one resume at the current instant — behind the readers that
same publish woke — which handles the inbox in order until it is empty
or the next wait.

An applicator is not a process: it is one kernel callback, ``_applied``,
scheduled ``apply_cost`` × (update count) ahead — the modelled apply
time — which replays T's update list inside R.  The callback is
scheduled even when that time is zero, so the refresher always finishes
the frame it is unpacking before any of the frame's commits applies,
whatever the cost.  An ordered applicator *holds* R until the schedule
publishes it; a conflict-admitted one installs R at its primary
timestamp the moment the replay ends.  Conflict admission drops the
start-record wait: R only buffers blind writes and commits at an
explicit primary timestamp, so its begin snapshot carries no ordering
obligation.

Publishing one commit (:meth:`Refresher._published`) commits R if it is
still held, moves the engine's snapshot counter to ``commit_p(T)``,
advances the per-shard frontiers and sets ``seq(DBsec)`` (Section 4:
after the commit and *before* the record leaves the queue, so blocked
read-only transactions wake in order).  Every refresh transaction
commits at its primary timestamp, so the local state numbering is the
primary's by construction, and the watermark of conflict admission *is*
``seq(DBsec)``: versions installed ahead of it are invisible to every
read until the prefix below them is complete.  Reads therefore see
exactly the primary state ``seq(DBsec)`` names, strong-session blocking
waits on it, and promotion fencing finds ``latest_commit_ts ==
seq(DBsec)`` — relationships 1-3 hold for every *visible* state under
either discipline.

A full-replication stream is contiguous, and publishing holds it to
that: publishing commit ``n`` over local state ``m != n - 1`` raises.
Sharded (partial-replication) streams — commit records only, each
projected onto the subscriber's shard set — have legitimate timestamp
gaps, so there visibility simply follows admission order, and a commit
that arrives without a start record begins at once instead of waiting
out the queue.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.core.records import (
    PropagatedAbort,
    PropagatedBatch,
    PropagatedCommit,
    PropagatedStart,
)
from repro.errors import ConfigurationError, ReplicationError
from repro.kernel import Kernel
from repro.storage.engine import Transaction, TxnStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.site import SecondarySite


class ApplySchedule:
    """Algorithm 3.3's discipline at one secondary, kernel-free: which
    admitted commits may start an applicator, and which finished ones
    become visible.

    Its user admits commits in primary commit order (:meth:`admit`),
    charges each started job's apply time however it models time, and
    reports each finished job (:meth:`finish`), then starts what
    :meth:`take` hands out.  Every admitted commit stays in ``pending``
    until it is visible and leaves from the head only, so the published
    prefix is contiguous in admission order: a commit finished behind
    an unfinished one waits in ``applied``.  Jobs a slot is not free
    for wait FIFO in ``runnable``.  Two values span the refresh
    disciplines:

    ``slots``
        Applicators allowed in flight: ``None`` for the paper's
        applicator per commit, one for ``serial`` replay — the naive
        log-sequence replay the paper argues against, kept for the
        ablation study — and the worker count under ``parallel``.
    ``ordered``
        True unless ``parallel`` is set.  An ordered commit is counted
        applied when it is published (relationship 3: commit order
        equals primary commit order); the user's start records wait
        for an empty ``pending`` (Algorithm 3.2).  Conflict
        (dependency-tracked, C5-style) admission needs no such wait and
        instead parks a commit behind every admitted, unapplied commit
        in ``after``; the commit is applied the moment its job finishes,
        wherever it falls, and the commits parked behind it join the
        back of ``runnable``.
    """

    def __init__(self, slots: Optional[int], ordered: bool,
                 on_publish: Optional[Callable[[int, Any], None]] = None):
        self.slots = slots
        self.ordered = ordered
        #: Called with ``(ts, held)`` for each commit as it becomes
        #: visible, before it leaves ``pending``.
        self.on_publish = on_publish
        #: Admitted commit_ts in admission order, until visible.
        self.pending: deque[int] = deque()
        #: Jobs whose predecessors allow them to run, awaiting a slot.
        self.runnable: deque = deque()
        #: Jobs started and not yet finished.
        self.busy = 0
        #: Admitted commit_ts whose job has not finished (parked,
        #: runnable or running).
        self.unapplied: set[int] = set()
        #: Finished commit_ts behind an unfinished head -> what the
        #: user holds for it until it is published.
        self.applied: dict[int, Any] = {}
        # -- conflict graph (conflict admission only) ---------------------
        #: parked commit_ts -> its unapplied predecessors.
        self._blockers: dict[int, set[int]] = {}
        #: predecessor commit_ts -> commit_ts parked behind it.
        self._dependents: dict[int, list[int]] = {}
        #: parked commit_ts -> its job.
        self._parked: dict[int, Any] = {}
        self.refreshes_applied = 0
        #: Peak accepted-but-unapplied backlog (:attr:`pending_count`).
        self.peak_pending = 0
        self.max_concurrent_applicators = 0
        #: Peak number of runnable jobs left without a slot.
        self.max_runnable_depth = 0
        #: Conflict-admitted commits applied while not the pending head.
        self.out_of_order_commits = 0

    def clear(self) -> None:
        """Drop every admitted commit and job (crash, fence); the
        counters stay."""
        self.pending.clear()
        self.runnable.clear()
        self.busy = 0
        self.unapplied.clear()
        self.applied.clear()
        self._blockers.clear()
        self._dependents.clear()
        self._parked.clear()

    @property
    def pending_count(self) -> int:
        """Accepted commits not yet applied locally."""
        return len(self.pending) if self.ordered else len(self.unapplied)

    def admit(self, ts: int, job: Any, after: Iterable[int] = ()) -> Any:
        """Admit commit ``ts``; return ``job`` if it may start now, else
        ``None`` (it is parked or waits for a slot)."""
        pending = self.pending
        unapplied = self.unapplied
        pending.append(ts)
        if self.ordered:
            if len(pending) > self.peak_pending:
                self.peak_pending = len(pending)
            unapplied.add(ts)
        else:
            blockers = {prev for prev in after if prev in unapplied}
            unapplied.add(ts)
            if len(unapplied) > self.peak_pending:
                self.peak_pending = len(unapplied)
            if blockers:
                self._blockers[ts] = blockers
                self._parked[ts] = job
                dependents = self._dependents
                for prev in blockers:
                    dependents.setdefault(prev, []).append(ts)
                return None
        if self.slots is not None and self.busy >= self.slots:
            runnable = self.runnable
            runnable.append(job)
            if len(runnable) > self.max_runnable_depth:
                self.max_runnable_depth = len(runnable)
            return None
        self.busy += 1
        if self.busy > self.max_concurrent_applicators:
            self.max_concurrent_applicators = self.busy
        return job

    def take(self) -> Any:
        """The oldest runnable job, if a slot is free for it (else
        ``None``): call until ``None`` after each :meth:`finish`."""
        runnable = self.runnable
        if not runnable or (self.slots is not None
                            and self.busy >= self.slots):
            return None
        self.busy += 1
        if self.busy > self.max_concurrent_applicators:
            self.max_concurrent_applicators = self.busy
        job = runnable.popleft()
        if self.busy == self.slots and len(runnable) > \
                self.max_runnable_depth:
            # Every slot is taken: what is left waits without one.
            self.max_runnable_depth = len(runnable)
        return job

    def finish(self, ts: int, held: Any = None) -> int:
        """Commit ``ts``'s job finished: free its slot, release the
        commits parked behind it, and publish the finished head run.
        Return the newest commit_ts made visible, or 0."""
        self.busy -= 1
        self.unapplied.discard(ts)
        pending = self.pending
        if not self.ordered:
            self.refreshes_applied += 1
            if ts != pending[0]:
                self.out_of_order_commits += 1
            for dependent in self._dependents.pop(ts, ()):
                blockers = self._blockers[dependent]
                blockers.discard(ts)
                if not blockers:
                    del self._blockers[dependent]
                    self.runnable.append(self._parked.pop(dependent))
        if ts != pending[0]:
            self.applied[ts] = held
            return 0
        on_publish = self.on_publish
        applied = self.applied
        published = 0
        while True:
            if on_publish is not None:
                on_publish(ts, held)
            pending.popleft()
            published += 1
            if not pending or pending[0] not in applied:
                break
            ts = pending[0]
            held = applied.pop(ts)
        if self.ordered:
            self.refreshes_applied += published
        return ts


class Refresher(ApplySchedule):
    """The refresher and its applicators at one secondary: an
    :class:`ApplySchedule` fed by propagated records."""

    def __init__(self, kernel: Kernel, site: "SecondarySite",
                 serial: bool = False, parallel: Optional[int] = None,
                 apply_cost: float = 0.0):
        if parallel is not None and parallel < 1:
            raise ConfigurationError("parallel refresh worker count must "
                                     "be >= 1")
        if parallel is not None and serial:
            raise ConfigurationError("parallel refresh excludes serial "
                                     "refresh")
        if apply_cost < 0:
            raise ConfigurationError("refresh apply cost must be >= 0")
        super().__init__(1 if serial else parallel, parallel is None,
                         self._published)
        self.kernel = kernel
        self.site = site
        #: Dependency-tracked worker count; ``None`` commits in primary
        #: commit order.
        self.parallel = parallel
        #: Modelled apply cost (virtual time per update operation) an
        #: applicator spends replaying a commit's update list.
        self.apply_cost = apply_cost
        #: Delivered records and frames not yet handled, in arrival
        #: order; non-empty only while held.  The head is the item being
        #: held, a frame from record ``_pos`` on.
        self._inbox: deque = deque()
        self._pos = 0
        #: True while deliveries wait in the inbox: a record is waiting
        #: for an empty pending queue, or the refresher is stopped.
        self._held = False
        self._refresh_txns: dict[int, Transaction] = {}
        #: key fingerprint -> newest admitted commit_ts writing it
        #: (conflict admission only).
        self._fp_last_writer: dict[int, int] = {}
        #: Incarnation counter: bumped on stop(), so applicators and
        #: resumes scheduled by a crashed or fenced incarnation do nothing.
        self._epoch = 0
        self.stale_records_dropped = 0
        #: Peak of :attr:`watermark_lag` observed at apply time
        #: (parallel): how far the backlog stretched.
        self.max_watermark_lag = 0

    def start(self) -> None:
        """Restart the refresher after :meth:`stop` (recovery, fence)."""
        self._resume(self._epoch)

    def stop(self) -> None:
        """Drop all refresh work and orphan the applicators (site crash):
        deliveries are held until :meth:`start`."""
        self._epoch += 1
        self._held = True
        self._inbox.clear()
        self._pos = 0
        self.clear()
        self._refresh_txns.clear()
        self._fp_last_writer.clear()

    def fence(self, restart: bool = True) -> int:
        """Discard all refresh state across a cluster-epoch fence.

        Unlike a crash — where ``engine.crash()`` aborts every open
        transaction as a side effect — a fenced site keeps its engine up
        to serve reads, so the open refresh transactions (awaiting their
        commit record, replaying, or held for the pending head) are
        aborted explicitly.  With ``restart=False`` the refresher stays
        down (a promoted site permanently leaves the replica tier).

        Commits installed ahead of ``seq(DBsec)`` are additionally rolled
        back (``engine.truncate_after``): they were never visible to any
        read, and the new regime re-delivers or supersedes them — leaving
        their versions installed would collide with that re-delivery.
        Returns the number of such discarded commits (0 when ordered).
        """
        for txn in list(self.site.engine.active_transactions):
            if (txn.metadata or {}).get("refresh_of") is not None \
                    and txn.status is TxnStatus.ACTIVE:
                txn.abort("cluster epoch fence")
        installed_ahead = 0 if self.ordered else len(self.applied)
        if installed_ahead:
            self.site.engine.truncate_after(self.site.seq_db)
        self.stop()
        if restart:
            self.start()
        return installed_ahead

    @property
    def watermark_lag(self) -> int:
        """How far the newest accepted commit runs ahead of the visible
        prefix (0 when ordered: ``pending_count`` already says it)."""
        if self.ordered or not self.pending:
            return 0
        return self.pending[-1] - self.site.seq_db

    @property
    def idle(self) -> bool:
        """True when there is no held or in-flight refresh work."""
        return not self.pending and not self._inbox

    @property
    def queued(self) -> int:
        """Delivered records not yet handled: every held one, a held
        frame's from the record it waits at on."""
        return sum(item.count if type(item) is PropagatedBatch else 1
                   for item in self._inbox) - self._pos

    # -- Algorithm 3.2 -----------------------------------------------------
    def deliver(self, item) -> None:
        """Handle one arrived record or frame now, unless the refresher
        is held — then it waits its turn in the inbox."""
        if self._held or not self._consume(item, 0):
            self._inbox.append(item)

    def _resume(self, epoch: int) -> None:
        """Handle the inbox in FIFO order until it is empty or the next
        record must wait."""
        if epoch != self._epoch:
            # Scheduled by an incarnation that has since been stopped.
            return
        self._held = False
        inbox = self._inbox
        while inbox:
            if not self._consume(inbox[0], self._pos):
                return
            inbox.popleft()
            self._pos = 0

    def _consume(self, item, pos: int) -> bool:
        """Handle a record, or a frame's records from ``pos`` on, in log
        order; on one that must wait, hold there and return False."""
        if type(item) is PropagatedBatch:
            records = item.records
            for pos in range(pos, len(records)):
                if not self._handle(records[pos]):
                    break
            else:
                return True
        elif self._handle(item):
            return True
        self._held = True
        self._pos = pos
        return False

    def _handle(self, record) -> bool:
        """Process one propagated record (one Algorithm 3.2 iteration);
        False, with nothing changed, when it must wait for the pending
        queue to empty."""
        if isinstance(record, PropagatedStart):
            if record.txn_id in self._refresh_txns:
                # Redelivered start (recovery replay overlapping the
                # propagator's own resumed stream); already begun.
                self.stale_records_dropped += 1
                return True
            if self.ordered and self.pending:
                return False
            self._begin_refresh(record.txn_id, record.start_ts)
        elif isinstance(record, PropagatedCommit):
            ts = record.commit_ts
            pending = self.pending
            if ts <= (pending[-1] if pending else self.site.seq_db):
                # Replay high-water mark: this commit is already in the
                # database (contained in a recovery copy, or redelivered
                # behind its twin).  Applying it again would collide with
                # the installed versions, so discard it — and, unless the
                # original still owns it, the refresh transaction a
                # redelivered start may have opened.
                if ts not in self.unapplied:
                    txn = self._refresh_txns.pop(record.txn_id, None)
                    if txn is not None:
                        txn.abort("stale refresh redelivery")
                self.stale_records_dropped += 1
                return True
            if record.txn_id not in self._refresh_txns:
                if self.ordered and pending and not self.site.sharded:
                    # Late join after recovery: the start record was lost
                    # with the old epoch.  Serialise this transaction.
                    return False
                self._begin_refresh(record.txn_id, None)
            if self.admit(ts, record, self._conflicts(record)) is not None:
                self._start(record)
        elif isinstance(record, PropagatedAbort):
            txn = self._refresh_txns.pop(record.txn_id, None)
            if txn is not None:
                txn.abort("primary abort propagated")
        else:
            raise ReplicationError(f"unknown propagated record: {record!r}")
        return True

    def _begin_refresh(self, primary_txn_id: int,
                       start_ts: Optional[int]) -> None:
        txn = self.site.engine.begin(update=True, metadata={
            "logical_id": f"refresh-{primary_txn_id}@{self.site.name}",
            "refresh_of": f"txn-p{primary_txn_id}",
            "primary_start_ts": start_ts,
        })
        self._refresh_txns[primary_txn_id] = txn

    def _conflicts(self, record: PropagatedCommit) -> Iterable[int]:
        """Conflict admission's predecessors of one commit record: the
        last admitted writer of each of its key fingerprints.

        Records arrive in primary commit order, so the local last-writer
        map mirrors the propagator's at every admission point.  The
        shipped ``dep_ts`` upper-bounds every true per-key predecessor,
        pruning fingerprint-collision edges that would only
        over-serialise; the schedule drops predecessors already applied.
        """
        if self.ordered:
            return ()
        fp_last = self._fp_last_writer
        dep_ts = record.dep_ts
        after = []
        for fp in record.write_fps:
            prev = fp_last.get(fp)
            if prev is not None and prev <= dep_ts:
                after.append(prev)
            fp_last[fp] = record.commit_ts
        return after

    # -- Algorithm 3.3 -----------------------------------------------------
    def _start(self, record: PropagatedCommit) -> None:
        """Start an applicator: its replay ends ``apply_cost`` per
        update from now."""
        self.kernel.call_at(
            self.kernel.now + self.apply_cost * len(record.updates),
            self._applied, self._epoch, record)

    def _applied(self, epoch: int, record: PropagatedCommit) -> None:
        """One applicator finishing: replay T's update list inside R."""
        if epoch != self._epoch:
            # Scheduled by an incarnation that has since been stopped
            # (crash or fence, possibly restarted in the same instant).
            return
        ts = record.commit_ts
        txn = self._refresh_txns.pop(record.txn_id)
        txn.apply_update_records(record.updates)
        if not self.ordered:
            lag = self.watermark_lag
            if lag > self.max_watermark_lag:
                self.max_watermark_lag = lag
            self._commit_refresh(txn, ts)
            txn = None
        self.finish(ts, (record, txn))
        if not self.pending and self._held:
            # Scheduled, not called: the held start begins behind the
            # readers this publish woke.
            self.kernel.call_at(self.kernel.now, self._resume, self._epoch)
        while (job := self.take()) is not None:
            self._start(job)

    def _commit_refresh(self, txn: Transaction, commit_ts: int) -> None:
        """Commit one refresh transaction at its primary timestamp."""
        self.site.engine.commit_refresh_at(txn, commit_ts)

    def _published(self, ts: int, held: tuple) -> None:
        """Make one finished commit visible: ``held`` is its record and,
        when ordered, the R that replayed it."""
        record, txn = held
        site = self.site
        engine = site.engine
        if not site.sharded and ts != engine.latest_commit_ts + 1:
            raise ReplicationError(
                f"{site.name}: refresh stream is not contiguous: "
                f"commit {ts} cannot follow local state "
                f"{engine.latest_commit_ts}")
        if txn is not None:
            self._commit_refresh(txn, ts)
        # Counter first, then seq(DBsec): a session woken by the
        # seq_cond notify may immediately begin a transaction at
        # snapshot ts, which the engine must already accept.
        engine.advance_commit_counter(ts)
        site.note_shards_applied(record.shard_deps, ts)
        # Section 4: advance seq(DBsec) after the commit, before
        # dequeuing the commit record.
        site.set_seq_db(ts)
