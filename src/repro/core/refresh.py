"""Algorithms 3.2/3.3 — secondary refresh: one pending queue, applicators
as completion callbacks.

One refresher runs per secondary, as a callback state machine rather
than a process.  Each propagated record is handled inside its own
arrival event (:meth:`Refresher.deliver`; a
:class:`~repro.core.records.PropagatedBatch` frame is unpacked in place,
its records handled in log order as if they had arrived one by one):

* on ``start_p(T)`` — **waits until the pending queue is empty**, then
  starts T's refresh transaction R against the local engine (relationship
  2: a refresh transaction does not start until every refresh transaction
  that committed before T started has committed here);
* on ``commit_p(T)`` — appends ``commit_p(T)`` to the pending queue and
  queues the record for an *applicator*;
* on ``abort_p(T)`` — aborts R.

The wait is the only place the refresher blocks, and it is a *hold*: the
record that must wait, the rest of its frame and every later delivery
stay in a FIFO inbox, and the publish that empties the pending queue
schedules one resume at the current instant — behind the readers that
same publish woke — which handles the inbox in order until it is empty
or the next wait.

The pending queue
-----------------
Every accepted commit enters ``pending`` in admission order, which is
primary commit order, and leaves it from the head only.  A commit whose
predecessors allow it to run waits FIFO in ``_ready``; ``_pump`` starts
an applicator on the oldest one while a slot is free.  An applicator is
not a process: it is one kernel callback, ``_applied``, scheduled
``apply_cost`` × (update count) ahead — the modelled apply time — which
replays T's update list inside R.  The callback is scheduled even when
that time is zero, so the refresher always finishes the frame it is
unpacking before any of the frame's commits applies, whatever the cost.

Two values span the refresh disciplines:

``slots``
    Applicators allowed in flight: unbounded for the paper's applicator
    per commit (the default), one for ``serial`` replay — the naive
    log-sequence replay the paper argues against, kept for the ablation
    study — and the worker count under ``parallel``.
``ordered``
    True unless ``parallel`` is set.  An ordered applicator that finishes
    early *holds* R until ``commit_p(T)`` is the pending head, then
    commits (relationship 3: commit order equals primary commit order),
    and admission is Algorithm 3.2's empty-queue wait.  Unordered
    (dependency-tracked, C5-style) admission needs no wait — R only
    buffers blind writes and commits at an explicit primary timestamp,
    so its begin snapshot carries no ordering obligation — and instead
    parks a commit behind its unapplied *conflicting* predecessors,
    computed from the shipped write-set key fingerprints against a local
    last-writer map with the shipped ``dep_ts`` pruning
    fingerprint-collision false edges.  Its applicator installs R the
    moment the replay ends and releases the commits parked behind it to
    the back of ``_ready``.

The publish loop
----------------
``_publish`` retires every finished head of ``pending``, one commit at a
time: commit R if it is still held, move the engine's snapshot counter to
``commit_p(T)``, advance the per-shard frontiers, set ``seq(DBsec)``
(Section 4: after the commit and *before* the record leaves the queue, so
blocked read-only transactions wake in order), dequeue.  Every refresh
transaction commits at its primary timestamp, so the local state
numbering is the primary's by construction, and the watermark of the
unordered discipline *is* ``seq(DBsec)``: versions installed ahead of it
are invisible to every read until the prefix below them is complete.
Reads therefore see exactly the primary state ``seq(DBsec)`` names,
strong-session blocking waits on it, and promotion fencing finds
``latest_commit_ts == seq(DBsec)`` — relationships 1-3 hold for every
*visible* state under either discipline.

A full-replication stream is contiguous, and the loop holds it to that:
publishing commit ``n`` over local state ``m != n - 1`` raises.  Sharded
(partial-replication) streams — commit records only, each projected onto
the subscriber's shard set — have legitimate timestamp gaps, so there
visibility simply follows admission order, and a commit that arrives
without a start record begins at once instead of waiting out the queue.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.records import (
    PropagatedAbort,
    PropagatedBatch,
    PropagatedCommit,
    PropagatedStart,
)
from repro.errors import ReplicationError
from repro.kernel import Kernel
from repro.storage.engine import Transaction, TxnStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.site import SecondarySite


class Refresher:
    """The refresher and its applicators at one secondary."""

    def __init__(self, kernel: Kernel, site: "SecondarySite",
                 serial: bool = False, parallel: Optional[int] = None,
                 apply_cost: float = 0.0):
        if parallel is not None and parallel < 1:
            raise ReplicationError("parallel refresh worker count must "
                                   "be >= 1")
        if parallel is not None and serial:
            raise ReplicationError("parallel refresh excludes serial refresh")
        if apply_cost < 0:
            raise ReplicationError("refresh apply cost must be >= 0")
        self.kernel = kernel
        self.site = site
        #: Dependency-tracked worker count; ``None`` commits in primary
        #: commit order.
        self.parallel = parallel
        #: Applicators allowed in flight (``None``: one per commit).
        self.slots = 1 if serial else parallel
        #: Commit in primary commit order behind the empty-queue wait,
        #: rather than on completion behind the conflict graph.
        self.ordered = parallel is None
        #: Modelled apply cost (virtual time per update operation) an
        #: applicator spends replaying a commit's update list.
        self.apply_cost = apply_cost
        #: Accepted commit records in admission order, until visible.
        self.pending: deque[PropagatedCommit] = deque()
        #: Delivered records and frames not yet handled, in arrival
        #: order; non-empty only while held.  The head is the item being
        #: held, a frame from record ``_pos`` on.
        self._inbox: deque = deque()
        self._pos = 0
        #: True while deliveries wait in the inbox: a record is waiting
        #: for an empty pending queue, or the refresher is stopped.
        self._held = False
        self._refresh_txns: dict[int, Transaction] = {}
        #: Runnable commit records awaiting a free applicator slot.
        self._ready: deque[PropagatedCommit] = deque()
        #: Applicators scheduled and not yet finished.
        self._busy = 0
        #: Accepted commit_ts whose applicator has not finished (parked,
        #: ready or replaying); its refresh transaction is still open in
        #: ``_refresh_txns``.
        self._inflight: set[int] = set()
        #: commit_ts -> R of every finished applicator not yet published:
        #: the held transaction (ordered), ``None`` once installed
        #: (parallel).
        self._finished: dict[int, Optional[Transaction]] = {}
        # -- conflict graph (parallel admission only) --------------------
        #: key fingerprint -> newest admitted commit_ts writing it.
        self._fp_last_writer: dict[int, int] = {}
        #: blocked commit_ts -> unapplied conflicting predecessor ts.
        self._blockers: dict[int, set[int]] = {}
        #: predecessor ts -> commit_ts values waiting on it.
        self._dependents: dict[int, list[int]] = {}
        #: blocked commit_ts -> its commit record (parked until runnable).
        self._parked: dict[int, PropagatedCommit] = {}
        #: Incarnation counter: bumped on stop(), so applicators and
        #: resumes scheduled by a crashed or fenced incarnation do nothing.
        self._epoch = 0
        #: Newest primary commit_ts accepted into the pending queue.
        #: Together with ``seq(DBsec)`` this is the replay high-water
        #: mark: commit records at or below it are redeliveries.
        self._max_enqueued_ts = 0
        self.refreshes_applied = 0
        self.stale_records_dropped = 0
        self.max_concurrent_applicators = 0
        #: Refresh transactions installed while not the pending head
        #: (parallel): actual out-of-order applies.
        self.out_of_order_commits = 0
        #: Peak number of runnable commits left without a slot.
        self.max_runnable_depth = 0
        #: Peak of ``_max_enqueued_ts - seq(DBsec)`` observed at apply
        #: time (parallel): how far the backlog stretched.
        self.max_watermark_lag = 0
        #: Peak accepted-but-unapplied backlog — the unbounded-queue
        #: evidence the overload bench compares across admission-on/off
        #: runs.
        self.peak_pending = 0

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
        self._busy = 0
        self.pending.clear()
        self._ready.clear()
        self._inflight.clear()
        self._finished.clear()
        self._refresh_txns.clear()
        self._fp_last_writer.clear()
        self._blockers.clear()
        self._dependents.clear()
        self._parked.clear()
        self._max_enqueued_ts = 0

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
        installed_ahead = 0 if self.ordered else len(self._finished)
        if installed_ahead:
            self.site.engine.truncate_after(self.site.seq_db)
        self.stop()
        if restart:
            self.start()
        return installed_ahead

    @property
    def pending_count(self) -> int:
        """Accepted refresh transactions not yet committed locally."""
        return len(self.pending) if self.ordered else len(self._inflight)

    @property
    def watermark_lag(self) -> int:
        """How far the newest accepted commit runs ahead of the visible
        prefix (0 when ordered: ``pending_count`` already says it)."""
        if self.ordered:
            return 0
        return max(0, self._max_enqueued_ts - self.site.seq_db)

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
            if ts <= max(self.site.seq_db, self._max_enqueued_ts):
                # Replay high-water mark: this commit is already in the
                # database (contained in a recovery copy, or redelivered
                # behind its twin).  Applying it again would collide with
                # the installed versions, so discard it — and, unless the
                # original still owns it, the refresh transaction a
                # redelivered start may have opened.
                if ts not in self._inflight:
                    txn = self._refresh_txns.pop(record.txn_id, None)
                    if txn is not None:
                        txn.abort("stale refresh redelivery")
                self.stale_records_dropped += 1
                return True
            if record.txn_id not in self._refresh_txns:
                if self.ordered and self.pending and not self.site.sharded:
                    # Late join after recovery: the start record was lost
                    # with the old epoch.  Serialise this transaction.
                    return False
                self._begin_refresh(record.txn_id, None)
            self._max_enqueued_ts = ts
            self.pending.append(record)
            self._inflight.add(ts)
            backlog = self.pending_count
            if backlog > self.peak_pending:
                self.peak_pending = backlog
            if self.ordered:
                self._ready.append(record)
            else:
                self._schedule(record)
            self._pump()
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

    def _schedule(self, record: PropagatedCommit) -> None:
        """Conflict admission: park one commit record behind its
        unapplied conflicting predecessors, or make it runnable.

        Records arrive in primary commit order, so the local last-writer
        map mirrors the propagator's at every admission point; a
        predecessor missing from the in-flight set is already applied
        (or predates this refresher incarnation's visible state) and
        imposes no edge.  The shipped ``dep_ts`` upper-bounds every true
        per-key predecessor, pruning fingerprint-collision edges that
        would only over-serialise.
        """
        ts = record.commit_ts
        inflight = self._inflight
        fp_last = self._fp_last_writer
        dep_ts = record.dep_ts
        blockers: Optional[set[int]] = None
        for fp in record.write_fps:
            prev = fp_last.get(fp)
            if prev is not None and prev <= dep_ts and prev in inflight \
                    and prev != ts:
                if blockers is None:
                    blockers = set()
                blockers.add(prev)
            fp_last[fp] = ts
        if blockers:
            self._blockers[ts] = blockers
            self._parked[ts] = record
            dependents = self._dependents
            for prev in blockers:
                dependents.setdefault(prev, []).append(ts)
        else:
            self._ready.append(record)

    # -- Algorithm 3.3 -----------------------------------------------------
    def _pump(self) -> None:
        """Start an applicator on the oldest runnable commits while a
        slot is free."""
        ready = self._ready
        now = self.kernel.now
        while ready and (self.slots is None or self._busy < self.slots):
            record = ready.popleft()
            self._busy += 1
            if self._busy > self.max_concurrent_applicators:
                self.max_concurrent_applicators = self._busy
            self.kernel.call_at(now + self.apply_cost * len(record.updates),
                                self._applied, self._epoch, record)
        if len(ready) > self.max_runnable_depth:
            self.max_runnable_depth = len(ready)

    def _applied(self, epoch: int, record: PropagatedCommit) -> None:
        """One applicator finishing: replay T's update list inside R."""
        if epoch != self._epoch:
            # Scheduled by an incarnation that has since been stopped
            # (crash or fence, possibly restarted in the same instant).
            return
        ts = record.commit_ts
        txn = self._refresh_txns.pop(record.txn_id)
        txn.apply_update_records(record.updates)
        self._inflight.discard(ts)
        if self.ordered:
            self._finished[ts] = txn
        else:
            if record is not self.pending[0]:
                self.out_of_order_commits += 1
            lag = self._max_enqueued_ts - self.site.seq_db
            if lag > self.max_watermark_lag:
                self.max_watermark_lag = lag
            self._commit_refresh(txn, ts)
            self._finished[ts] = None
            for dependent in self._dependents.pop(ts, ()):
                blockers = self._blockers[dependent]
                blockers.discard(ts)
                if not blockers:
                    del self._blockers[dependent]
                    self._ready.append(self._parked.pop(dependent))
        self._publish()
        self._busy -= 1
        self._pump()

    def _commit_refresh(self, txn: Transaction, commit_ts: int) -> None:
        """Commit one refresh transaction at its primary timestamp."""
        self.site.engine.commit_refresh_at(txn, commit_ts)
        self.refreshes_applied += 1

    def _publish(self) -> None:
        """Make every finished head of the pending queue visible."""
        site = self.site
        engine = site.engine
        pending = self.pending
        finished = self._finished
        while pending and pending[0].commit_ts in finished:
            record = pending[0]
            ts = record.commit_ts
            txn = finished.pop(ts)
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
            pending.popleft()
        if not pending and self._held:
            # Scheduled, not called: the held start begins behind the
            # readers this publish woke.
            self.kernel.call_at(self.kernel.now, self._resume, self._epoch)
