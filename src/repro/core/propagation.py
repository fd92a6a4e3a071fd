"""Algorithm 3.1 — primary update propagation.

The propagator is a log sniffer: it observes the primary's logical log
(outside the local concurrency control) and broadcasts records to every
attached secondary in log (= timestamp) order:

* ``start_p(T)`` records are forwarded **as soon as they are encountered**,
  which keeps propagation live even while T is still running (Section 3.2);
* update records are accumulated into T's *update list*;
* on ``commit_p(T)`` the whole update list is shipped together with the
  commit timestamp — updates of transactions that later abort are never
  propagated, so secondaries waste no work on doomed transactions;
* on ``abort_p(T)`` an abort notice is shipped (T's start already went out)
  and the update list is discarded.

Optionally the propagator batches outgoing records and flushes the batch
after ``batch_interval`` of virtual time, emulating the periodic
propagation cycle of the paper's simulation model (a 10 s propagator
"think time").  Records within a batch preserve log order, and batches are
FIFO, so the ordering lemmas are unaffected.

Reliable delivery over lossy links
----------------------------------
The paper *assumes* reliable FIFO delivery from the propagator to every
secondary (the premise of Theorems 3.1-4.1).  When a secondary is
attached through a :class:`ReliableLink`, that assumption is *restored*
over an unreliable channel instead: every record is stamped with a
per-link sequence number, the receiver delivers records to the site's
refresher strictly in sequence order (buffering early arrivals,
discarding duplicates), acknowledges cumulatively, and the sender
retransmits unacknowledged records on a timeout with exponential
backoff.  Without a link (the default), records go straight to
``endpoint.deliver_later`` exactly as before — the fault machinery adds
zero behaviour when disabled.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from repro.core.backoff import backoff_wait
from repro.errors import ReplicationError
from repro.faults.channel import NO_FAULTS, ChannelFaults, FaultyChannel
from repro.core.records import (
    PropagatedAbort,
    PropagatedBatch,
    PropagatedCommit,
    PropagatedStart,
    PropagationRecord,
)
from repro.core.sharding import ShardingConfig
from repro.kernel import Kernel
from repro.storage.wal import (
    AbortRecord,
    CommitRecord,
    LogicalLog,
    LogRecord,
    StartRecord,
    UpdateRecord,
)


class PropagationEndpoint(Protocol):
    """What the propagator needs from a secondary site."""

    name: str

    def deliver_later(self, record: PropagationRecord, delay: float) -> None:
        """Schedule delivery of ``record`` after ``delay`` virtual time."""


class ReliableLink:
    """In-order exactly-once delivery to one secondary over lossy channels.

    Sender and receiver state live in one object because both ends run in
    the same process; the *channels* between them are where faults happen.

    Sender side: records are numbered 0, 1, 2, ... per link epoch, kept in
    an unacked buffer, and (re)transmitted through ``data`` faults.  A
    one-shot retransmission timer fires after ``timeout`` (doubling per
    consecutive expiry up to ``max_timeout``, resetting on ack progress)
    and resends every unacked record in sequence order.

    Receiver side: a record arriving with the expected sequence number is
    handed to ``site.receive`` (and any directly-following buffered
    records with it); early arrivals are buffered; duplicates and
    stale-epoch deliveries are counted and discarded.  Every data arrival
    triggers a cumulative ack of the highest in-order sequence delivered,
    sent back through ``ack`` faults.

    ``resync()`` models the connection handshake after a secondary
    recovers: both ends restart at sequence 0 under a new epoch, and the
    unacked buffer is discarded (the recovery state transfer of Section
    3.4 covers everything the link had outstanding).
    """

    def __init__(self, kernel, site, *,
                 faults: ChannelFaults = NO_FAULTS,
                 ack_faults: Optional[ChannelFaults] = None,
                 rng: Any = None,
                 ack_rng: Any = None,
                 ack_delay: float = 0.0,
                 timeout: float = 2.0,
                 backoff: float = 2.0,
                 max_timeout: float = 30.0):
        if timeout <= 0:
            raise ReplicationError("retransmission timeout must be > 0")
        if backoff < 1.0:
            raise ReplicationError("retransmission backoff must be >= 1")
        self.kernel = kernel
        self.site = site
        self.ack_delay = ack_delay
        self.timeout = timeout
        self.backoff = backoff
        self.max_timeout = max_timeout
        self.data_channel = FaultyChannel(
            kernel, self._on_data, faults=faults, rng=rng,
            name=f"{site.name}-data")
        self.ack_channel = FaultyChannel(
            kernel, self._on_ack,
            faults=ack_faults if ack_faults is not None else NO_FAULTS,
            rng=ack_rng, name=f"{site.name}-ack")
        self._epoch = 0
        # Sender state.
        self._next_seq = 0
        self._unacked: dict[int, tuple[PropagationRecord, float]] = {}
        self._timer_armed = False
        self._consecutive_timeouts = 0
        # Receiver state.
        self._expected = 0
        self._early: dict[int, PropagationRecord] = {}
        # Control plane (autonomous failover): heartbeats ride the data
        # channel, lease grants ride the ack channel, both as unsequenced
        # datagrams.  The handlers are installed by
        # :class:`~repro.core.failover.AutoFailover`.
        self.control_handler = None        # receiver side: heartbeats
        self.control_back_handler = None   # sender side: lease grants
        # Zombie fencing: set (to the post-resync epoch) by a promotion,
        # after which every stale-epoch record arrival is counted as a
        # fenced zombie delivery — late traffic from the dead regime.
        self._zombie_fence_epoch: Optional[int] = None
        # Counters.
        self.retransmissions = 0
        self.duplicates_filtered = 0
        self.stale_epoch_drops = 0
        self.stale_control_drops = 0
        self.zombie_records_fenced = 0
        self.acks_received = 0

    # -- sender ------------------------------------------------------------
    def send(self, record: PropagationRecord, delay: float) -> None:
        """Transmit ``record``; it is buffered until acknowledged."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = (record, delay)
        self.data_channel.send((self._epoch, seq, record), delay)
        self._arm_timer()

    def _arm_timer(self) -> None:
        if self._timer_armed:
            return
        self._timer_armed = True
        # Shared bounded-exponential helper; the link owns the attempt
        # counter because cumulative-ack progress (not success of one
        # attempt) is what resets it.
        wait = backoff_wait(self._consecutive_timeouts, self.timeout,
                            self.backoff, self.max_timeout)
        self.kernel.call_at(self.kernel.now + wait, self._on_timer)

    def _site_live(self) -> bool:
        """The receiver can accept traffic: up *and* still a replica.

        Uses the site's unified ``live`` predicate when it has one, so a
        *retired* site (promoted to primary) stops retransmissions just
        like a crashed one; bare test doubles without ``live`` fall back
        to the crash flag.
        """
        live = getattr(self.site, "live", None)
        if live is None:
            return not getattr(self.site, "crashed", False)
        return live

    def _on_timer(self) -> None:
        self._timer_armed = False
        if not self._unacked:
            return
        if not self._site_live():
            # Failure detection: stop retransmitting into a dead (or
            # retired) site; the recovery path resyncs the link and
            # clears the buffer.
            return
        for seq in sorted(self._unacked):
            record, delay = self._unacked[seq]
            self.data_channel.send((self._epoch, seq, record), delay)
            self.retransmissions += 1
        self._consecutive_timeouts += 1
        self._arm_timer()

    # -- control plane (heartbeats / lease grants) --------------------------
    def send_control(self, message: Any, delay: float) -> None:
        """Ship a control datagram to the receiver over the data channel.

        Control traffic (primary heartbeats) shares the data channel's
        faults and partitions but bypasses the sequence/ack protocol: a
        lost heartbeat is *supposed* to be lost — retransmitting it would
        blind the failure detector.
        """
        self.data_channel.send(("ctrl", self._epoch, message), delay,
                               control=True)

    def send_control_back(self, message: Any, delay: float) -> None:
        """Ship a control datagram back to the sender (lease grants)."""
        self.ack_channel.send(("ctrl", self._epoch, message), delay,
                              control=True)

    def _on_ack(self, payload: tuple) -> None:
        if payload[0] == "ctrl":
            _tag, epoch, message = payload
            if epoch != self._epoch:
                self.stale_control_drops += 1
            elif self.control_back_handler is not None:
                self.control_back_handler(message)
            return
        epoch, acked = payload
        if epoch != self._epoch:
            self.stale_epoch_drops += 1
            return
        self.acks_received += 1
        progressed = False
        for seq in [s for s in self._unacked if s <= acked]:
            del self._unacked[seq]
            progressed = True
        if progressed:
            self._consecutive_timeouts = 0

    # -- receiver ----------------------------------------------------------
    def _on_data(self, payload: tuple) -> None:
        if payload[0] == "ctrl":
            _tag, epoch, message = payload
            if epoch != self._epoch:
                self.stale_control_drops += 1
            elif not self._site_live():
                self.stale_control_drops += 1
            elif self.control_handler is not None:
                self.control_handler(message)
            return
        epoch, seq, record = payload
        if epoch != self._epoch:
            self.stale_epoch_drops += 1
            if self._zombie_fence_epoch is not None \
                    and epoch < self._zombie_fence_epoch:
                # Late delivery from a regime the promotion fenced: the
                # healed zombie primary's traffic finally arrived.  Count
                # it (frames count as their contained records) and drop.
                self.zombie_records_fenced += (
                    record.count if isinstance(record, PropagatedBatch)
                    else 1)
            return
        if getattr(self.site, "crashed", False):
            # The receiving site is down: the record is lost with it (no
            # ack), exactly as if the site's NIC were unplugged.
            self.site.records_dropped += 1
            return
        if seq < self._expected:
            self.duplicates_filtered += 1
        elif seq > self._expected:
            if seq in self._early:
                self.duplicates_filtered += 1
            else:
                self._early[seq] = record
        else:
            self.site.receive(record)
            self._expected += 1
            while self._expected in self._early:
                self.site.receive(self._early.pop(self._expected))
                self._expected += 1
        self.ack_channel.send((self._epoch, self._expected - 1),
                              self.ack_delay)

    # -- lifecycle ----------------------------------------------------------
    def resync(self) -> None:
        """Restart the link (post-recovery handshake): fresh epoch, both
        sequence counters back to 0, outstanding state discarded."""
        self._epoch += 1
        self._next_seq = 0
        self._unacked.clear()
        self._consecutive_timeouts = 0
        self._expected = 0
        self._early.clear()

    def arm_zombie_fence(self) -> None:
        """Mark the current (post-promotion) epoch as the fence line.

        Called by :func:`~repro.core.promotion.promote` right after
        :meth:`resync`: any record still arriving with an older epoch —
        e.g. traffic a partitioned zombie primary sent before the epoch
        switch, finally delivered after the partition heals — is counted
        in :attr:`zombie_records_fenced` instead of silently folded into
        the generic stale-epoch drop count.
        """
        self._zombie_fence_epoch = self._epoch

    # -- partitions ---------------------------------------------------------
    def blackhole(self) -> None:
        """Partition this link: both directions stop delivering."""
        self.data_channel.blackhole()
        self.ack_channel.blackhole()

    def heal(self) -> None:
        """Heal the partition; held data payloads are released."""
        self.data_channel.heal()
        self.ack_channel.heal()

    @property
    def blackholed(self) -> bool:
        """True while this link is partitioned."""
        return self.data_channel.blackholed

    @property
    def settled(self) -> bool:
        """True when nothing is buffered or in flight on this link.

        A blackholed link with held payloads is *not* settled — the held
        traffic still has to drain once the partition heals.
        """
        return (not self._unacked and not self._early
                and self.data_channel.in_flight == 0
                and self.ack_channel.in_flight == 0
                and self.data_channel.held == 0
                and self.ack_channel.held == 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReliableLink to {self.site.name!r} epoch={self._epoch} "
                f"unacked={len(self._unacked)} retx={self.retransmissions}>")


class Propagator:
    """Broadcasts the primary's committed updates to all secondaries.

    Parameters
    ----------
    kernel:
        The shared virtual-time kernel.
    log:
        The primary's logical log to sniff.
    delay:
        Network/propagation delay applied to each record (virtual time).
    batch_interval:
        If set, records are buffered and flushed together at most every
        ``batch_interval`` (scheduled lazily so an idle system quiesces).
    dep_floor:
        Lower bound on every shipped ``dep_ts``: a committed transaction
        whose keys have no recorded prior writer still depends on (at
        least) this commit number.  0 normally; a promotion passes the
        new primary's base state so new-epoch commits can never be
        applied by a parallel secondary before the replayed archive tail
        that produced the base state (the per-key last-writer map of a
        fresh propagator starts empty and knows nothing about the
        previous epoch's writers).
    sharding:
        Partial-replication configuration.  When set, the propagator
        emits **only commit records** (no starts, no aborts — a
        subscriber cannot tell a filtered-out commit from an aborted
        transaction anyway), stamps each with per-shard dependency
        bounds, and *projects* every commit onto each endpoint's
        ``subscription``: commits touching no subscribed shard are not
        shipped at all, partially-overlapping commits ship only the
        subscribed slice of their write-set.  ``None`` (default) keeps
        the classic full-replication wire format.  This is the one place
        the two modes are different protocols rather than one protocol
        at two widths: a full-replication stream is contiguous and
        drives Algorithm 3.2's empty-queue wait off its start records, a
        projected stream can do neither, so :meth:`_on_log_record` and
        :meth:`replay_to` choose which records exist — and nothing else
        here asks which mode it is in.
    newest_floor:
        Newest commit timestamp per freshness axis at this propagator's
        epoch start (empty for the first epoch); a promotion passes the
        map rebuilt by :meth:`newest_commit_ts_up_to`.
    """

    def __init__(self, kernel: Kernel, log: LogicalLog, *,
                 delay: float = 0.0,
                 batch_interval: Optional[float] = None,
                 dep_floor: int = 0,
                 sharding: Optional[ShardingConfig] = None,
                 newest_floor: Optional[dict] = None,
                 name: str = "propagator"):
        if delay < 0:
            raise ReplicationError("propagation delay must be >= 0")
        if batch_interval is not None and batch_interval < 0:
            raise ReplicationError("batch interval must be >= 0")
        self.kernel = kernel
        self.log = log
        self.delay = delay
        self.batch_interval = batch_interval
        self.dep_floor = dep_floor
        self.sharding = sharding
        self.name = name
        self._endpoints: list[PropagationEndpoint] = []
        self._links: dict[str, ReliableLink] = {}
        self._update_lists: dict[int, list] = {}
        self._update_fps: dict[int, list[int]] = {}
        self._start_ts: dict[int, int] = {}
        self._logical_ids: dict[int, str] = {}
        self._outbox: list[PropagationRecord] = []
        self._flush_scheduled = False
        self._paused = False
        #: All commit records ever broadcast, in commit order — the archive
        #: used to bring a recovered secondary back up to date (Section 3.4).
        self.archive: list[PropagatedCommit] = []
        #: Per-endpoint record deliveries: a record shipped to three
        #: secondaries counts three times.  (Before the batch-shipping
        #: change this was a single per-record count independent of the
        #: endpoint count — that metric now lives in ``records_logged``.)
        self.records_sent = 0
        #: Batch frames shipped (per endpoint); zero unless batching is on.
        self.batches_sent = 0
        #: Records emitted from the log, counted once each regardless of
        #: how many endpoints they fan out to — the pre-batching
        #: ``records_sent`` semantics, kept for baseline comparability.
        self.records_logged = 0
        #: Per-key last-writer map (key fingerprint -> commit_ts) feeding
        #: the dependency summary shipped with every commit record.
        self._last_writer: dict[int, int] = {}
        #: Newest commit timestamp on each freshness axis — ``None``, the
        #: whole database, and every shard a commit has touched — as
        #: the log shows it.  Every value is the timestamp of a commit
        #: that touched the axis, or frontier waits can deadlock.
        self._newest_commit_ts: dict = dict(newest_floor or {})
        #: Frozen copy at this propagator's epoch start.  The archive
        #: only holds this epoch's commits, so a later promotion needs
        #: this floor to rebuild the map *exactly*.
        self._newest_floor: dict = dict(self._newest_commit_ts)
        #: Commit-record shipments per shard, summed over endpoints: a
        #: commit touching two subscribed shards of one endpoint counts
        #: once for each shard.
        self.records_shipped_by_shard: dict[int, int] = {}
        log.subscribe(self._on_log_record)

    # -- membership -------------------------------------------------------
    def attach(self, endpoint: PropagationEndpoint,
               link: Optional[ReliableLink] = None) -> None:
        """Start broadcasting to ``endpoint`` (a secondary site).

        With a :class:`ReliableLink`, records are routed through the
        link's sequenced ack/retransmission protocol (surviving channel
        faults); without one they are handed to ``deliver_later``
        directly, exactly as before.
        """
        self._endpoints.append(endpoint)
        if link is not None:
            self._links[endpoint.name] = link

    def detach(self, endpoint: PropagationEndpoint) -> None:
        self._endpoints.remove(endpoint)
        self._links.pop(endpoint.name, None)

    def link_for(self, endpoint: PropagationEndpoint
                 ) -> Optional[ReliableLink]:
        """The :class:`ReliableLink` to ``endpoint``, if one is attached."""
        return self._links.get(endpoint.name)

    @property
    def endpoints(self) -> list[PropagationEndpoint]:
        return list(self._endpoints)

    @property
    def idle(self) -> bool:
        """True when no record is buffered here or outstanding on a link
        to a live secondary (crashed sites' links settle at resync)."""
        if self._outbox or self._flush_scheduled:
            return False
        for link in self._links.values():
            if not getattr(link.site, "crashed", False) and not link.settled:
                return False
        return True

    # -- flow control (failure injection / staleness experiments) ---------
    @property
    def paused(self) -> bool:
        """True while record emission is paused (see :meth:`pause`)."""
        return self._paused

    def pause(self) -> None:
        """Stop emitting records (they keep buffering in log order)."""
        self._paused = True

    def resume(self) -> None:
        """Resume emission, flushing everything buffered while paused."""
        self._paused = False
        self._flush()

    # -- log sniffing (Algorithm 3.1) --------------------------------------
    def _on_log_record(self, record: LogRecord) -> None:
        if isinstance(record, StartRecord):
            self._start_ts[record.txn_id] = record.start_ts
            self._update_lists[record.txn_id] = []
            self._update_fps[record.txn_id] = []
            if self.sharding is None:
                self._emit(PropagatedStart(
                    txn_id=record.txn_id, start_ts=record.start_ts))
        elif isinstance(record, UpdateRecord):
            updates = self._update_lists.get(record.txn_id)
            if updates is None:
                raise ReplicationError(
                    f"update record for unknown transaction {record.txn_id}")
            updates.append((record.key, record.value, record.deleted))
            self._update_fps[record.txn_id].append(record.key_fp)
        elif isinstance(record, CommitRecord):
            updates = tuple(self._update_lists.pop(record.txn_id, ()))
            fps = tuple(self._update_fps.pop(record.txn_id, ()))
            self._start_ts.pop(record.txn_id, None)
            # Dependency summary (incremental, O(write set)): the newest
            # prior writer among the written keys becomes dep_ts, then
            # this commit is recorded as the new last writer.  The
            # fingerprints were cached on the WAL records at log time, so
            # no crc32 runs here.
            sharding = self.sharding
            last_writer = self._last_writer
            write_fps: list[int] = []
            seen_fps: set[int] = set()
            dep_ts = self.dep_floor
            shard_prev: dict[int, int] = {}
            for fp in fps:
                if fp in seen_fps:
                    continue
                seen_fps.add(fp)
                write_fps.append(fp)
                prev = last_writer.get(fp)
                if prev is not None and prev > dep_ts:
                    dep_ts = prev
                if sharding is not None:
                    shard = fp % sharding.shards
                    bound = shard_prev.get(shard, self.dep_floor)
                    if prev is not None and prev > bound:
                        bound = prev
                    shard_prev[shard] = bound
                last_writer[fp] = record.commit_ts
            newest = self._newest_commit_ts
            newest[None] = record.commit_ts
            for shard in shard_prev:
                newest[shard] = record.commit_ts
            commit = PropagatedCommit(
                txn_id=record.txn_id, commit_ts=record.commit_ts,
                updates=updates, write_fps=tuple(write_fps),
                dep_ts=dep_ts,
                # Only a record that can be projected needs the
                # undeduplicated fingerprints.
                update_fps=fps if shard_prev else (),
                shard_deps=tuple(sorted(shard_prev.items())))
            self.archive.append(commit)
            self._emit(commit)
        elif isinstance(record, AbortRecord):
            self._update_lists.pop(record.txn_id, None)
            self._update_fps.pop(record.txn_id, None)
            self._start_ts.pop(record.txn_id, None)
            if self.sharding is None:
                self._emit(PropagatedAbort(txn_id=record.txn_id))

    # -- emission ----------------------------------------------------------
    def _emit(self, record: PropagationRecord) -> None:
        self.records_logged += 1
        self._outbox.append(record)
        if self._paused:
            return
        if self.batch_interval is None:
            self._flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self.kernel.call_at(self.kernel.now + self.batch_interval,
                                self._flush_batch)

    def _flush_batch(self) -> None:
        self._flush_scheduled = False
        if not self._paused:
            self._flush()

    def _flush(self) -> None:
        outbox, self._outbox = self._outbox, []
        if not outbox:
            return
        links = self._links
        batching = self.batch_interval is not None
        # Batch shipping: the whole flush travels as one frame per
        # endpoint — one sequence number, one ack, one delivery event —
        # and the refresher unpacks the records in log order.  Unbatched,
        # each record goes to every endpoint before the next is sent.
        # An endpoint that declares no ``subscription`` receives all.
        for item in ((PropagatedBatch(records=tuple(outbox)),)
                     if batching else outbox):
            for endpoint in self._endpoints:
                shipped = self.slice_for(
                    item, getattr(endpoint, "subscription", None))
                if shipped is None:
                    continue
                link = links.get(endpoint.name) if links else None
                if link is not None:
                    link.send(shipped, self.delay)
                else:
                    endpoint.deliver_later(shipped, self.delay)
                if batching:
                    self.batches_sent += 1
                    self.records_sent += shipped.count
                else:
                    self.records_sent += 1

    def slice_for(self, item: Any, subscription: Optional[frozenset]
                  ) -> Any:
        """What of one outgoing item travels to a subscriber, counted
        per shard as shipped.

        Under full replication (``subscription`` None) that is the item
        itself — every endpoint shares the one record or frame.  A
        partial-replication stream holds only commit records: a frame is
        sliced record by record, and a commit yields ``None`` when it
        touches no subscribed shard (nothing to ship), the original
        record when every touched shard is subscribed (the common case —
        no copying on the hot path), and a filtered record otherwise:
        only the subscribed slice of the write-set travels, with
        ``dep_ts`` recomputed over the subscribed shards so the record
        never waits on a commit the subscriber will not receive.
        """
        if subscription is None:
            return item
        if type(item) is PropagatedBatch:
            records = tuple(
                slice_ for slice_ in (self.slice_for(record, subscription)
                                      for record in item.records)
                if slice_ is not None)
            return PropagatedBatch(records=records) if records else None
        commit = item
        kept = tuple(pair for pair in commit.shard_deps
                     if pair[0] in subscription)
        if not kept:
            return None
        shipped = self.records_shipped_by_shard
        for shard, _dep in kept:
            shipped[shard] = shipped.get(shard, 0) + 1
        if len(kept) == len(commit.shard_deps):
            return commit
        shards = self.sharding.shards
        updates = []
        update_fps = []
        for update, fp in zip(commit.updates, commit.update_fps):
            if fp % shards in subscription:
                updates.append(update)
                update_fps.append(fp)
        write_fps = tuple(fp for fp in commit.write_fps
                          if fp % shards in subscription)
        dep_ts = self.dep_floor
        for _shard, dep in kept:
            if dep > dep_ts:
                dep_ts = dep
        return PropagatedCommit(
            txn_id=commit.txn_id, commit_ts=commit.commit_ts,
            updates=tuple(updates), logical_id=commit.logical_id,
            write_fps=write_fps, dep_ts=dep_ts,
            update_fps=tuple(update_fps), shard_deps=kept)

    # -- recovery support (Section 3.4) -------------------------------------
    def newest_commit_ts(self, axis) -> int:
        """Newest commit on one freshness axis (0 if none): the frontier
        a replica holding the axis converges on."""
        return self._newest_commit_ts.get(axis, 0)

    def newest_commit_ts_up_to(self, base: int) -> dict:
        """The per-axis newest-commit map as of commit ``base``, rebuilt
        *exactly* for a promotion that truncates there: every value is
        the timestamp of a surviving commit that actually touched the
        axis (not merely ``min(newest, base)`` — the truncation point
        need not touch a given shard).  The archive holds exactly this
        epoch's commits in commit order, so the epoch-start floor plus
        the archived commits at or before ``base`` reconstruct it.
        """
        exact = dict(self._newest_floor)
        for commit in self.archive:
            if commit.commit_ts > base:
                break
            exact[None] = commit.commit_ts
            for shard, _dep in commit.shard_deps:
                exact[shard] = commit.commit_ts
        return exact

    def retire(self) -> None:
        """Permanently disconnect this propagator (primary promotion).

        Unsubscribes from the dead primary's log and forgets every
        endpoint and link, so nothing is ever emitted again — but the
        :attr:`archive` stays readable: promotion uses it to replay the
        surviving prefix to replicas behind the truncation point.
        """
        self.log.unsubscribe(self._on_log_record)
        self._paused = True
        self._endpoints.clear()
        self._links.clear()
        self._outbox.clear()

    def replay_to(self, endpoint: PropagationEndpoint,
                  after_commit_ts: int,
                  up_to_commit_ts: Optional[int] = None) -> int:
        """Replay archived commits newer than ``after_commit_ts``.

        Each replayed transaction is delivered as a start record followed
        immediately by its commit record, so the recovering secondary
        installs the missing tail serially through the ordinary refresh
        mechanism.  Returns the number of transactions replayed.

        Replay deliberately bypasses any :class:`ReliableLink`: recovery
        is a state transfer over a fresh connection, not regular
        propagation traffic, so it is not subject to channel faults
        (resync the link first — see
        :meth:`~repro.core.system.ReplicatedSystem.recover_secondary`).

        ``up_to_commit_ts`` caps the replay (inclusive): a promotion
        replays a fenced replica only up to the new primary's base state —
        commits beyond the truncation point died with the old primary and
        must never resurface.

        The archive holds the *full* commits; each is sliced for the
        endpoint's subscription exactly like live traffic (commits
        touching no subscribed shard are skipped and do not count).  A
        full-replication stream gets each commit's start record
        synthesized ahead of it; partial-replication streams are
        commit-only.
        """
        replayed = 0
        subscription = getattr(endpoint, "subscription", None)
        for commit in self.archive:
            if commit.commit_ts <= after_commit_ts:
                continue
            if up_to_commit_ts is not None \
                    and commit.commit_ts > up_to_commit_ts:
                break
            slice_ = self.slice_for(commit, subscription)
            if slice_ is None:
                continue
            if self.sharding is None:
                endpoint.deliver_later(
                    PropagatedStart(txn_id=commit.txn_id,
                                    start_ts=commit.commit_ts - 1), 0.0)
            endpoint.deliver_later(slice_, 0.0)
            replayed += 1
        return replayed
