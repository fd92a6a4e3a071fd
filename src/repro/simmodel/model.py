"""The discrete-event model of Section 5, process by process.

Components (all kernel processes on virtual time):

* **clients** — each bound to one secondary; runs sessions of exponential
  length, thinks exponentially between transactions, then submits an
  update transaction (to the primary) or a read-only transaction (to its
  secondary) per the workload mix;
* **primary concurrency control** — strong SI with first-committer-wins
  modelled as the paper does: an update transaction consumes its service
  demand at the primary's shared server and then aborts with probability
  ``abort_prob``, restarting so the offered load is maintained;
* **propagator** — accumulates start/commit/abort records and ships them
  to every secondary each ``propagation_delay`` cycle (a log sniffer: it
  uses no concurrency control and no modelled network resource);
* **refresher + applicators** — per secondary; enforce relationships 1-3
  exactly like :mod:`repro.core.refresh`: start records block until the
  pending queue is empty, updates are applied by concurrent applicator
  threads that consume secondary server capacity, commits happen in
  primary commit order, and each commit advances ``seq(DBsec)``;
* **ALG blocking rule** — a read-only transaction captures its required
  sequence number at submission (``0`` for ALG-WEAK-SI, ``seq(c)`` for
  ALG-STRONG-SESSION-SI, the global sequence for ALG-STRONG-SI) and waits
  until ``seq(DBsec)`` reaches it.

Read-only transactions are never blocked by refresh transactions at the
server level other than through server sharing, mirroring "read-only
transactions ... access committed snapshots of data and do not contend
with refresh transactions" (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Union

from repro.core.admission import TokenBucket
from repro.core.sessions import SequenceTracker
from repro.errors import ConfigurationError
from repro.kernel import Condition, Kernel, Queue, Sleep
from repro.sim.rng import RandomStream, RandomStreams
from repro.sim.resources import (
    FifoServer,
    ProcessorSharingServer,
    RoundRobinServer,
)
from repro.sim.stats import MetricsCollector, SummaryStats
from repro.simmodel.params import SimulationParameters

Server = Union[ProcessorSharingServer, RoundRobinServer, FifoServer]


@dataclass(frozen=True)
class _StartRecord:
    txn_key: int


@dataclass(frozen=True)
class _AbortRecord:
    txn_key: int


@dataclass(frozen=True)
class _CommitRecord:
    txn_key: int
    commit_ts: int
    update_ops: int
    #: Commit number of the latest earlier commit this one conflicts
    #: with (0: none).  Only nonzero under ``parallel_refresh``.
    dep_ts: int = 0
    #: Shard the transaction's write set falls in.  Only meaningful
    #: under ``params.shards``; 0 otherwise.
    shard: int = 0


class _SecondaryModel:
    """State of one secondary site in the simulation."""

    def __init__(self, kernel: Kernel, index: int, server: Server):
        self.index = index
        self.server = server
        self.update_queue = Queue(kernel, name=f"sec{index}-updates")
        self.seq_db = 0
        self.seq_cond = Condition(kernel, name=f"sec{index}-seq")
        self.pending: deque[int] = deque()
        self.pending_cond = Condition(kernel, name=f"sec{index}-pending")
        self.started: set[int] = set()
        #: Shards this secondary subscribes to under partial replication;
        #: ``None`` (classic full replication) applies every commit.  An
        #: unsubscribed commit still advances ``seq(DBsec)`` — only its
        #: apply demand is zero, mirroring the functional system's
        #: per-shard streams (headers are sequenced, bodies filtered).
        self.subscription: frozenset[int] | None = None
        #: Commit numbers whose update service finished but which are not
        #: yet at the pending head (zero-process apply path).
        self.serviced: set[int] = set()
        # -- direct-feed refresh state (classic mode + PS servers) ------
        #: True when propagation batches are applied by direct call
        #: instead of through update_queue + a refresher process.
        self.direct_feed = False
        #: (batch, index) of a start record waiting for pending to drain.
        self.feed_parked: tuple | None = None
        #: Batches queued behind a parked start record.
        self.feed_backlog: deque = deque()
        #: Running peak of len(pending) (mirrors counters.max_pending).
        self.feed_peak = 0
        self.refreshes_applied = 0
        # -- parallel-refresh state (dormant in classic mode) -----------
        self.work: Queue | None = None
        self.applied: set[int] = set()
        self.parked: dict[int, list[_CommitRecord]] = {}
        self.watermark = 0
        self.inflight = 0
        self.out_of_order = 0


@dataclass
class ModelCounters:
    """Non-metric counters exposed for tests and diagnostics."""

    update_commits: int = 0
    update_restarts: int = 0
    records_propagated: int = 0
    propagation_cycles: int = 0
    sessions_started: int = 0
    vacuum_passes: int = 0
    heartbeats_sent: int = 0
    #: Commit records applied with zero demand because the secondary did
    #: not subscribe to their shard (partial replication only).
    sharded_skips: int = 0
    #: Update transactions shed at the door by the admission token
    #: bucket (``admission_rate`` only) — zero demand, zero RNG draws.
    updates_shed: int = 0
    max_pending: dict[int, int] = field(default_factory=dict)


class LazyReplicationModel:
    """One simulation run of the lazy replicated system."""

    def __init__(self, params: SimulationParameters, seed: int | None = None):
        self.params = params
        self.kernel = Kernel()
        self.streams = RandomStreams(seed if seed is not None
                                     else params.seed)
        self.metrics = MetricsCollector(params.warmup,
                                        params.fast_threshold)
        self.tracker = SequenceTracker()
        self.counters = ModelCounters()
        self.primary_server = self._make_server("primary")
        self.secondaries = [
            _SecondaryModel(self.kernel, i, self._make_server(f"sec{i}"))
            for i in range(params.num_sec)
        ]
        self._commit_counter = 0
        self._txn_counter = 0
        # Conflict dependencies are drawn from a dedicated stream, and
        # only when parallel refresh is on, so every other
        # configuration's random sequences stay byte-identical.
        self._conflict_rng = (self.streams.stream("conflicts")
                              if params.parallel_refresh is not None
                              else None)
        # Shard stamps likewise come from a dedicated stream, drawn only
        # when partial replication is on, and each secondary subscribes
        # to a contiguous rotated window of whole shards.
        self._shard_rng = (self.streams.stream("shards")
                           if params.shards is not None else None)
        if params.shards is not None:
            width = max(1, round(params.shards
                                 * params.subscription_fraction))
            for secondary in self.secondaries:
                secondary.subscription = frozenset(
                    (secondary.index + offset) % params.shards
                    for offset in range(width))
        # Admission control at the primary: a purely arithmetic token
        # bucket (no kernel events, no RNG), so every configuration with
        # admission_rate=None is bit-identical to earlier versions.
        self._admission_bucket = (
            TokenBucket(params.admission_rate,
                        max(params.admission_rate, 1.0))
            if params.admission_rate is not None else None)
        self._propagation_buffer: list = []
        self._session_counter = 0
        #: Sampled replication lag (commits behind the primary) across all
        #: secondaries, post-warm-up; sampled every 5 s of virtual time.
        self.lag_stats = SummaryStats()

    # -- construction helpers ------------------------------------------------
    def _make_server(self, name: str) -> Server:
        discipline = self.params.server_discipline
        if discipline == "ps":
            return ProcessorSharingServer(self.kernel, name=name)
        if discipline == "rr":
            return RoundRobinServer(self.kernel, name=name,
                                    time_slice=self.params.time_slice)
        if discipline == "fifo":
            return FifoServer(self.kernel, name=name)
        raise ConfigurationError(f"unknown discipline {discipline!r}")

    def _client_assignment(self) -> list[int]:
        """Secondary index for each client (uniform + round-robin extras)."""
        assignment = []
        for sec in range(self.params.num_sec):
            assignment.extend([sec] * self.params.clients_per_secondary)
        for extra in range(self.params.extra_clients):
            assignment.append(extra % self.params.num_sec)
        return assignment

    # -- execution -------------------------------------------------------------
    def run(self) -> MetricsCollector:
        """Run for ``params.duration`` of virtual time; return metrics."""
        for client_id, sec_index in enumerate(self._client_assignment()):
            rng = self.streams.stream(f"client-{client_id}")
            self.kernel.spawn(
                self._client(client_id, rng, self.secondaries[sec_index]),
                name=f"client-{client_id}", daemon=True)
        self.kernel.spawn(self._propagator(), name="propagator", daemon=True)
        self.kernel.spawn(self._lag_sampler(), name="lag-sampler",
                          daemon=True)
        params = self.params
        classic = (params.parallel_refresh is None
                   and not params.serial_refresh)
        for secondary in self.secondaries:
            if classic and hasattr(secondary.server, "request_call"):
                # Classic refresh on PS servers needs no refresher
                # process: batches are applied by direct call from the
                # propagator (zero-process refresh path).
                secondary.direct_feed = True
            else:
                self.kernel.spawn(self._refresher(secondary),
                                  name=f"refresher-{secondary.index}",
                                  daemon=True)
        if self.params.autovacuum_interval is not None:
            for secondary in self.secondaries:
                self.kernel.spawn(self._autovacuum(secondary),
                                  name=f"autovacuum-{secondary.index}",
                                  daemon=True)
        if self.params.heartbeat_interval is not None:
            for secondary in self.secondaries:
                self.kernel.spawn(self._heartbeat(secondary),
                                  name=f"heartbeat-{secondary.index}",
                                  daemon=True)
        self.kernel.run(until=self.params.duration)
        return self.metrics

    def _autovacuum(self, secondary: _SecondaryModel):
        """Periodic storage-maintenance pass at one secondary server.

        The simulation has no real version store; the daemon models the
        maintenance cost as a fixed service demand each cycle, contending
        with refresh and read work exactly like any other request.
        """
        params = self.params
        while True:
            yield self.kernel.sleep(params.autovacuum_interval)
            if params.autovacuum_cost:
                yield secondary.server.request(params.autovacuum_cost)
            self.counters.vacuum_passes += 1

    def _heartbeat(self, secondary: _SecondaryModel):
        """Failure-detector overhead at one secondary server.

        The performance model has no failures to detect; the daemon
        charges the steady-state cost of the autonomous-failover control
        plane (processing the primary's heartbeat and granting a lease
        each cycle), contending with refresh and read work like any
        other request.
        """
        params = self.params
        while True:
            yield self.kernel.sleep(params.heartbeat_interval)
            if params.heartbeat_cost:
                yield secondary.server.request(params.heartbeat_cost)
            self.counters.heartbeats_sent += 1

    def _lag_sampler(self, interval: float = 5.0):
        """Sample replication lag across secondaries after warm-up."""
        while True:
            yield self.kernel.sleep(interval)
            if self.kernel._now < self.params.warmup:
                continue
            for secondary in self.secondaries:
                self.lag_stats.add(self._commit_counter - secondary.seq_db)

    # -- client process -----------------------------------------------------------
    def _client(self, client_id: int, rng: RandomStream,
                secondary: _SecondaryModel):
        params = self.params
        kernel = self.kernel
        counters = self.counters
        # Draw-identical RNG fast path: exponential(m) == expovariate(1/m)
        # and bernoulli(p) == random() < p, minus two wrapper frames per
        # think-time cycle (this loop runs once per transaction).
        expovariate = rng._rng.expovariate
        rng_random = rng._rng.random
        randint = rng._rng.randint
        inv_session = 1.0 / params.session_time
        inv_think = 1.0 / params.think_time
        update_prob = params.update_tran_prob
        # Read-transaction fast path (reads are ~95% of the paper's main
        # mixes): the body of _read_transaction inlined so each read costs
        # no delegated generator, with every per-read lookup hoisted.
        algorithm = params.algorithm
        freshness_bound = params.freshness_bound
        per_op = params.per_op_requests
        size_min = params.tran_size_min
        size_max = params.tran_size_max
        op_service_time = params.op_service_time
        required_sequence = self.tracker.required_sequence
        record_completion = self.metrics.record_completion
        sec_request = secondary.server.request
        # One reusable Sleep per client: the client is only ever blocked
        # on one think-time sleep at a time, so mutating the delay in
        # place saves an allocation per transaction.
        think_sleep = Sleep(0.0)
        while True:
            self._session_counter += 1
            counters.sessions_started += 1
            label = f"c{client_id}/s{self._session_counter}"
            session_end = kernel._now + expovariate(inv_session)
            while kernel._now < session_end:
                think_sleep.delay = expovariate(inv_think)
                yield think_sleep
                if rng_random() < update_prob:
                    yield from self._update_transaction(rng, label)
                    continue
                submitted = kernel._now
                required = required_sequence(algorithm, label)
                if freshness_bound is not None:
                    # Extension: bounded staleness — the read must see a
                    # state at most freshness_bound commits behind.
                    bound = self._commit_counter - freshness_bound
                    if bound > required:
                        required = bound
                if required > secondary.seq_db:
                    req = required
                    yield secondary.seq_cond.wait_for(
                        lambda: secondary.seq_db >= req)
                    self.metrics.record_block(
                        "read", kernel._now - submitted, kernel._now)
                n_ops = randint(size_min, size_max)
                if per_op:
                    yield from self._service(secondary.server, rng, n_ops)
                else:
                    yield sec_request(n_ops * op_service_time)
                record_completion("read", submitted, kernel._now)
            # Session labels are never reused, so drop the retired label's
            # tracker entry — keeps tracker memory bounded by *live*
            # sessions on long (e.g. `large`-scale) runs.
            self.tracker.forget(label)

    def _service(self, server: Server, rng: RandomStream, n_ops: int):
        """Consume n_ops of service, per-op or aggregated (equivalent
        under PS; the per-op mode exists for the fidelity ablation)."""
        op_time = self.params.op_service_time
        if self.params.per_op_requests:
            for _ in range(n_ops):
                yield server.request(op_time)
        else:
            yield server.request(n_ops * op_time)

    # -- update transactions (primary) -----------------------------------------------
    def _update_transaction(self, rng: RandomStream, label: str):
        params = self.params
        bucket = self._admission_bucket
        if bucket is not None \
                and not bucket.try_acquire(self.kernel._now):
            # Shed at the door: no service demand reaches the primary
            # and — crucially — no RNG draw happens, so the admitted
            # traffic's random sequences match the unthrottled model's.
            self.counters.updates_shed += 1
            return
        submitted = self.kernel._now
        n_ops = rng.randint(params.tran_size_min, params.tran_size_max)
        update_ops = sum(1 for _ in range(n_ops)
                         if rng.bernoulli(params.update_op_prob))
        while True:
            txn_key = self._txn_counter
            self._txn_counter += 1
            # start_p(T) enters the log as soon as T starts.
            self._propagate(_StartRecord(txn_key))
            # Common path of _service() inlined: one awaitable instead of
            # a delegated generator per transaction.
            if params.per_op_requests:
                yield from self._service(self.primary_server, rng, n_ops)
            else:
                yield self.primary_server.request(
                    n_ops * params.op_service_time)
            if rng.bernoulli(params.abort_prob):
                # First-committer-wins loser: abort and restart to keep
                # the offered load at the primary (Section 5).
                self.metrics.record_abort(self.kernel._now)
                self.counters.update_restarts += 1
                self._propagate(_AbortRecord(txn_key))
                continue
            break
        self._commit_counter += 1
        commit_ts = self._commit_counter
        self.counters.update_commits += 1
        dep_ts = 0
        if self._conflict_rng is not None and commit_ts > 1 \
                and self._conflict_rng.bernoulli(params.conflict_prob):
            # Conflict with a recent earlier commit (the paper's hotspot
            # analogue): the refresh scheduler must order the pair.
            dep_ts = self._conflict_rng.randint(
                max(1, commit_ts - 8), commit_ts - 1)
        shard = 0
        if self._shard_rng is not None:
            shard = self._shard_rng.randint(0, params.shards - 1)
        self._propagate(_CommitRecord(txn_key, commit_ts, update_ops,
                                      dep_ts, shard))
        self.tracker.on_primary_commit(label, commit_ts)
        self.metrics.record_completion("update", submitted, self.kernel._now)

    # -- propagation (Algorithm 3.1, batched on a 10 s cycle) ----------------------------
    def _propagate(self, record) -> None:
        self._propagation_buffer.append(record)

    def _propagator(self):
        while True:
            yield self.kernel.sleep(self.params.propagation_delay)
            if not self._propagation_buffer:
                self.counters.propagation_cycles += 1
                continue
            batch, self._propagation_buffer = self._propagation_buffer, []
            self.counters.propagation_cycles += 1
            self.counters.records_propagated += len(batch)
            # One queue item per cycle per secondary (the PropagatedBatch
            # frame of the functional system): a cycle's worth of records
            # costs one wakeup instead of one per record.  The refresher
            # iterates the shared list without mutating it.  Direct-feed
            # secondaries skip even that wakeup: the batch is applied by
            # synchronous call at the same instant.
            for secondary in self.secondaries:
                if secondary.direct_feed:
                    self._feed_batch(secondary, batch)
                else:
                    secondary.update_queue.put(batch)

    # -- refresh (Algorithms 3.2/3.3) ------------------------------------------------------
    def _feed_batch(self, secondary: _SecondaryModel, batch: list) -> None:
        """Direct-feed refresh entry point (classic mode, PS servers).

        Processes the batch inline unless a start record is parked
        waiting for the pending queue to drain (Relationship 2), in
        which case the batch queues behind it — exactly the order the
        refresher process would impose.
        """
        if secondary.feed_parked is not None or secondary.feed_backlog:
            secondary.feed_backlog.append(batch)
            return
        self._drain_records(secondary, batch, 0)

    def _drain_records(self, secondary: _SecondaryModel,
                       batch: list, idx: int) -> None:
        """Apply records until done or a start record must wait.

        The state machine twin of the classic refresher loop: start
        records wait for an empty pending queue (here: park the cursor;
        :meth:`_apply_commit` resumes it), aborts retire their start
        entry, commits join pending and go straight to the secondary
        server as zero-process completion callbacks.
        """
        pending = secondary.pending
        started = secondary.started
        subscription = secondary.subscription
        op_service_time = self.params.op_service_time
        request_call = secondary.server.request_call
        apply_commit = self._apply_commit
        max_pending = self.counters.max_pending
        peak = secondary.feed_peak
        backlog = secondary.feed_backlog
        while True:
            n = len(batch)
            while idx < n:
                record = batch[idx]
                cls = record.__class__
                if cls is _CommitRecord:
                    started.discard(record.txn_key)
                    ts = record.commit_ts
                    pending.append(ts)
                    if len(pending) > peak:
                        peak = len(pending)
                        secondary.feed_peak = peak
                        max_pending[secondary.index] = peak
                    demand = record.update_ops * op_service_time
                    if subscription is not None \
                            and record.shard not in subscription:
                        demand = 0.0
                        self.counters.sharded_skips += 1
                    if demand:
                        request_call(demand, apply_commit, secondary, ts)
                    else:
                        apply_commit(secondary, ts)
                elif cls is _StartRecord:
                    if pending:
                        # Relationship 2: park until pending drains; the
                        # started.add happens on resume.
                        secondary.feed_parked = (batch, idx)
                        return
                    started.add(record.txn_key)
                else:
                    started.discard(record.txn_key)
                idx += 1
            if not backlog:
                return
            batch = backlog.popleft()
            idx = 0

    def _refresher(self, secondary: _SecondaryModel):
        # Hot path: locals and a constant spawn name (profiling shows the
        # per-commit f-string and attribute walks add up at scale).
        params = self.params
        parallel = params.parallel_refresh
        serial = params.serial_refresh
        spawn = self.kernel.spawn
        pending = secondary.pending
        started = secondary.started
        max_pending = self.counters.max_pending
        applicator_name = f"applicator-{secondary.index}"
        if parallel is not None:
            secondary.work = Queue(self.kernel,
                                   name=f"sec{secondary.index}-work")
            for i in range(parallel):
                spawn(self._parallel_worker(secondary),
                      name=f"{applicator_name}:{i}", daemon=True)
        sec_index = secondary.index
        peak = max_pending.get(sec_index, 0)
        while True:
            batch = yield secondary.update_queue.get()
            for record in batch:
                # Exact-type dispatch: the record types are final and
                # isinstance() was measurable at one call per record per
                # secondary.
                cls = record.__class__
                if cls is _StartRecord:
                    # Relationship 2 is enforced by FIFO commit ordering;
                    # under parallel refresh the conflict scheduler
                    # provides it instead, so start records never block.
                    if parallel is None and pending:
                        yield secondary.pending_cond.wait_for(
                            lambda: not pending)
                    started.add(record.txn_key)
                elif cls is _AbortRecord:
                    started.discard(record.txn_key)
                elif parallel is not None:
                    started.discard(record.txn_key)
                    secondary.inflight += 1
                    if secondary.inflight > peak:
                        peak = max_pending[sec_index] = secondary.inflight
                    dep = record.dep_ts
                    if dep > secondary.watermark \
                            and dep not in secondary.applied:
                        secondary.parked.setdefault(dep, []).append(record)
                    else:
                        secondary.work.put(record)
                else:
                    started.discard(record.txn_key)
                    pending.append(record.commit_ts)
                    if len(pending) > peak:
                        peak = max_pending[sec_index] = len(pending)
                    applicator = spawn(
                        self._applicator(secondary, record),
                        name=applicator_name, daemon=True, eager=True)
                    if serial:
                        # Ablation: naive log-sequence replay — apply
                        # each transaction to completion before the next.
                        yield applicator.join()

    def _apply_commit(self, secondary: _SecondaryModel,
                      commit_ts: int) -> None:
        """Completion callback of the zero-process apply path.

        Commits strictly in pending (= primary commit) order, exactly
        like the per-record applicator process: a record whose service
        finishes out of order parks in ``serviced`` until the head
        catches up, then the whole contiguous run commits in one go.
        """
        pending = secondary.pending
        if pending[0] != commit_ts:
            secondary.serviced.add(commit_ts)
            return
        serviced = secondary.serviced
        seq = secondary.seq_db
        applied = 0
        ts = commit_ts
        while True:
            pending.popleft()
            applied += 1
            if ts > seq:
                seq = ts
            if not pending:
                break
            ts = pending[0]
            if ts not in serviced:
                break
            serviced.remove(ts)
        secondary.seq_db = seq
        secondary.refreshes_applied += applied
        if not pending:
            parked = secondary.feed_parked
            if parked is not None:
                # A start record was waiting for this drain: admit it and
                # continue its batch (direct-feed twin of the refresher
                # waking from pending_cond).
                secondary.feed_parked = None
                batch, idx = parked
                secondary.started.add(batch[idx].txn_key)
                self._drain_records(secondary, batch, idx + 1)
            secondary.pending_cond.notify_all()
        secondary.seq_cond.notify_all()

    def _applicator(self, secondary: _SecondaryModel,
                    record: _CommitRecord):
        subscription = secondary.subscription
        if subscription is not None and record.shard not in subscription:
            self.counters.sharded_skips += 1
        elif record.update_ops:
            yield secondary.server.request(
                record.update_ops * self.params.op_service_time)
        # Skip the condition round-trip when already at the head: the
        # immediate-resume event the wait would schedule is pure overhead.
        if not (secondary.pending
                and secondary.pending[0] == record.commit_ts):
            yield secondary.pending_cond.wait_for(
                lambda: (secondary.pending
                         and secondary.pending[0] == record.commit_ts))
        # Commit R, then advance seq(DBsec) before dequeuing (Section 4).
        if record.commit_ts > secondary.seq_db:
            secondary.seq_db = record.commit_ts
        secondary.pending.popleft()
        secondary.refreshes_applied += 1
        secondary.pending_cond.notify_all()
        secondary.seq_cond.notify_all()

    def _parallel_worker(self, secondary: _SecondaryModel):
        """Dependency-tracked applicator: applies any runnable commit
        (conflicting predecessor already applied) out of primary order;
        ``seq(DBsec)`` advances only at the contiguous watermark so
        readers still observe primary states in order."""
        params = self.params
        subscription = secondary.subscription
        while True:
            record = yield secondary.work.get()
            if subscription is not None \
                    and record.shard not in subscription:
                self.counters.sharded_skips += 1
            elif record.update_ops:
                yield secondary.server.request(
                    record.update_ops * params.op_service_time)
            ts = record.commit_ts
            applied = secondary.applied
            applied.add(ts)
            secondary.inflight -= 1
            secondary.refreshes_applied += 1
            if ts != secondary.watermark + 1:
                secondary.out_of_order += 1
            watermark = secondary.watermark
            while watermark + 1 in applied:
                watermark += 1
                applied.remove(watermark)
            if watermark != secondary.watermark:
                secondary.watermark = watermark
                if watermark > secondary.seq_db:
                    secondary.seq_db = watermark
                    secondary.seq_cond.notify_all()
            for parked in secondary.parked.pop(ts, ()):
                secondary.work.put(parked)

    # -- diagnostics -----------------------------------------------------------------------
    def primary_utilization(self) -> float:
        return self.primary_server.utilization(self.params.duration)

    def secondary_utilization(self) -> float:
        """Mean utilisation across secondary servers."""
        if not self.secondaries:
            return 0.0
        return sum(s.server.utilization(self.params.duration)
                   for s in self.secondaries) / len(self.secondaries)

    def replication_lag(self) -> int:
        """Commits not yet applied at the most-lagged secondary."""
        return max(self._commit_counter - s.seq_db
                   for s in self.secondaries)
