"""The discrete-event model of Section 5, as one event graph.

Clients and refresh are not kernel processes: each is a chain of plain
callbacks, and every arrow in a chain is one of three kinds.

*Timers* (``kernel._schedule(later, fn)``): a client's exponential
**think time**, after which :meth:`_Client.submit` draws the workload
mix and sends an update transaction to the primary or a read-only
transaction to the client's secondary.

*Server completions* (``server.request_call(demand, fn)``: ``fn`` runs
inside the server's completion event, before the server re-arms):

* a **read-only transaction** finishing at its secondary: record the
  response time, think again;
* an **update transaction** finishing at the primary — strong SI with
  first-committer-wins modelled as the paper does: the transaction
  consumes its demand at the primary's shared server and then aborts
  with probability ``abort_prob``, restarting so the offered load is
  maintained; otherwise its commit record enters the log;
* a **refresh transaction** finishing at a secondary.  Each secondary
  is a :class:`~repro.core.refresh.ApplySchedule`, the functional
  refresher's own discipline: start records wait until the pending
  queue is empty, updates are applied by applicators that consume
  secondary server capacity, commits become visible in primary commit
  order, and each visible commit advances ``seq(DBsec)``.  The records
  a waiting start record held back are admitted inside the completion,
  so the server's re-arm sees them.

*Ready-deque hops* (``kernel._schedule(now, fn)``: same instant, behind
every event already queued), where a request is a new arrival *after*
the departure and the server must first re-arm over the jobs that
remain: an **aborted update's retry**, each next operation under
``per_op_requests``, every applicator started under
``serial_refresh``'s single slot, and a **blocked read's
release** — a read-only transaction captures its required sequence
number at submission (``0`` for ALG-WEAK-SI, ``seq(c)`` for
ALG-STRONG-SESSION-SI, the global sequence for ALG-STRONG-SI) and waits
on its secondary until ``seq(DBsec)`` reaches it.  Admitting inside the
completion instead describes the same system but advances the
processor-sharing clock at other instants, and one completion time
1 ulp off ends as a different completion count
(``tests/simmodel/golden_modes.json`` pins every mode's results;
``docs/architecture.md``, "The simulator's event graph").

Two slow periodic actors stay kernel processes: the **propagator**
(accumulates start/commit/abort records and feeds them to every
secondary each ``propagation_delay`` cycle — a log sniffer: it uses no
concurrency control and no modelled network resource) and the lag
sampler.

Read-only transactions are never blocked by refresh transactions at the
server level other than through server sharing, mirroring "read-only
transactions ... access committed snapshots of data and do not contend
with refresh transactions" (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Union

from repro.core.refresh import ApplySchedule
from repro.core.sessions import SequenceTracker
from repro.errors import ConfigurationError
from repro.kernel import Kernel
from repro.sim.rng import RandomStreams
from repro.sim.resources import (
    FifoServer,
    ProcessorSharingServer,
    RoundRobinServer,
)
from repro.sim.stats import MetricsCollector, SummaryStats
from repro.simmodel.params import SimulationParameters

Server = Union[ProcessorSharingServer, RoundRobinServer, FifoServer]


class _StartRecord:
    """``start_p(T)``: the model reads nothing from it but its type."""


class _AbortRecord:
    """``abort_p(T)``: the model reads nothing from it but its type."""


_START = _StartRecord()
_ABORT = _AbortRecord()


@dataclass(frozen=True)
class _CommitRecord:
    commit_ts: int
    #: Apply service demand at every secondary.
    demand: float


class _SecondaryModel(ApplySchedule):
    """One secondary site in the simulation: an apply schedule whose
    jobs are commit records, fed from a cursor."""

    def __init__(self, index: int, server: Server, slots: int | None):
        super().__init__(slots, True)
        self.index = index
        self.server = server
        self.seq_db = 0
        #: Blocked read-only transactions, ``(required, client)`` in
        #: arrival order; scanned whenever ``seq(DBsec)`` advances.
        self.waiters: list[tuple[int, _Client]] = []
        #: ``(batch, index)`` of the record the feed stopped in front of.
        self.cursor: tuple | None = None
        #: Batches queued behind a stopped feed.
        self.backlog: deque = deque()


class _Client:
    """One client: the state its callbacks carry from event to event.

    Bound to one secondary; runs sessions of exponential length, thinks
    exponentially between transactions, and draws everything from its
    own random stream, in the order the transaction's steps happen.
    """

    __slots__ = ("model", "kernel", "secondary", "client_id", "expovariate",
                 "random", "randint", "label", "session_end", "submitted",
                 "n_ops", "update_ops")

    def __init__(self, model: "LazyReplicationModel", client_id: int,
                 secondary: _SecondaryModel):
        self.model = model
        self.kernel = model.kernel
        self.secondary = secondary
        self.client_id = client_id
        # Draw-identical RNG fast path: exponential(m) == expovariate(1/m)
        # and bernoulli(p) == random() < p, minus two wrapper frames per
        # think-time cycle.
        rng = model.streams.stream(f"client-{client_id}")._rng
        self.expovariate = rng.expovariate
        self.random = rng.random
        self.randint = rng.randint
        self.label: str | None = None
        self.session_end = 0.0

    def next_txn(self) -> None:
        """Think, then submit; open a new session first if this one is
        over (or none is open yet)."""
        model = self.model
        params = model.params
        now = self.kernel._now
        while now >= self.session_end:
            if self.label is not None:
                # Session labels are never reused, so drop the retired
                # label's tracker entry — keeps tracker memory bounded by
                # *live* sessions on long (e.g. `large`-scale) runs.
                model.tracker.forget(self.label)
            model._session_counter += 1
            model.counters.sessions_started += 1
            self.label = f"c{self.client_id}/s{model._session_counter}"
            self.session_end = now + self.expovariate(
                1.0 / params.session_time)
        self.kernel._schedule(
            now + self.expovariate(1.0 / params.think_time), self.submit)

    def submit(self) -> None:
        model = self.model
        params = model.params
        now = self.kernel._now
        if self.random() >= params.update_tran_prob:
            self.submitted = now
            required = model.tracker.required_sequence(params.algorithm,
                                                       self.label)
            if params.freshness_bound is not None:
                # Extension: bounded staleness — the read must see a
                # state at most freshness_bound commits behind.
                bound = model._commit_counter - params.freshness_bound
                if bound > required:
                    required = bound
            if required > self.secondary.seq_db:
                self.secondary.waiters.append((required, self))
            else:
                self.read()
            return
        self.submitted = now
        self.n_ops = self.randint(params.tran_size_min, params.tran_size_max)
        rng_random = self.random
        update_op_prob = params.update_op_prob
        self.update_ops = sum(1 for _ in range(self.n_ops)
                              if rng_random() < update_op_prob)
        self.attempt()

    def read(self) -> None:
        params = self.model.params
        server = self.secondary.server
        n_ops = self.randint(params.tran_size_min, params.tran_size_max)
        if params.per_op_requests:
            self.request_op(server, n_ops, self.read_done)
        else:
            server.request_call(n_ops * params.op_service_time,
                                self.read_done)

    def read_done(self) -> None:
        self.model.metrics.record_completion("read", self.submitted,
                                             self.kernel._now)
        self.next_txn()

    def attempt(self) -> None:
        """Start (or, after an abort, restart) the update transaction."""
        model = self.model
        params = model.params
        # start_p(T) enters the log as soon as T starts.
        model._propagation_buffer.append(_START)
        if params.per_op_requests:
            self.request_op(model.primary_server, self.n_ops, self.served)
        else:
            model.primary_server.request_call(
                self.n_ops * params.op_service_time, self.served)

    def served(self) -> None:
        model = self.model
        params = model.params
        kernel = self.kernel
        if self.random() < params.abort_prob:
            # First-committer-wins loser: abort and restart to keep
            # the offered load at the primary (Section 5).  The restart
            # is a new arrival: through the ready deque.
            model.metrics.record_abort(kernel._now)
            model.counters.update_restarts += 1
            model._propagation_buffer.append(_ABORT)
            kernel._schedule(kernel._now, self.attempt)
            return
        model._commit_counter += 1
        commit_ts = model._commit_counter
        model.counters.update_commits += 1
        model._propagation_buffer.append(_CommitRecord(
            commit_ts, self.update_ops * params.op_service_time))
        model.tracker.on_primary_commit(self.label, commit_ts)
        model.metrics.record_completion("update", self.submitted,
                                        kernel._now)
        self.next_txn()

    # -- one server request per operation (fidelity ablation) --------------
    def request_op(self, server: Server, left: int, done) -> None:
        # Equivalent to one aggregated request under PS; each next
        # operation is a new arrival, through the ready deque.
        server.request_call(self.model.params.op_service_time,
                            self.op_done, server, left - 1, done)

    def op_done(self, server: Server, left: int, done) -> None:
        if left:
            self.kernel._schedule(self.kernel._now, self.request_op,
                                  server, left, done)
        else:
            done()


@dataclass
class ModelCounters:
    """Non-metric counters exposed for tests and diagnostics."""

    update_commits: int = 0
    update_restarts: int = 0
    records_propagated: int = 0
    propagation_cycles: int = 0
    sessions_started: int = 0
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
        slots = 1 if params.serial_refresh else None
        self.secondaries = [
            _SecondaryModel(i, self._make_server(f"sec{i}"), slots)
            for i in range(params.num_sec)
        ]
        self._commit_counter = 0
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
            _Client(self, client_id, self.secondaries[sec_index]).next_txn()
        self.kernel.spawn(self._propagator(), name="propagator", daemon=True)
        self.kernel.spawn(self._lag_sampler(), name="lag-sampler",
                          daemon=True)
        self.kernel.run(until=self.params.duration)
        self.counters.max_pending = {s.index: s.peak_pending
                                     for s in self.secondaries
                                     if s.peak_pending}
        return self.metrics

    def _lag_sampler(self, interval: float = 5.0):
        """Sample replication lag across secondaries after warm-up."""
        while True:
            yield self.kernel.sleep(interval)
            if self.kernel._now < self.params.warmup:
                continue
            for secondary in self.secondaries:
                self.lag_stats.add(self._commit_counter - secondary.seq_db)

    # -- propagation (Algorithm 3.1, batched on a 10 s cycle) ----------------------------
    def _propagator(self):
        while True:
            yield self.kernel.sleep(self.params.propagation_delay)
            self.counters.propagation_cycles += 1
            if not self._propagation_buffer:
                continue
            batch, self._propagation_buffer = self._propagation_buffer, []
            self.counters.records_propagated += len(batch)
            # One shared list per cycle (the PropagatedBatch frame of the
            # functional system), fed to every secondary by synchronous
            # call at the same instant; nobody mutates it.
            for secondary in self.secondaries:
                self._feed_batch(secondary, batch)

    # -- refresh (Algorithms 3.2/3.3 on the shared ApplySchedule) --------------------------
    def _feed_batch(self, secondary: _SecondaryModel, batch: list) -> None:
        """Hand one propagation cycle's records to a secondary: processed
        at once unless the feed is stopped in front of a record, in which
        case the batch queues behind it."""
        if secondary.cursor is not None or secondary.backlog:
            secondary.backlog.append(batch)
        else:
            self._drain_records(secondary, batch, 0)

    def _drain_records(self, secondary: _SecondaryModel,
                       batch: list, idx: int) -> None:
        """Process records until done or the feed must stop.

        A start record waits for an empty pending queue (the cursor
        stops in front of it; :meth:`_applied` resumes it); every commit
        is admitted to the schedule and starts at once if it may; aborts
        need nothing.
        """
        pending = secondary.pending
        admit = secondary.admit
        start = self._start_apply
        backlog = secondary.backlog
        while True:
            n = len(batch)
            while idx < n:
                record = batch[idx]
                idx += 1
                # Exact-type dispatch: the record types are final and
                # isinstance() was measurable at one call per record per
                # secondary.
                cls = record.__class__
                if cls is _CommitRecord:
                    if admit(record.commit_ts, record) is not None:
                        start(secondary, record)
                elif cls is _StartRecord and pending:
                    # Relationship 2: wait until pending drains.
                    secondary.cursor = (batch, idx - 1)
                    return
            if not backlog:
                return
            batch = backlog.popleft()
            idx = 0

    def _start_apply(self, secondary: _SecondaryModel,
                     record: _CommitRecord) -> None:
        """Charge one commit's apply demand to the secondary server: at
        once with a slot per commit, else as a new arrival through the
        ready deque."""
        if secondary.slots is None:
            secondary.server.request_call(record.demand, self._applied,
                                          secondary, record.commit_ts)
        else:
            self.kernel._schedule(
                self.kernel._now, secondary.server.request_call,
                record.demand, self._applied, secondary, record.commit_ts)

    def _applied(self, secondary: _SecondaryModel, commit_ts: int) -> None:
        """A refresh transaction's updates have been applied."""
        seq = secondary.finish(commit_ts)
        # With a slot per commit, the records a start record held back
        # are admitted inside this completion (the server's re-arm sees
        # them), before the readers it released.  Under serial refresh's
        # one slot every apply is a new arrival behind those readers.
        readers_first = secondary.slots is not None
        if seq:
            secondary.seq_db = seq
            if readers_first and secondary.waiters:
                self._release_readers(secondary)
        if readers_first:
            take = secondary.take
            while (record := take()) is not None:
                self._start_apply(secondary, record)
        cursor = secondary.cursor
        if cursor is not None and not secondary.pending:
            secondary.cursor = None
            self._drain_records(secondary, cursor[0], cursor[1])
        if seq and not readers_first and secondary.waiters:
            self._release_readers(secondary)

    def _release_readers(self, secondary: _SecondaryModel) -> None:
        """Release, in arrival order and through the ready deque, every
        blocked read ``seq(DBsec)`` has caught up with."""
        waiters = secondary.waiters
        seq = secondary.seq_db
        kernel = self.kernel
        now = kernel._now
        record_block = self.metrics.record_block
        still_waiting = []
        for waiter in waiters:
            if waiter[0] <= seq:
                client = waiter[1]
                record_block("read", now - client.submitted, now)
                kernel._schedule(now, client.read)
            else:
                still_waiting.append(waiter)
        secondary.waiters = still_waiting

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
