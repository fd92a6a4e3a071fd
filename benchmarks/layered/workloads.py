"""The four workloads: seeded op streams, drivers and output checks.

Each workload generates its whole op stream from ``--seed`` with stdlib
``random.Random`` before anything is timed (the program under test only
ever sees the generated inputs), then offers the runner three timed
steps per repetition — :meth:`setup`, :meth:`drive`, :meth:`check` — and
an untimed :meth:`outcome` that reads virtual-time results and counters
off the finished system.  Transaction bodies are copies of the ones in
``repro.workload`` so that editing that package cannot move the numbers.

Drivers are serial (one op at a time, ``system.run(until=due)`` between
ops) but every virtual latency is taken from the op's *due* time, so a
stall charges the ops queued behind it.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

from hostcal import Stopwatch
from repro import Guarantee, ReplicatedSystem, ShardingConfig, shard_of
from repro.core.failover import FailoverConfig
from repro.core.monitoring import aggregate_sessions, system_status
from repro.core.promotion import PromotionConfig
from repro.errors import LostUpdatesError, ReproError
from repro.faults.channel import ChannelFaults
from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan
from repro.simmodel import LazyReplicationModel, SimulationParameters
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.history import HistoryRecorder

#: The paper's response-time threshold (Section 6.1): a transaction
#: counts towards throughput when it finishes within 3 s.
FAST_S = 3.0

CHECKERS = (
    ("completeness_s", check_completeness),
    ("weak_si_s", check_weak_si),
    ("strong_session_si_s", check_strong_session_si),
)


class CheckFailed(Exception):
    """A repetition's outputs were wrong; the run is void."""


def percentile(values: list, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    if low + 1 >= len(ordered):
        return float(ordered[-1])
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[low + 1] * frac


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sha256_of(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: Ops between two laps of a driver's stopwatch.
LAP_OPS = 100


@dataclass
class Run:
    """What one repetition leaves behind for check() and outcome()."""

    system: Any = None
    #: Virtual time when setup ended (op due times count from here) and
    #: when the drive, quiesce included, ended.
    epoch: float = 0.0
    finished: float = 0.0
    sessions: list = field(default_factory=list)
    #: First-era primary and propagator: a promotion replaces both, and
    #: the counters of the replaced ones still belong to the run.
    first_primary: Any = None
    first_propagator: Any = None
    read_latency: list = field(default_factory=list)
    update_latency: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    max_lateness: float = 0.0
    scans: int = 0
    scan_rows: int = 0
    lost_sessions: int = 0
    failover_s: float = 0.0
    models: dict = field(default_factory=dict)      # sim-figures


@dataclass
class Outcome:
    """Results of one repetition that must repeat exactly per seed."""

    #: Client transactions (simulated completions for sim-figures): the
    #: denominator of every per-txn number.
    attempted: int
    failed: int
    #: Every exact metric, end-to-end (``vt_*``) and per-layer alike.
    exact: dict
    digest: str


class Workload:
    """Common shape; subclasses fill in generate/setup/drive/check."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.ops = self.generate(random.Random(f"{self.name}:{seed}"))
        self.load_digest = sha256_of(self.ops)

    def generate(self, rng: random.Random) -> list:
        raise NotImplementedError

    def setup(self) -> Run:
        raise NotImplementedError

    def drive(self, run: Run, watch: Stopwatch) -> None:
        raise NotImplementedError

    def check(self, run: Run, watch: Stopwatch) -> None:
        """Verify the outputs or raise :class:`CheckFailed`."""
        raise NotImplementedError

    def outcome(self, run: Run) -> Outcome:
        raise NotImplementedError

    def scaled(self, count: int) -> int:
        return max(1, round(count * self.scale))


# ---------------------------------------------------------------------------
# Functional-system workloads
# ---------------------------------------------------------------------------

def advance(run: Run, due: float) -> float:
    """Bring the system to an op's due time (returned as a kernel time);
    note how late the driver is."""
    kernel = run.system.kernel
    due += run.epoch
    if due > kernel.now:
        run.system.run(until=due)
    else:
        late = kernel.now - due
        if late > run.max_lateness:
            run.max_lateness = late
    return due


def converged(system: ReplicatedSystem) -> bool:
    """Every replica still following the feed equals the primary state,
    projected onto its subscription when sharded."""
    primary_state = system.primary_state()
    sharding = system.sharding
    for index, secondary in enumerate(system.secondaries):
        if secondary.retired:       # promoted: it *is* the primary now
            continue
        expected = primary_state
        if sharding is not None:
            expected = {key: value for key, value in primary_state.items()
                        if shard_of(key, sharding.shards)
                        in secondary.subscription}
        if not secondary.live or system.secondary_state(index) != expected:
            return False
    return True


def run_checkers(recorder: HistoryRecorder, watch: Stopwatch) -> None:
    """The three SI checkers, each on a fresh recorder over the run's
    events so none inherits another's cached transaction views."""
    for name, checker in CHECKERS:
        fresh = HistoryRecorder(detail=recorder.detail)
        fresh.events = recorder.events
        result = checker(fresh)
        watch.lap(name)
        if not result.ok:
            raise CheckFailed(result.summary())


def replication_lags(recorder: HistoryRecorder) -> list:
    """Primary commit -> refresh commit, per secondary, in virtual s.

    Joined on ``commit_ts`` walking the events in order, so after a
    promotion a refresh commit pairs with the newest primary commit that
    carried its timestamp (truncated commits share numbers with the new
    era's).
    """
    committed_at: dict[int, float] = {}
    lags = []
    for event in recorder.events:
        if event.kind != "commit" or event.commit_ts is None:
            continue
        if event.refresh_of is None:
            committed_at[event.commit_ts] = event.time
        else:
            lags.append(event.time - committed_at[event.commit_ts])
    return lags


class FunctionalWorkload(Workload):
    """Shared check/outcome for workloads on a ``ReplicatedSystem``."""

    #: Virtual seconds the op stream spans.
    horizon = 0.0

    def begin(self, system: ReplicatedSystem) -> Run:
        return Run(system=system, epoch=system.kernel.now,
                   first_primary=system.primary,
                   first_propagator=system.propagator)

    def check(self, run: Run, watch: Stopwatch) -> None:
        system = run.system
        if not converged(system):
            raise CheckFailed(f"{self.name}: replicas did not converge")
        watch.lap()
        if system.recorder.detail == "ops":
            run_checkers(system.recorder, watch)

    def outcome(self, run: Run) -> Outcome:
        system = run.system
        latencies = run.read_latency + run.update_latency
        lags = replication_lags(system.recorder)
        exact = {
            "vt_goodput_tps":
                sum(1 for value in latencies if value <= FAST_S)
                / (run.finished - run.epoch),
            "vt_lag_mean_s": ratio(sum(lags), len(lags)),
            "core.sessions.vt_read_p50_s": percentile(run.read_latency, 50),
            "core.sessions.vt_read_p99_s": percentile(run.read_latency, 99),
            "core.sessions.vt_update_p99_s":
                percentile(run.update_latency, 99),
            "core.refresh.vt_lag_p50_s": percentile(lags, 50),
            "core.refresh.vt_lag_p99_s": percentile(lags, 99),
            "core.failover.vt_failover_s": run.failover_s,
            "core.failover.lost_sessions": run.lost_sessions,
            "driver.failed_frac": ratio(run.failed, run.attempted),
            "driver.max_lateness_s": run.max_lateness,
            "storage.engine.scan_rows_per_call":
                ratio(run.scan_rows, run.scans),
        }
        exact.update(self.counters(run, run.attempted))
        state = sorted(system.primary_state().items())
        digest = sha256_of((state, run.attempted, run.failed,
                            sorted((k, v) for k, v in exact.items()
                                   if "vt_" in k)))
        return Outcome(attempted=run.attempted, failed=run.failed,
                       exact=exact, digest=digest)

    def counters(self, run: Run, txns: int) -> dict:
        """Per-layer counts read off the finished system."""
        system = run.system
        status = system_status(system)
        clients = aggregate_sessions(run.sessions)
        commits = clients.updates
        primaries = {id(p): p for p in (run.first_primary, system.primary)}
        propagators = {id(p): p for p in (run.first_propagator,
                                          system.propagator)}
        log_records = sum(len(p.log) for p in primaries.values())
        records_sent = sum(p.records_sent for p in propagators.values())
        batches_sent = sum(p.batches_sent for p in propagators.values())
        records_logged = sum(p.records_logged for p in propagators.values())
        # What travels on a link: one frame per batch, else per record.
        frames_sent = batches_sent or records_sent
        sites = status.secondaries
        applied = sum(site.refreshes_applied for site in sites)
        retransmissions = sum(site.retransmissions for site in sites)
        recorder = system.recorder
        live_keys = len(system.primary_state())
        return {
            "kernel.events_per_txn":
                ratio(status.kernel_events_dispatched, txns),
            "kernel.peak_queue_depth": status.kernel_peak_queue_depth,
            "kernel.same_instant_ratio": status.kernel_same_instant_ratio,
            "storage.engine.versions_per_key":
                ratio(status.primary.stored_versions, live_keys),
            "storage.wal.records_per_commit": ratio(log_records, commits),
            "txn.history.events_per_txn": ratio(len(recorder), txns),
            "txn.history.bytes_per_txn": ratio(recorder.nbytes(), txns),
            "core.propagation.records_sent_per_commit":
                ratio(records_sent, commits),
            "core.propagation.batches_sent_per_commit":
                ratio(batches_sent, commits),
            "core.propagation.retransmit_frac":
                ratio(retransmissions, retransmissions + frames_sent),
            "core.refresh.applied_per_commit": ratio(applied, commits),
            "core.refresh.out_of_order_frac":
                ratio(sum(site.out_of_order_commits for site in sites),
                      applied),
            "core.sessions.blocked_read_frac": clients.blocked_fraction,
            "core.sessions.read_wait_mean_s":
                clients.mean_wait_per_blocked_read,
            # Records that travelled (replays included) over what
            # shipping every logged record to every secondary would take.
            "core.sharding.link_volume_frac":
                ratio(records_sent,
                      records_logged * len(system.secondaries)),
            "core.sharding.routing_miss_frac":
                ratio(clients.shard_routing_misses, clients.reads),
            "core.failover.suspicions": status.suspicions,
            "core.failover.false_suspicions": status.false_suspicions,
            "core.failover.promotions": status.promotions,
            "core.failover.zombie_records_fenced":
                status.zombie_records_fenced,
            "faults.channel_drops":
                sum(site.channel_dropped for site in sites),
            "faults.duplicates_filtered":
                sum(site.duplicates_filtered for site in sites),
        }


def zipf_cdf(n: int, s: float) -> list:
    total = 0.0
    cdf = []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** s
        cdf.append(total)
    return [value / total for value in cdf]


def diurnal_time(u: float, horizon: float) -> float:
    """Inverse CDF of the rate ``1 - cos(2*pi*t/horizon)`` (overnight
    trough, midday peak), by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if mid - math.sin(2.0 * math.pi * mid) / (2.0 * math.pi) < u:
            lo = mid
        else:
            hi = mid
    return lo * horizon


class ReadScan(FunctionalWorkload):
    """The ``large`` preset's shape, frozen: a read-mostly bookstore."""

    name = "read-scan"
    SESSIONS = 4_000            # x 2 txns each
    BOOKS = 200
    ZIPF_S = 1.1
    THINK_S = 30.0
    RATE = 100.0 / 3.0          # txns per virtual second, as in `large`
    BUY, STATUS, BROWSE = "buy", "status", "browse"

    def generate(self, rng: random.Random) -> list:
        sessions = self.scaled(self.SESSIONS)
        self.horizon = 2 * sessions / self.RATE
        books = zipf_cdf(self.BOOKS, self.ZIPF_S)
        ops = []
        for session in range(sessions):
            first = diurnal_time(rng.random(), self.horizon)
            second = first + rng.expovariate(1.0 / self.THINK_S)
            if second >= self.horizon:
                second = rng.uniform(first, self.horizon)
            for due in (first, second):
                draw = rng.random()
                book = bisect_left(books, rng.random())
                if draw < 0.10:
                    ops.append((due, session, self.BUY, book,
                                rng.randint(1, 3)))
                elif draw < 0.55:
                    ops.append((due, session, self.STATUS, 0, 0))
                else:
                    ops.append((due, session, self.BROWSE, book, 0))
        ops.sort()
        return ops

    def setup(self) -> Run:
        system = ReplicatedSystem(num_secondaries=2, batch_interval=1.0)
        with system.session(Guarantee.STRONG_SESSION_SI) as loader:
            def load(txn):
                for book in range(self.BOOKS):
                    txn.write(f"book:{book}:stock", 1000)
                    txn.write(f"book:{book}:price", 10 + (7 * book) % 40)
            loader.execute_update(load)
        system.quiesce()
        return self.begin(system)

    @staticmethod
    def purchase(customer: str, book: int, quantity: int):
        def work(txn):
            stock_key = f"book:{book}:stock"
            stock = txn.read(stock_key, default=0)
            bought = min(quantity, stock)
            txn.write(stock_key, stock - bought)
            orders_key = f"cust:{customer}:orders"
            n = txn.read(orders_key, default=0) + 1
            txn.write(orders_key, n)
            txn.write(f"order:{customer}:{n}",
                      {"book": book, "qty": bought, "status": "placed"})
        return work

    @staticmethod
    def check_status(customer: str):
        def work(txn):
            n = txn.read(f"cust:{customer}:orders", default=0)
            if n:
                txn.read(f"order:{customer}:{n}", default=None)
        return work

    def drive(self, run: Run, watch: Stopwatch) -> None:
        system = run.system
        kernel = system.kernel
        sessions: dict[int, Any] = {}
        for count, (due, index, kind, book, quantity) in enumerate(self.ops):
            if count % LAP_OPS == 0:
                watch.lap()
            due = advance(run, due)
            session = sessions.get(index)
            if session is None:
                session = sessions[index] = system.session(
                    Guarantee.STRONG_SESSION_SI, secondary=index % 2)
            customer = f"cust{index}"
            if kind == self.BUY:
                session.execute_update(
                    self.purchase(customer, book, quantity))
                run.update_latency.append(kernel.now - due)
            elif kind == self.STATUS:
                session.execute_read_only(self.check_status(customer))
                run.read_latency.append(kernel.now - due)
            else:
                rows = session.execute_read_only(
                    lambda txn: txn.scan(f"book:{book}:",
                                         f"book:{book + 5}:~"))
                run.scans += 1
                run.scan_rows += len(rows)
                run.read_latency.append(kernel.now - due)
        system.quiesce()
        run.finished = kernel.now
        watch.lap()
        run.attempted = len(self.ops)
        run.sessions = list(sessions.values())


class UpdateFanout(FunctionalWorkload):
    """Multi-op update transactions applied at five secondaries."""

    name = "update-fanout"
    UPDATES = 3_000
    KEYS = 4_000
    SESSIONS = 400
    RATE = 1.0                  # update txns per virtual second
    UPDATE, READ_BACK = "update", "read-back"

    def generate(self, rng: random.Random) -> list:
        updates = self.scaled(self.UPDATES)
        self.horizon = updates / self.RATE
        ops = []
        for _ in range(updates):
            due = rng.uniform(0.0, self.horizon - 1.0)
            session = rng.randrange(self.SESSIONS)
            size = rng.randint(5, 15)
            body = [(rng.randrange(self.KEYS), rng.random() < 0.30,
                     rng.randrange(10_000)) for _ in range(size)]
            key, _write, value = body[-1]
            body[-1] = (key, True, value)        # an update txn writes
            ops.append((due, session, self.UPDATE, tuple(body)))
            if rng.random() < 0.5:
                # Read your writes, within a second, in the same session.
                written = tuple(key for key, write, _v in body if write)
                ops.append((due + rng.random(), session, self.READ_BACK,
                            written))
        ops.sort()
        return ops

    def setup(self) -> Run:
        system = ReplicatedSystem(num_secondaries=5, propagation_delay=0.5,
                                  refresh_apply_cost=0.02,
                                  history_detail="commits")
        with system.session(Guarantee.STRONG_SESSION_SI) as loader:
            def load(txn):
                for key in range(self.KEYS):
                    txn.write(f"k{key}", 0)
            loader.execute_update(load)
        system.quiesce()
        run = self.begin(system)
        run.sessions = [system.session(Guarantee.STRONG_SESSION_SI)
                        for _ in range(self.SESSIONS)]
        return run

    def drive(self, run: Run, watch: Stopwatch) -> None:
        system = run.system
        kernel = system.kernel
        for count, (due, index, kind, body) in enumerate(self.ops):
            if count % LAP_OPS == 0:
                watch.lap()
            due = advance(run, due)
            session = run.sessions[index]
            if kind == self.UPDATE:
                def work(txn, body=body):
                    for key, write, value in body:
                        if write:
                            txn.write(f"k{key}", value)
                        else:
                            txn.read(f"k{key}")
                session.execute_update(work)
                run.update_latency.append(kernel.now - due)
            else:
                def work(txn, keys=body):
                    for key in keys:
                        txn.read(f"k{key}")
                session.execute_read_only(work)
                run.read_latency.append(kernel.now - due)
        system.quiesce()
        run.finished = kernel.now
        watch.lap()
        run.attempted = len(self.ops)


class ChaosCompose(FunctionalWorkload):
    """Sharding x parallel refresh x lossy links x failover, composed."""

    name = "chaos-compose"
    OPS = 3_000
    RATE = 1.0                  # ops per virtual second
    SESSIONS = 32
    KEYS = 512
    SHARDS = 8
    FAILOVER_WAIT = 60.0
    #: What ``derived_placement(8, 4)`` returns today, written out so a
    #: change to that helper cannot move the workload.
    PLACEMENT = ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7),
                 (4, 5, 6, 7), (0, 1, 2, 3))
    KILL_AT = 0.55              # of the horizon

    def generate(self, rng: random.Random) -> list:
        count = self.scaled(self.OPS)
        self.horizon = count / self.RATE
        dues = sorted(rng.uniform(0.0, self.horizon) for _ in range(count))
        return [(due, rng.randrange(self.SESSIONS), rng.random() < 0.40,
                 f"k{rng.randrange(self.KEYS)}", rng.randrange(10_000))
                for due in dues]

    def open_session(self, system: ReplicatedSystem):
        return system.session(Guarantee.STRONG_SESSION_SI,
                              failover_wait=self.FAILOVER_WAIT)

    def setup(self) -> Run:
        system = ReplicatedSystem(
            num_secondaries=4, propagation_delay=1.0, batch_interval=1.0,
            parallel_refresh=4, refresh_apply_cost=0.01,
            channel_faults=ChannelFaults(drop=0.15, duplicate=0.10,
                                         jitter=2.0, reorder=0.10,
                                         reorder_delay=3.0),
            fault_seed=self.seed,
            promotion=PromotionConfig(promotion_wait=30.0),
            sharding=ShardingConfig(shards=self.SHARDS,
                                    placement=self.PLACEMENT),
            failover=FailoverConfig(heartbeat_interval=2.0,
                                    suspicion_timeout=8.0,
                                    lease_duration=12.0))
        with self.open_session(system) as loader:
            loader.write_many({f"k{key}": 0 for key in range(self.KEYS)})
        system.quiesce()
        run = self.begin(system)
        # Faults are scheduled, like the ops, from the end of set-up.
        at = lambda fraction: run.epoch + fraction * self.horizon
        FaultInjector(system, FaultPlan.of([
            FaultEvent(at(0.15), "crash_secondary", 1),
            FaultEvent(at(0.25), "recover_secondary", 1),
            FaultEvent(at(0.35), "partition", 2),
            FaultEvent(at(0.39), "heal", 2),
            FaultEvent(at(self.KILL_AT), "kill_primary"),
            FaultEvent(at(0.75), "pause_propagator"),
            FaultEvent(at(0.77), "resume_propagator"),
        ])).start()
        run.sessions = [self.open_session(system)
                        for _ in range(self.SESSIONS)]
        return run

    def drive(self, run: Run, watch: Stopwatch) -> None:
        system = run.system
        kernel = system.kernel
        active = list(run.sessions)
        killed_at = run.epoch + self.KILL_AT * self.horizon
        for due, index, is_update, key, value in self.ops:
            if run.attempted % LAP_OPS == 0:
                watch.lap()
            due = advance(run, due)
            run.attempted += 1
            try:
                try:
                    self.execute(active[index], is_update, key, value)
                except LostUpdatesError:
                    # The promotion truncated commits this session had
                    # seen; the client's answer is a fresh session.
                    run.lost_sessions += 1
                    active[index] = self.open_session(system)
                    run.sessions.append(active[index])
                    self.execute(active[index], is_update, key, value)
            except ReproError:
                run.failed += 1
                continue
            latency = kernel.now - due
            if is_update:
                run.update_latency.append(latency)
                if not run.failover_s and due >= killed_at:
                    run.failover_s = kernel.now - killed_at
            else:
                run.read_latency.append(latency)
        system.run(until=max(kernel.now, run.epoch + self.horizon))
        system.quiesce()
        run.finished = kernel.now
        watch.lap()

    @staticmethod
    def execute(session, is_update: bool, key: str, value: int) -> None:
        if is_update:
            session.write(key, value)
        else:
            session.read(key)


# ---------------------------------------------------------------------------
# The paper's simulator
# ---------------------------------------------------------------------------

class SimFigures(Workload):
    """Four points of the paper's performance study (Figures 2 and 8)."""

    name = "sim-figures"
    #: The point whose virtual-time results are the workload's ``vt_*``.
    HEADLINE = "fig2-session"
    #: Section 6.1 runs 35 minutes and discards the first five; 20 keeps
    #: the warm-up and fits a traced pass into the run-time budget.
    MINUTES = 20.0
    WARMUP_MINUTES = 5.0

    def generate(self, rng: random.Random) -> list:
        base = SimulationParameters(
            duration=60.0 * max(2.0, self.MINUTES * self.scale),
            warmup=60.0 * self.WARMUP_MINUTES * min(1.0, self.scale))
        fig2 = base.with_(num_sec=5)
        fig8 = base.with_(num_sec=10, clients_per_secondary=20,
                          update_tran_prob=0.05,
                          algorithm=Guarantee.STRONG_SESSION_SI)
        self.points = {
            "fig2-weak": fig2.with_(algorithm=Guarantee.WEAK_SI)
            .with_total_clients(150),
            "fig2-session": fig2.with_(algorithm=Guarantee.STRONG_SESSION_SI)
            .with_total_clients(150),
            "fig2-strong": fig2.with_(algorithm=Guarantee.STRONG_SI)
            .with_total_clients(150),
            "fig8-session": fig8,
        }
        # The model draws its own variates from the seed it is handed;
        # the inputs are the parameter points plus one model seed each.
        return [(name, params.describe(), params.duration, params.warmup,
                 rng.randrange(2 ** 31))
                for name, params in self.points.items()]

    def setup(self) -> Run:
        run = Run()
        for name, _describe, _duration, _warmup, seed in self.ops:
            run.models[name] = LazyReplicationModel(self.points[name],
                                                    seed=seed)
        return run

    def drive(self, run: Run, watch: Stopwatch) -> None:
        for name, model in run.models.items():
            model.run()
            watch.lap(name)

    def check(self, run: Run, watch: Stopwatch) -> None:
        for name, model in run.models.items():
            if not (model.metrics.completions("read")
                    and model.metrics.completions("update")):
                raise CheckFailed(f"{name}: no completions after warm-up")
        watch.lap()

    def outcome(self, run: Run) -> Outcome:
        exact: dict = {}
        txns = events = 0
        peak_depth = 0
        same_instant = scheduled = 0
        for name, model in run.models.items():
            params, metrics = self.points[name], model.metrics
            counters = model.kernel.counters()
            txns += metrics.completions()
            events += counters["events_dispatched"]
            peak_depth = max(peak_depth, counters["peak_queue_depth"])
            same_instant += counters["same_instant_events"]
            scheduled += counters["events_scheduled"]
            exact.update({
                f"simmodel.{name}.goodput_tps":
                    metrics.throughput(end_time=params.duration),
                f"simmodel.{name}.read_rt_s":
                    metrics.mean_response_time("read"),
                f"simmodel.{name}.update_rt_s":
                    metrics.mean_response_time("update"),
                f"simmodel.{name}.mean_lag_commits": model.lag_stats.mean,
            })
        model = run.models[self.HEADLINE]
        params, metrics = self.points[self.HEADLINE], model.metrics
        commit_rate = model.counters.update_commits / params.duration
        exact.update({
            "vt_goodput_tps": metrics.throughput(end_time=params.duration),
            # Little's law: commits waiting to be applied / commit rate.
            "vt_lag_mean_s": ratio(model.lag_stats.mean, commit_rate),
            "core.sessions.vt_read_p50_s":
                metrics.response_time_percentile("read", 50),
            "core.sessions.vt_read_p99_s":
                metrics.response_time_percentile("read", 99),
            "core.sessions.vt_update_p99_s":
                metrics.response_time_percentile("update", 99),
            "kernel.events_per_txn": ratio(events, txns),
            "kernel.peak_queue_depth": peak_depth,
            "kernel.same_instant_ratio": ratio(same_instant, scheduled),
        })
        digest = sha256_of(sorted(exact.items()))
        return Outcome(attempted=txns, failed=0, exact=exact,
                       digest=digest)


WORKLOADS = {cls.name: cls
             for cls in (ReadScan, UpdateFanout, ChaosCompose, SimFigures)}
