"""An executable online-bookstore workload for the functional system.

This is the paper's motivating scenario (Section 1) grown into a full
workload: customers purchase books (update transactions, forwarded to the
primary), check the status of their orders and browse the catalogue
(read-only transactions at their secondary).  Each customer is one client
session, so "did I see my own purchase?" is exactly the transaction-
inversion question strong session SI answers.

:func:`run_bookstore_workload` drives a :class:`~repro.core.ReplicatedSystem`
with an interleaved stream of such sessions, advancing virtual time between
transactions so lazy propagation actually lags, and reports both
application-level staleness (orders a customer could not see) and the raw
history for the formal checkers.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from repro.core.guarantees import Guarantee
from repro.core.system import ClientSession, ReplicatedSystem
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream, RandomStreams
from repro.workload.tpcw import SHOPPING_MIX, WorkloadMix


@dataclass
class WorkloadReport:
    """What happened during one workload run."""

    transactions: int = 0
    updates: int = 0
    reads: int = 0
    purchases: int = 0
    restocks: int = 0
    status_checks: int = 0
    browses: int = 0
    stale_status_checks: int = 0
    oversells: int = 0
    fcw_retries: int = 0
    blocked_reads: int = 0
    total_read_wait: float = 0.0
    per_session: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"{self.transactions} txns ({self.updates} upd/"
                f"{self.reads} ro), {self.stale_status_checks} stale "
                f"status checks, {self.blocked_reads} blocked reads "
                f"({self.total_read_wait:.1f}s total wait)")


class BookstoreWorkload:
    """Transaction bodies over a simple bookstore schema.

    Keys::

        book:<i>:stock     remaining copies of book i
        book:<i>:price     catalogue price
        cust:<c>:orders    number of orders customer c has placed
        order:<c>:<n>      the n-th order of customer c
    """

    def __init__(self, n_books: int = 25, initial_stock: int = 1000):
        self.n_books = n_books
        self.initial_stock = initial_stock

    # -- schema ----------------------------------------------------------
    def populate(self, system: ReplicatedSystem) -> None:
        """Load the catalogue through one update transaction and let it
        propagate so every replica starts from the same state."""
        with system.session(Guarantee.STRONG_SESSION_SI) as loader:
            def load(txn):
                for i in range(self.n_books):
                    txn.write(f"book:{i}:stock", self.initial_stock)
                    txn.write(f"book:{i}:price", 10 + (7 * i) % 40)
            loader.execute_update(load)
        system.quiesce()

    # -- update transaction bodies -----------------------------------------
    def purchase(self, customer: str, book: int, quantity: int):
        """Buy ``quantity`` copies of ``book`` (T_buy of Section 1)."""
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
            return n, bought
        return work

    def restock(self, book: int, amount: int = 100):
        """Warehouse replenishment."""
        def work(txn):
            key = f"book:{book}:stock"
            txn.write(key, txn.read(key, default=0) + amount)
        return work

    # -- read-only transaction bodies ----------------------------------------
    def check_status(self, customer: str):
        """How many orders does the replica show for me? (T_check)"""
        def work(txn):
            n = txn.read(f"cust:{customer}:orders", default=0)
            last = txn.read(f"order:{customer}:{n}", default=None) if n \
                else None
            return n, last
        return work

    def browse(self, first_book: int, width: int = 5):
        """Catalogue range scan (price listing)."""
        lo = f"book:{first_book}:"
        hi = f"book:{first_book + width}:~"
        return lambda txn: txn.scan(lo, hi)


def run_bookstore_workload(
        system: ReplicatedSystem, *,
        sessions: int = 6,
        txns_per_session: int = 12,
        guarantee: Guarantee = Guarantee.STRONG_SESSION_SI,
        mix: WorkloadMix = SHOPPING_MIX,
        think_time: float = 1.0,
        seed: int = 7,
        workload: Optional[BookstoreWorkload] = None) -> WorkloadReport:
    """Drive ``system`` with interleaved bookstore sessions.

    Between transactions the kernel is advanced by an exponential think
    time so propagation runs concurrently with (virtual) client thinking.
    Returns a :class:`WorkloadReport`; the system's recorder holds the
    history for the SI checkers.
    """
    if txns_per_session < 1:
        raise ConfigurationError(
            f"txns_per_session must be >= 1, got {txns_per_session}")
    shop = workload or BookstoreWorkload()
    shop.populate(system)
    streams = RandomStreams(seed)
    pick: RandomStream = streams.stream("interleave")
    client_sessions: list[ClientSession] = []
    expected_orders: list[int] = []
    remaining: list[int] = []
    rngs: list[RandomStream] = []
    for i in range(sessions):
        client_sessions.append(system.session(guarantee))
        expected_orders.append(0)
        remaining.append(txns_per_session)
        rngs.append(streams.stream(f"session-{i}"))

    report = WorkloadReport()
    active = list(range(sessions))
    while active:
        i = pick.choice(active)
        session, rng = client_sessions[i], rngs[i]
        customer = f"cust{i}"
        system.run(until=system.kernel.now + rng.exponential(think_time))
        if rng.bernoulli(mix.update_tran_prob):
            report.updates += 1
            if rng.bernoulli(0.85):
                book = rng.randint(0, shop.n_books - 1)
                qty = rng.randint(1, 3)
                n, bought = session.execute_update(
                    shop.purchase(customer, book, qty))
                expected_orders[i] = n
                report.purchases += 1
                if bought < qty:
                    report.oversells += 1
            else:
                session.execute_update(
                    shop.restock(rng.randint(0, shop.n_books - 1)))
                report.restocks += 1
        else:
            report.reads += 1
            if rng.bernoulli(0.5):
                seen, _last = session.execute_read_only(
                    shop.check_status(customer))
                report.status_checks += 1
                if seen < expected_orders[i]:
                    report.stale_status_checks += 1
            else:
                session.execute_read_only(
                    shop.browse(rng.randint(0, shop.n_books - 1)))
                report.browses += 1
        report.transactions += 1
        remaining[i] -= 1
        if remaining[i] == 0:
            session.close()
            active.remove(i)

    for i, session in enumerate(client_sessions):
        report.fcw_retries += session.fcw_retries
        report.blocked_reads += session.blocked_reads
        report.total_read_wait += session.total_read_wait
        report.per_session[session.label] = txns_per_session
    system.quiesce()
    return report


# ---------------------------------------------------------------------------
# Scalable session driver
# ---------------------------------------------------------------------------

class ZipfianKeys:
    """Zipfian key chooser over ``0..n-1`` (rank-``i`` weight 1/(i+1)^s).

    The CDF is precomputed once; each draw is one uniform variate plus a
    binary search, so drawing stays O(log n) even for very large
    catalogues.  ``s = 0`` degenerates to uniform; TPC-style hot-key
    skew is usually ``s`` around 1.
    """

    def __init__(self, n: int, s: float = 1.1):
        if n < 1:
            raise ConfigurationError("zipfian population must be >= 1")
        if s < 0:
            raise ConfigurationError("zipfian skew must be >= 0")
        self.n = n
        self.s = s
        total = 0.0
        cdf = []
        for i in range(n):
            total += 1.0 / (i + 1) ** s
            cdf.append(total)
        inv_total = 1.0 / total
        self._cdf = [c * inv_total for c in cdf]

    def draw(self, rng: RandomStream) -> int:
        """One zipfian-distributed rank in ``[0, n)``."""
        return bisect_left(self._cdf, rng.random())


def arrival_times(pattern: str, n: int, horizon: float,
                  rng: RandomStream) -> list[float]:
    """``n`` session arrival instants in ``[0, horizon)``, sorted.

    * ``uniform``     — stationary Poisson-like arrivals;
    * ``flash-crowd`` — 10% uniform background, 90% inside a burst
      window covering the middle tenth of the horizon (a product
      launch: everyone shows up at once);
    * ``diurnal``     — sinusoidal rate ``1 + sin`` over one period
      (overnight trough, midday peak), sampled by inverse CDF over a
      precomputed grid.
    """
    if n < 0:
        raise ConfigurationError("arrival count must be >= 0")
    if horizon <= 0:
        raise ConfigurationError("arrival horizon must be > 0")
    if pattern == "uniform":
        times = [rng.random() * horizon for _ in range(n)]
    elif pattern == "flash-crowd":
        burst_lo, burst_width = 0.45 * horizon, 0.10 * horizon
        times = [burst_lo + rng.random() * burst_width
                 if rng.bernoulli(0.9) else rng.random() * horizon
                 for _ in range(n)]
    elif pattern == "diurnal":
        # CDF of rate(t) = 1 + sin(2*pi*t/h - pi/2) on a fixed grid;
        # inverse-sample with a binary search plus linear interpolation.
        grid = 1024
        cdf = [0.0] * (grid + 1)
        acc = 0.0
        for i in range(grid):
            t = (i + 0.5) / grid
            acc += 1.0 + math.sin(2.0 * math.pi * t - math.pi / 2.0)
            cdf[i + 1] = acc
        inv_total = 1.0 / acc
        cdf = [c * inv_total for c in cdf]
        times = []
        for _ in range(n):
            u = rng.random()
            hi = bisect_left(cdf, u)
            if hi == 0:
                hi = 1
            lo_c, hi_c = cdf[hi - 1], cdf[hi]
            frac = (u - lo_c) / (hi_c - lo_c) if hi_c > lo_c else 0.0
            times.append((hi - 1 + frac) / grid * horizon)
    else:
        raise ConfigurationError(
            f"unknown arrival pattern {pattern!r} "
            "(expected 'uniform', 'flash-crowd' or 'diurnal')")
    times.sort()
    return times


@dataclass(frozen=True)
class ScalePreset:
    """One configuration of the scalable session driver.

    ``session_floor`` is a minimum session lifetime; with
    ``session_floor >= arrival_horizon`` every session outlives the
    arrival window, so peak concurrency provably reaches ``sessions``.
    """

    name: str
    sessions: int
    txns_per_session: int
    arrival: str                 # "uniform" | "flash-crowd" | "diurnal"
    arrival_horizon: float       # virtual seconds over which sessions arrive
    think_time: float            # mean think between a session's txns
    session_time: float          # mean extra lifetime beyond the floor
    session_floor: float         # minimum session lifetime
    update_prob: float
    zipf_s: float
    n_books: int
    num_secondaries: int
    batch_interval: Optional[float] = None


#: Driver presets: ``smoke`` for tests, ``large`` for local sweeps,
#: ``huge`` for the >=100k-concurrent-session scale-up run.
SCALE_PRESETS: dict[str, ScalePreset] = {
    "smoke": ScalePreset(
        name="smoke", sessions=300, txns_per_session=3,
        arrival="uniform", arrival_horizon=60.0,
        think_time=5.0, session_time=30.0, session_floor=60.0,
        update_prob=0.20, zipf_s=1.1, n_books=50, num_secondaries=2),
    "large": ScalePreset(
        name="large", sessions=10_000, txns_per_session=2,
        arrival="diurnal", arrival_horizon=600.0,
        think_time=30.0, session_time=300.0, session_floor=600.0,
        update_prob=0.10, zipf_s=1.1, n_books=200, num_secondaries=2,
        batch_interval=1.0),
    "huge": ScalePreset(
        name="huge", sessions=100_000, txns_per_session=2,
        arrival="flash-crowd", arrival_horizon=600.0,
        think_time=60.0, session_time=900.0, session_floor=600.0,
        update_prob=0.05, zipf_s=1.2, n_books=500, num_secondaries=1,
        batch_interval=1.0),
}


@dataclass
class ScaleReport:
    """What happened during one scale-driver run."""

    preset: str = ""
    sessions: int = 0
    transactions: int = 0
    updates: int = 0
    reads: int = 0
    peak_concurrent: int = 0
    virtual_horizon: float = 0.0
    wall_seconds: float = 0.0
    events_dispatched: int = 0
    events_per_second: float = 0.0
    blocked_reads: int = 0
    stale_status_checks: int = 0

    def summary(self) -> str:
        return (f"{self.preset}: {self.sessions} sessions "
                f"(peak {self.peak_concurrent} concurrent), "
                f"{self.transactions} txns in {self.wall_seconds:.1f}s "
                f"wall ({self.events_per_second:,.0f} events/s)")


def run_scale_workload(
        preset: ScalePreset | str, *,
        seed: int = 17,
        system: Optional[ReplicatedSystem] = None,
        guarantee: Guarantee = Guarantee.STRONG_SESSION_SI,
        workload: Optional[BookstoreWorkload] = None) -> ScaleReport:
    """Drive a bookstore at scale with zipfian keys and shaped arrivals.

    Unlike :func:`run_bookstore_workload` (which interleaves a handful
    of sessions uniformly), this driver schedules every session action
    on a single virtual-time heap: sessions arrive per the preset's
    arrival pattern, stay open at least ``session_floor`` seconds, pick
    books zipfian-hot, and execute their transactions with exponential
    think gaps.  The kernel is advanced to each action's instant, so
    propagation and refresh interleave with client work exactly as in
    the small driver — only the bookkeeping is O(log sessions).
    """
    if isinstance(preset, str):
        try:
            preset = SCALE_PRESETS[preset]
        except KeyError:
            raise ConfigurationError(
                f"unknown scale preset {preset!r} "
                f"(expected one of {sorted(SCALE_PRESETS)})") from None
    if preset.txns_per_session < 1:
        raise ConfigurationError(
            f"txns_per_session must be >= 1, got {preset.txns_per_session}")
    shop = workload or BookstoreWorkload(n_books=preset.n_books)
    if system is None:
        system = ReplicatedSystem(num_secondaries=preset.num_secondaries,
                                  batch_interval=preset.batch_interval)
    wall_start = time.perf_counter()
    shop.populate(system)
    streams = RandomStreams(seed)
    zipf = ZipfianKeys(preset.n_books, preset.zipf_s)
    arrivals = arrival_times(preset.arrival, preset.sessions,
                             preset.arrival_horizon, streams["arrivals"])
    life_rng = streams["lifetimes"]
    mix_rng = streams["mix"]
    think_rng = streams["think"]
    key_rng = streams["keys"]

    report = ScaleReport(preset=preset.name, sessions=preset.sessions)
    # One heap of (when, kind, session index); kind 0 = transaction,
    # kind 1 = close, so a close at the same instant runs after the txn.
    actions: list[tuple[float, int, int]] = []
    closes: list[float] = []
    for i, at in enumerate(arrivals):
        close_at = at + preset.session_floor \
            + life_rng.exponential(preset.session_time)
        closes.append(close_at)
        actions.append((at, 0, i))
        actions.append((close_at, 1, i))
    heapq.heapify(actions)

    sessions: list[Optional[ClientSession]] = [None] * preset.sessions
    remaining = [preset.txns_per_session] * preset.sessions
    expected_orders = [0] * preset.sessions
    open_count = 0
    kernel = system.kernel
    num_secondaries = len(system.secondaries)
    push = heapq.heappush
    pop = heapq.heappop
    while actions:
        when, kind, i = pop(actions)
        if when > kernel.now:
            system.run(until=when)
        if kind == 1:                       # close
            session = sessions[i]
            if session is not None:
                report.blocked_reads += session.blocked_reads
                session.close()
                sessions[i] = None
                open_count -= 1
            continue
        session = sessions[i]
        if session is None:                 # arrival: open the session
            session = system.session(guarantee,
                                     secondary=i % num_secondaries)
            sessions[i] = session
            open_count += 1
            if open_count > report.peak_concurrent:
                report.peak_concurrent = open_count
        customer = f"cust{i}"
        if mix_rng.bernoulli(preset.update_prob):
            book = zipf.draw(key_rng)
            n, _bought = session.execute_update(
                shop.purchase(customer, book, key_rng.randint(1, 3)))
            expected_orders[i] = n
            report.updates += 1
        else:
            if mix_rng.bernoulli(0.5):
                seen, _last = session.execute_read_only(
                    shop.check_status(customer))
                if seen < expected_orders[i]:
                    report.stale_status_checks += 1
            else:
                session.execute_read_only(shop.browse(zipf.draw(key_rng)))
            report.reads += 1
        report.transactions += 1
        remaining[i] -= 1
        if remaining[i] > 0:
            next_at = kernel.now + think_rng.exponential(preset.think_time)
            if next_at >= closes[i]:
                next_at = closes[i]         # last think runs into close
            push(actions, (next_at, 0, i))
    system.quiesce()
    report.virtual_horizon = kernel.now
    report.wall_seconds = time.perf_counter() - wall_start
    counters = kernel.counters()
    report.events_dispatched = counters["events_dispatched"]
    if report.wall_seconds > 0:
        report.events_per_second = (report.events_dispatched
                                    / report.wall_seconds)
    return report
