"""Kernel dispatch-loop microbenchmarks (real wall-clock, time-budgeted).

A smoke guard for the event queue's regimes — a steady sleep-heavy mix,
a deep timer heap (six-figure queue depth), the same-instant ready deque,
and the cancelled-timer tombstone drain.  Budgets are deliberately loose
(CI containers vary wildly); the tests catch order-of-magnitude
dispatch-loop regressions, not noise.
"""

from time import perf_counter

from repro.kernel import Kernel

#: Per-test wall-clock ceiling.  Typical runs finish in well under a
#: tenth of this even on slow shared runners.
BUDGET_SECONDS = 60.0

#: Dispatch-rate floor, far below any healthy host (~1M+ events/sec).
EVENTS_PER_SEC_FLOOR = 10_000


def test_dispatch_rate():
    # The steady mix: staggered tickers, so the heap stays mixed.
    kernel = Kernel()
    processes, sleeps = 20, 500

    def ticker(rank: int):
        delay = 0.5 + rank * 0.01
        for _ in range(sleeps):
            yield kernel.sleep(delay)

    for rank in range(processes):
        kernel.spawn(ticker(rank), name=f"ticker-{rank}")
    started = perf_counter()
    kernel.run()
    elapsed = perf_counter() - started
    assert elapsed < BUDGET_SECONDS
    # Deterministic: spawns plus sleeps, exactly.
    scheduled = kernel.counters()["events_scheduled"]
    assert scheduled == processes * (1 + sleeps)
    assert scheduled / elapsed > EVENTS_PER_SEC_FLOOR


def test_deep_timer_heap_dispatch_rate():
    # The regime a bucketed queue would be for: every process holds a
    # pending timer, so the heap starts 100 000 entries deep and drains
    # over 1 000 virtual seconds.
    kernel = Kernel()
    processes, sleeps, span = 100_000, 4, 1000.0

    def sleeper(rank: int):
        delay = span * (rank + 1) / (processes * sleeps)
        for _ in range(sleeps):
            yield kernel.sleep(delay)

    for rank in range(processes):
        kernel.spawn(sleeper(rank))
    started = perf_counter()
    kernel.run()
    elapsed = perf_counter() - started
    assert elapsed < BUDGET_SECONDS
    counters = kernel.counters()
    assert counters["events_dispatched"] == processes * (1 + sleeps)
    assert counters["peak_queue_depth"] >= processes
    assert counters["events_dispatched"] / elapsed > EVENTS_PER_SEC_FLOOR


def test_same_instant_storm_stays_in_ready_deque():
    kernel = Kernel()
    yields = 20_000

    def poster():
        for _ in range(yields):
            yield kernel.checkpoint()

    kernel.spawn(poster())
    started = perf_counter()
    kernel.run()
    elapsed = perf_counter() - started
    assert elapsed < BUDGET_SECONDS
    counters = kernel.counters()
    assert counters["events_dispatched"] > yields
    assert counters["same_instant_ratio"] > 0.9
    assert counters["events_dispatched"] / elapsed > EVENTS_PER_SEC_FLOOR


def test_cancelled_timer_tombstones_drain_cheaply():
    kernel = Kernel()
    timers = [kernel.call_later(1000.0 + i * 0.001, lambda: None)
              for i in range(20_000)]
    for timer in timers:
        assert timer.cancel()
    assert kernel.pending_events == 0

    def clock():
        yield kernel.sleep(1.0)

    kernel.spawn(clock())
    started = perf_counter()
    kernel.run()
    assert perf_counter() - started < BUDGET_SECONDS
    assert kernel.counters()["timer_cancellations"] == len(timers)
    assert kernel.pending_events == 0
