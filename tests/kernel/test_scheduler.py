"""The kernel event queue: recorded dispatch order and observability.

The event queue must dispatch in exact ``(when, seq)`` order, every
same-seed run bit-identical.  The differential test drives it with
seeded event programs (sleeps, same-instant ties, timer cancellations,
timeouts, kill-during-timeout) and compares trace and counters with a
recording made while the kernel still had two schedulers — a binary heap
and a calendar queue — that agreed on every byte.  The ``Timeout``
proxy-leak regression rides along: a satisfied timeout must retire its
deadline event eagerly instead of leaving it pending until it fires.
"""

import hashlib
import random
from collections import deque

import pytest

from repro.errors import ProcessKilled
from repro.kernel import Condition, Kernel, Timeout, TimeoutExpired


class _Handoff:
    """A FIFO hand-off built on one :class:`Condition`, with the event
    stream of the blocking kernel queue the recordings below were made
    with: a get finding an item queued resumes at once, a put wakes the
    oldest blocked getter and nobody else, and an expired or killed
    getter leaves the line."""

    def __init__(self, kernel: Kernel):
        self.cond = Condition(kernel)
        self.items: deque = deque()
        #: One box per blocked getter, oldest first.
        self.getters: deque = deque()

    def put(self, item) -> None:
        if self.getters:
            self.getters.popleft().append(item)
            self.cond.notify_all()
        else:
            self.items.append(item)

    def get(self, limit: float):
        """``value = yield from handoff.get(limit)``, under a Timeout."""
        box = [self.items.popleft()] if self.items else []
        if not box:
            self.getters.append(box)
        try:
            yield Timeout(self.cond.wait_for(lambda: box), limit)
        except BaseException:
            if not box:
                self.getters = deque(b for b in self.getters if b is not box)
            raise
        return box[0]


# ---------------------------------------------------------------------------
# Seeded event programs, replayed against a recording
# ---------------------------------------------------------------------------

def _run_program(seed: int):
    """One seeded random event program; returns (trace, counters).

    Every stochastic choice is drawn from a ``random.Random(seed)``
    *before* the kernel runs, so the program is a function of the seed
    and any trace divergence is an event-ordering bug.
    """
    rng = random.Random(seed)
    kernel = Kernel()
    trace: list[tuple] = []
    queue = _Handoff(kernel)

    def mark(tag: str, what: str) -> None:
        trace.append((round(kernel.now, 9), tag, what))

    # Sleepers: mixed zero (same-instant ties), short and long delays.
    sleep_specs = [
        [rng.choice([0.0, 0.0, 0.01, 0.25, 1.0, 7.5, rng.random() * 90.0])
         for _ in range(rng.randint(1, 5))]
        for _ in range(25)
    ]

    def sleeper(tag, delays):
        for delay in delays:
            yield kernel.sleep(delay)
            mark(tag, "tick")

    for i, delays in enumerate(sleep_specs):
        kernel.spawn(sleeper(f"s{i}", delays))

    # Timers, roughly half cancelled mid-run.
    def fired(tag):
        mark(tag, "timer")

    timers = [kernel.call_later(rng.random() * 3.0, fired, f"t{i}")
              for i in range(20)]
    doomed = [timer for timer in timers if rng.random() < 0.5]
    cancel_at = rng.random() * 1.5

    def canceller():
        yield kernel.sleep(cancel_at)
        for timer in doomed:
            timer.cancel()      # False (no-op) if it already fired
        mark("canceller", "done")

    kernel.spawn(canceller())

    # Timeout waiters: the feeder satisfies some, the rest expire.
    timeout_limits = [rng.random() * 4.0 for _ in range(12)]
    feeder_puts = rng.randint(0, len(timeout_limits))
    feeder_gap = 0.1 + rng.random() * 0.4

    def waiter(tag, limit):
        try:
            value = yield from queue.get(limit)
            mark(tag, f"got-{value}")
        except TimeoutExpired:
            mark(tag, "expired")

    for i, limit in enumerate(timeout_limits):
        kernel.spawn(waiter(f"w{i}", limit))

    def feeder():
        for i in range(feeder_puts):
            yield kernel.sleep(feeder_gap)
            queue.put(i)
        mark("feeder", "done")

    kernel.spawn(feeder())

    # Kill-during-timeout: victims blocked under a deadline are killed
    # before it lands; the kill must cancel the armed deadline timer.
    kill_at = 0.5 + rng.random()

    def victim(tag):
        try:
            yield from queue.get(50.0)
            mark(tag, "got")
        except ProcessKilled:
            mark(tag, "killed")
            raise

    victims = [kernel.spawn(victim(f"v{i}")) for i in range(3)]

    def killer():
        yield kernel.sleep(kill_at)
        for process in victims:
            kernel.kill(process)
        mark("killer", "done")

    kernel.spawn(killer())

    kernel.run()
    assert kernel.pending_events == 0
    return trace, kernel.counters()


#: Per seed: SHA-256 of ``repr(trace)``, trace length, and the integer
#: counters (events scheduled, dispatched, peak queue depth, timer
#: cancellations, same-instant events), recorded from the binary-heap
#: scheduler at the last commit that had it (the calendar queue matched).
RECORDED_PROGRAMS = {
    0: ("8c625bb845d72960d94f6afbbcec0d9e71555a26e99f0664f894bf6e0c66216c",
        117, (179, 179, 60, 16, 77)),
    1: ("fcc30faaaa01370f52ac07acfc943c845590f7b1602fb6ad619503577f071d5a",
        103, (151, 151, 62, 7, 59)),
    2: ("5fb0855c9fb8a0460568b59a1b3d01ff4731c9dc07472587b5b1d2b30c5b56fb",
        93, (150, 150, 58, 15, 66)),
    3: ("a65a6316fb9bf9cb36e24f8ad5816072cb182accb01178887d38dc9c6701e3d9",
        118, (163, 163, 62, 6, 65)),
    17: ("27526ae5a09ccc432792902f7787c5ab1d939b7ba305c694e0329159ce5325c5",
         111, (175, 175, 60, 15, 68)),
}


@pytest.mark.parametrize("seed", sorted(RECORDED_PROGRAMS))
def test_differential_dispatch_order(seed):
    """The kernel reproduces the recorded heap trace."""
    trace, counters = _run_program(seed)
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    integers = tuple(counters[name] for name in (
        "events_scheduled", "events_dispatched", "peak_queue_depth",
        "timer_cancellations", "same_instant_events"))
    assert (digest, len(trace), integers) == RECORDED_PROGRAMS[seed]


# ---------------------------------------------------------------------------
# Timeout proxy-leak regression
# ---------------------------------------------------------------------------

def test_satisfied_timeouts_leave_no_pending_events():
    """N satisfied timeouts: no deadline events linger, no processes spawn.

    The old ``Timeout`` spawned a proxy + observer process per use and
    left the deadline callback in the heap until it fired; the rebuilt
    zero-spawn ``Timeout`` cancels its deadline timer the moment the
    inner wait resumes.
    """
    kernel = Kernel()
    queue = _Handoff(kernel)
    n = 50

    def feeder():
        for i in range(n):
            yield kernel.sleep(0.1)
            queue.put(i)

    def consumer():
        for i in range(n):
            value = yield from queue.get(1000.0)
            assert value == i

    kernel.spawn(feeder())
    kernel.spawn(consumer())
    kernel.run(until=20.0)               # all gets satisfied by t=5
    # Far-future deadline events (t~1000) must all be retired already.
    assert kernel.pending_events == 0
    assert kernel._next_pid == 2         # zero-spawn: feeder + consumer only
    assert kernel.counters()["timer_cancellations"] == n


def test_kill_cancels_armed_deadline():
    kernel = Kernel()
    cond = Condition(kernel)

    def victim():
        yield Timeout(cond.wait_for(lambda: False), 500.0)

    process = kernel.spawn(victim())
    kernel.run(until=1.0)
    assert kernel.pending_events == 1    # the armed deadline
    kernel.kill(process)
    assert kernel.pending_events == 0
    assert kernel.counters()["timer_cancellations"] == 1
    kernel.run()                         # the tombstone drains as a no-op


# ---------------------------------------------------------------------------
# Observability counters
# ---------------------------------------------------------------------------

def test_counters_shape_and_growth():
    kernel = Kernel()

    def worker():
        yield kernel.sleep(1.0)
        yield kernel.checkpoint()        # same-instant event

    kernel.spawn(worker())
    timer = kernel.call_later(5.0, lambda: None)
    timer.cancel()
    kernel.run()
    counters = kernel.counters()
    assert counters["events_scheduled"] >= counters["events_dispatched"] > 0
    assert counters["peak_queue_depth"] >= 1
    assert counters["timer_cancellations"] == 1
    assert counters["same_instant_events"] >= 1
    assert 0.0 <= counters["same_instant_ratio"] <= 1.0


@pytest.mark.parametrize("driver", ["run", "run_until_complete", "step"])
def test_counters_are_exact_inside_callbacks(driver):
    # Regression: run() used to batch the dispatch count in a local, so
    # a callback saw pending_events 2, 3, 4 and events_dispatched 0.
    kernel = Kernel()
    seen = []

    def worker():
        for _ in range(3):
            yield kernel.checkpoint()
            seen.append((kernel.pending_events,
                         kernel.counters()["events_dispatched"]))

    process = kernel.spawn(worker())
    if driver == "run":
        kernel.run()
    elif driver == "run_until_complete":
        kernel.run_until_complete(process)
    else:
        while kernel.step():
            pass
    assert seen == [(0, 2), (0, 3), (0, 4)]


def test_earlier_event_scheduled_after_horizon_break_dispatches_first():
    # A horizon-bounded run() looks at the earliest timed event, finds
    # it past the horizon and stops without staging it.  An event
    # scheduled afterwards at an *earlier* time must still dispatch
    # first: nothing may be committed to dispatch before the clock
    # actually reaches its instant.
    order = []
    kernel = Kernel()
    kernel.call_at(10.0, order.append, "late")
    kernel.run(until=1.0)                 # peeks at t=10, stops at t=1
    assert kernel.now == 1.0
    kernel.call_at(5.0, order.append, "early")
    kernel.run()
    assert order == ["early", "late"]
    assert kernel.now == 10.0
