"""Property-based tests of kernel scheduling and resources."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import Kernel, Queue
from repro.sim.resources import ProcessorSharingServer


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=999), min_size=1,
                max_size=30))
def test_queue_preserves_fifo_order(items):
    kernel = Kernel()
    queue = Queue(kernel)
    received = []

    def consumer():
        for _ in items:
            received.append((yield queue.get()))

    kernel.spawn(consumer())
    for item in items:
        queue.put(item)
    kernel.run()
    assert received == items


#: Delays on a quarter-unit grid: exact float arithmetic, frequent
#: collisions, zero included.
_TICKS = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25)
#: (how to schedule, delay, delay of a child scheduled on firing | None)
_EVENT = st.tuples(st.sampled_from(["at", "later"]), _TICKS,
                   st.none() | _TICKS)
_CANCEL = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=99))
#: Ops issued between runs, then how far ``run(until=...)`` goes.
_SEGMENT = st.tuples(st.lists(_EVENT | _CANCEL, max_size=12), _TICKS)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SEGMENT, min_size=1, max_size=6))
def test_dispatch_order_is_stable_sort_by_time(segments):
    """The ordering contract: live events fire in ``(when, schedule
    index)`` order, whatever mix of ``call_at``/``call_later``/``cancel``
    scheduled them and however ``run(until=...)`` slices the timeline.
    Python's stable sort is the reference."""
    kernel = Kernel()
    whens = []                   # per event, in scheduling order
    timers = []                  # (event index, Timer) of call_later events
    cancelled = set()
    fired = []

    def schedule(kind, delay, child):
        index = len(whens)
        whens.append(kernel.now + delay)
        if kind == "at":
            kernel.call_at(kernel.now + delay, fire, index, child)
        else:
            timers.append((index, kernel.call_later(delay, fire, index,
                                                    child)))

    def fire(index, child):
        fired.append(index)
        if child is not None:
            schedule("at", child, None)

    def expected(horizon):
        live = [index for index, when in enumerate(whens)
                if index not in cancelled and when <= horizon]
        return sorted(live, key=whens.__getitem__)

    for ops, span in segments:
        for op in ops:
            if op[0] != "cancel":
                schedule(*op)
            elif timers:
                index, timer = timers[op[1] % len(timers)]
                if timer.cancel():       # False once it has fired
                    cancelled.add(index)
        until = kernel.now + span
        kernel.run(until=until)
        assert kernel.now == until
        assert fired == expected(until)
    kernel.run()
    assert fired == expected(float("inf"))
    assert kernel.pending_events == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=20))
def test_sleepers_complete_in_delay_order(delays):
    kernel = Kernel()
    completions = []

    def sleeper(index, delay):
        yield kernel.sleep(delay)
        completions.append((kernel.now, index))

    for index, delay in enumerate(delays):
        kernel.spawn(sleeper(index, delay))
    kernel.run()
    times = [t for t, _ in completions]
    assert times == sorted(times)
    assert kernel.now == pytest.approx(max(delays))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=15))
def test_ps_server_work_conservation(demands):
    """All jobs admitted at t=0 finish exactly at total-demand time, and
    completion order follows demand order."""
    kernel = Kernel()
    server = ProcessorSharingServer(kernel)
    completions = []

    def jobproc(index, demand):
        yield server.request(demand)
        completions.append((kernel.now, index))

    for index, demand in enumerate(demands):
        kernel.spawn(jobproc(index, demand))
    kernel.run()
    assert max(t for t, _ in completions) == pytest.approx(sum(demands))
    finish_time = dict((i, t) for t, i in completions)
    for i, di in enumerate(demands):
        for j, dj in enumerate(demands):
            if di < dj:
                assert finish_time[i] <= finish_time[j] + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=5.0),
                          st.floats(min_value=0.01, max_value=3.0)),
                min_size=1, max_size=12))
def test_ps_server_never_finishes_before_demand(arrivals):
    """Response time >= demand for every job (sharing only slows down)."""
    kernel = Kernel()
    server = ProcessorSharingServer(kernel)
    results = []

    def jobproc(arrive, demand):
        yield kernel.sleep(arrive)
        started = kernel.now
        yield server.request(demand)
        results.append((kernel.now - started, demand))

    for arrive, demand in arrivals:
        kernel.spawn(jobproc(arrive, demand))
    kernel.run()
    for response, demand in results:
        assert response >= demand - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["put", "get"]), min_size=1, max_size=40),
       st.integers(min_value=1, max_value=5))
def test_queue_random_put_get_interleavings(ops, capacity):
    """Whatever the interleaving, gets return puts in order, nothing is
    lost, nothing is duplicated."""
    kernel = Kernel()
    queue = Queue(kernel, capacity=capacity)
    puts = [op for op in ops if op == "put"]
    gets_needed = len(puts)      # consume exactly what is produced
    received = []

    def producer():
        for i in range(len(puts)):
            yield queue.put_wait(i)

    def consumer():
        for _ in range(gets_needed):
            received.append((yield queue.get()))

    kernel.spawn(producer())
    kernel.spawn(consumer())
    kernel.run()
    assert received == list(range(len(puts)))
