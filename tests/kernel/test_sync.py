"""Tests for kernel synchronisation primitives (Queue/Condition/Event)."""

import pytest

from repro.errors import KernelError
from repro.kernel import Condition, Event, Kernel, Queue


@pytest.fixture
def kernel():
    return Kernel()


# ---------------------------------------------------------------------------
# Queue
# ---------------------------------------------------------------------------

def test_queue_put_then_get(kernel):
    q = Queue(kernel)
    q.put("a")

    def getter():
        item = yield q.get()
        return item

    process = kernel.spawn(getter())
    kernel.run()
    assert process.result == "a"


def test_queue_get_blocks_until_put(kernel):
    q = Queue(kernel)

    def getter():
        item = yield q.get()
        return (kernel.now, item)

    def putter():
        yield kernel.sleep(3.0)
        q.put("late")

    get_proc = kernel.spawn(getter())
    kernel.spawn(putter())
    kernel.run()
    assert get_proc.result == (3.0, "late")


def test_queue_fifo_order(kernel):
    q = Queue(kernel)
    for item in ("a", "b", "c"):
        q.put(item)
    received = []

    def getter():
        for _ in range(3):
            received.append((yield q.get()))

    kernel.spawn(getter())
    kernel.run()
    assert received == ["a", "b", "c"]


def test_queue_multiple_getters_fifo(kernel):
    q = Queue(kernel)
    results = []

    def getter(tag):
        item = yield q.get()
        results.append((tag, item))

    kernel.spawn(getter("g1"))
    kernel.spawn(getter("g2"))
    kernel.run(until=1.0)
    q.put("x")
    q.put("y")
    kernel.run()
    assert results == [("g1", "x"), ("g2", "y")]


def test_queue_len_and_empty(kernel):
    q = Queue(kernel)
    assert q.empty and len(q) == 0
    q.put(1)
    q.put(2)
    assert not q.empty and len(q) == 2


def test_queue_peek(kernel):
    q = Queue(kernel)
    q.put("head")
    q.put("tail")
    assert q.peek() == "head"
    assert len(q) == 2    # peek does not consume


def test_queue_peek_empty_raises(kernel):
    q = Queue(kernel)
    with pytest.raises(KernelError, match="peek on empty"):
        q.peek()


def test_queue_drain(kernel):
    q = Queue(kernel)
    q.put(1)
    q.put(2)
    assert q.drain() == [1, 2]
    assert q.empty


def test_bounded_queue_put_wait_blocks(kernel):
    q = Queue(kernel, capacity=1)
    q.put("first")
    order = []

    def producer():
        yield q.put_wait("second")
        order.append(("put", kernel.now))

    def consumer():
        yield kernel.sleep(5.0)
        item = yield q.get()
        order.append(("got", item))

    kernel.spawn(producer())
    kernel.spawn(consumer())
    kernel.run()
    assert ("got", "first") in order
    put_times = [t for op, t in order if op == "put"]
    assert put_times == [5.0]


def test_bounded_queue_sync_put_on_full_raises(kernel):
    q = Queue(kernel, capacity=1)
    q.put("only")
    with pytest.raises(KernelError, match="full bounded queue"):
        q.put("overflow")


def test_queue_capacity_must_be_positive(kernel):
    with pytest.raises(KernelError):
        Queue(kernel, capacity=0)


# ---------------------------------------------------------------------------
# Condition
# ---------------------------------------------------------------------------

def test_condition_wait_for_true_predicate_resumes_immediately(kernel):
    cond = Condition(kernel)

    def waiter():
        yield cond.wait_for(lambda: True)
        return kernel.now

    process = kernel.spawn(waiter())
    kernel.run()
    assert process.result == 0.0


def test_condition_wait_until_notify(kernel):
    cond = Condition(kernel)
    state = {"ready": False}

    def waiter():
        yield cond.wait_for(lambda: state["ready"])
        return kernel.now

    def setter():
        yield kernel.sleep(4.0)
        state["ready"] = True
        cond.notify_all()

    wait_proc = kernel.spawn(waiter())
    kernel.spawn(setter())
    kernel.run()
    assert wait_proc.result == 4.0


def test_condition_notify_without_satisfaction_keeps_waiting(kernel):
    cond = Condition(kernel)
    state = {"value": 0}

    def waiter():
        yield cond.wait_for(lambda: state["value"] >= 2)
        return state["value"]

    def setter():
        for _ in range(2):
            yield kernel.sleep(1.0)
            state["value"] += 1
            cond.notify_all()

    wait_proc = kernel.spawn(waiter())
    kernel.spawn(setter())
    kernel.run()
    assert wait_proc.result == 2
    assert kernel.now == 2.0


def test_condition_wakes_only_satisfied_waiters(kernel):
    cond = Condition(kernel)
    state = {"value": 0}
    done = []

    def waiter(threshold):
        yield cond.wait_for(lambda t=threshold: state["value"] >= t)
        done.append(threshold)

    kernel.spawn(waiter(1))
    kernel.spawn(waiter(5))
    kernel.run(until=0.5)
    state["value"] = 2
    cond.notify_all()
    kernel.run(until=1.0)
    assert done == [1]
    assert cond.waiting == 1
    state["value"] = 7
    cond.notify_all()
    kernel.run()
    assert done == [1, 5]


def test_condition_waiting_count(kernel):
    cond = Condition(kernel)

    def waiter():
        yield cond.wait_for(lambda: False)

    process = kernel.spawn(waiter(), daemon=True)
    kernel.run(until=0.1)
    assert cond.waiting == 1
    kernel.kill(process)
    assert cond.waiting == 0   # cancel removed the waiter


# ---------------------------------------------------------------------------
# Event
# ---------------------------------------------------------------------------

def test_event_wait_receives_value(kernel):
    event = Event(kernel)

    def waiter():
        value = yield event.wait()
        return value

    def firer():
        yield kernel.sleep(2.0)
        event.fire("payload")

    wait_proc = kernel.spawn(waiter())
    kernel.spawn(firer())
    kernel.run()
    assert wait_proc.result == "payload"


def test_event_wait_after_fire_resumes_immediately(kernel):
    event = Event(kernel)
    event.fire(123)

    def waiter():
        value = yield event.wait()
        return (kernel.now, value)

    process = kernel.spawn(waiter())
    kernel.run()
    assert process.result == (0.0, 123)


def test_event_double_fire_raises(kernel):
    event = Event(kernel)
    event.fire()
    with pytest.raises(KernelError, match="twice"):
        event.fire()


def test_event_fired_flag(kernel):
    event = Event(kernel)
    assert not event.fired
    event.fire()
    assert event.fired


def test_event_wakes_all_waiters(kernel):
    event = Event(kernel)
    results = []

    def waiter(tag):
        value = yield event.wait()
        results.append((tag, value))

    kernel.spawn(waiter("a"))
    kernel.spawn(waiter("b"))
    kernel.run(until=0.1)
    event.fire("go")
    kernel.run()
    assert sorted(results) == [("a", "go"), ("b", "go")]


def test_bounded_queue_putter_cancelled_on_kill(kernel):
    q = Queue(kernel, capacity=1)
    q.put("full")

    def producer():
        yield q.put_wait("blocked")

    process = kernel.spawn(producer())
    kernel.run(until=0.1)
    kernel.kill(process)

    def consumer():
        items = []
        items.append((yield q.get()))
        return items

    got = kernel.spawn(consumer())
    kernel.run()
    assert got.result == ["full"]       # cancelled put never landed
    assert q.empty
