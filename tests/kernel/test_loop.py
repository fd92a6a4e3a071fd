"""Tests for the kernel event loop: processes, time, determinism."""

import pytest

from repro.errors import DeadlockError, KernelError, ProcessKilled
from repro.kernel import Condition, Kernel


@pytest.fixture
def kernel():
    return Kernel()


def test_time_starts_at_zero(kernel):
    assert kernel.now == 0.0


def test_spawn_requires_generator(kernel):
    def not_a_generator():
        return 42

    with pytest.raises(KernelError, match="expects a generator"):
        kernel.spawn(not_a_generator)   # passed the function, not a call


def test_process_runs_and_returns(kernel):
    def work():
        yield kernel.sleep(1.5)
        return "done"

    process = kernel.spawn(work())
    kernel.run()
    assert not process.alive
    assert process.result == "done"
    assert kernel.now == 1.5


def test_sleep_advances_virtual_time(kernel):
    times = []

    def sleeper():
        yield kernel.sleep(2.0)
        times.append(kernel.now)
        yield kernel.sleep(3.0)
        times.append(kernel.now)

    kernel.spawn(sleeper())
    kernel.run()
    assert times == [2.0, 5.0]


def test_negative_sleep_rejected(kernel):
    with pytest.raises(KernelError, match="negative"):
        kernel.sleep(-1.0)


def test_zero_sleep_allowed(kernel):
    def work():
        yield kernel.sleep(0.0)
        return kernel.now

    process = kernel.spawn(work())
    kernel.run()
    assert process.result == 0.0


def test_run_until_stops_at_horizon(kernel):
    log = []

    def ticker():
        while True:
            yield kernel.sleep(1.0)
            log.append(kernel.now)

    kernel.spawn(ticker(), daemon=True)
    kernel.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert kernel.now == 3.5


def test_run_until_advances_clock_even_without_events(kernel):
    kernel.run(until=10.0)
    assert kernel.now == 10.0


def test_same_time_events_run_in_spawn_order(kernel):
    order = []

    def worker(tag):
        order.append(tag)
        yield kernel.sleep(1.0)
        order.append(tag + "'")

    kernel.spawn(worker("a"))
    kernel.spawn(worker("b"))
    kernel.run()
    assert order == ["a", "b", "a'", "b'"]


def test_run_until_complete_returns_result(kernel):
    def work():
        yield kernel.sleep(1.0)
        return 99

    process = kernel.spawn(work())
    assert kernel.run_until_complete(process) == 99


def test_run_until_complete_raises_deadlock(kernel):
    cond = Condition(kernel)

    def waiter():
        yield cond.wait_for(lambda: False)

    process = kernel.spawn(waiter())
    with pytest.raises(DeadlockError):
        kernel.run_until_complete(process)


def test_run_until_complete_propagates_exception(kernel):
    def failing():
        yield kernel.sleep(1.0)
        raise ValueError("boom")

    process = kernel.spawn(failing())
    with pytest.raises(ValueError, match="boom"):
        kernel.run_until_complete(process)


def test_unobserved_exception_surfaces_from_run(kernel):
    def failing():
        yield kernel.sleep(1.0)
        raise RuntimeError("unobserved")

    kernel.spawn(failing())
    with pytest.raises(RuntimeError, match="unobserved"):
        kernel.run()


def test_kill_runs_finally_blocks(kernel):
    cleaned = []

    def worker():
        try:
            yield kernel.sleep(100.0)
        finally:
            cleaned.append(True)

    process = kernel.spawn(worker())
    kernel.run(until=1.0)
    kernel.kill(process)
    assert cleaned == [True]
    assert not process.alive


def test_kill_dead_process_is_noop(kernel):
    def quick():
        yield kernel.sleep(0.1)

    process = kernel.spawn(quick())
    kernel.run()
    kernel.kill(process)   # must not raise
    assert not process.alive


def test_killed_process_can_catch_processkilled(kernel):
    outcome = []

    def worker():
        try:
            yield kernel.sleep(100.0)
        except ProcessKilled:
            outcome.append("caught")

    process = kernel.spawn(worker())
    kernel.run(until=1.0)
    kernel.kill(process)
    assert outcome == ["caught"]


def test_checkpoint_yields_without_time_advance(kernel):
    order = []

    def first():
        order.append("first-1")
        yield kernel.checkpoint()
        order.append("first-2")

    def second():
        order.append("second")
        yield kernel.sleep(0)

    kernel.spawn(first())
    kernel.spawn(second())
    kernel.run()
    assert order == ["first-1", "second", "first-2"]
    assert kernel.now == 0.0


def test_bare_yield_acts_as_checkpoint(kernel):
    def worker():
        yield
        return kernel.now

    process = kernel.spawn(worker())
    kernel.run()
    assert process.result == 0.0


def test_yielding_garbage_raises_in_process(kernel):
    def worker():
        yield 42

    process = kernel.spawn(worker())
    with pytest.raises(KernelError, match="non-awaitable"):
        kernel.run_until_complete(process)


def test_call_at_plain_callback(kernel):
    seen = []
    kernel.call_at(5.0, seen.append, "x")
    kernel.run()
    assert seen == ["x"]
    assert kernel.now == 5.0


def test_call_at_in_past_rejected(kernel):
    def work():
        yield kernel.sleep(10.0)

    kernel.spawn(work())
    kernel.run()
    with pytest.raises(KernelError, match="past"):
        kernel.call_at(5.0, lambda: None)


def test_nested_generators_with_yield_from(kernel):
    def inner():
        yield kernel.sleep(1.0)
        return 10

    def outer():
        value = yield from inner()
        yield kernel.sleep(1.0)
        return value + 1

    process = kernel.spawn(outer())
    kernel.run()
    assert process.result == 11
    assert kernel.now == 2.0


def test_determinism_two_identical_kernels():
    def build():
        kernel = Kernel()
        trace = []

        def worker(tag, delay):
            for _ in range(3):
                yield kernel.sleep(delay)
                trace.append((tag, kernel.now))

        kernel.spawn(worker("a", 1.0))
        kernel.spawn(worker("b", 0.7))
        kernel.run()
        return trace

    assert build() == build()


def test_pending_events_counter(kernel):
    assert kernel.pending_events == 0
    kernel.call_at(1.0, lambda: None)
    kernel.call_at(2.0, lambda: None)
    assert kernel.pending_events == 2
    kernel.run()
    assert kernel.pending_events == 0
