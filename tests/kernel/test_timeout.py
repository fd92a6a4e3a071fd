"""Tests for the Timeout awaitable combinator."""

import pytest

from repro.errors import KernelError
from repro.kernel import Condition, Kernel, Timeout, TimeoutExpired
from repro.sim.resources import ProcessorSharingServer


@pytest.fixture
def kernel():
    return Kernel()


def test_inner_completes_in_time(kernel):
    cond = Condition(kernel)
    box = []

    def waiter():
        yield Timeout(cond.wait_for(lambda: box), limit=10.0)
        return (kernel.now, box[0])

    def setter():
        yield kernel.sleep(3.0)
        box.append("x")
        cond.notify_all()

    wait_proc = kernel.spawn(waiter())
    kernel.spawn(setter())
    kernel.run()
    assert wait_proc.result == (3.0, "x")


def test_timeout_expires(kernel):
    cond = Condition(kernel)

    def waiter():
        try:
            yield Timeout(cond.wait_for(lambda: False), limit=5.0)
        except TimeoutExpired:
            return ("timeout", kernel.now)

    process = kernel.spawn(waiter())
    kernel.run()
    assert process.result == ("timeout", 5.0)


def test_timeout_detaches_inner_wait(kernel):
    """After expiry the condition must have no stale waiter: a later
    notify finds nobody to wake."""
    cond = Condition(kernel)
    state = {"ready": False}
    woken = []

    def waiter():
        try:
            yield Timeout(cond.wait_for(lambda: state["ready"]), limit=1.0)
            woken.append(kernel.now)
        except TimeoutExpired:
            pass

    kernel.spawn(waiter())
    kernel.run()
    assert cond.waiting == 0
    state["ready"] = True
    cond.notify_all()
    kernel.run()
    assert woken == []
    assert kernel.pending_events == 0


def test_event_after_timeout_not_delivered_twice(kernel):
    """A notify that lands after the expiry must not resume the process
    a second time (here: cut its later sleep short)."""
    cond = Condition(kernel)
    state = {"ready": False}
    results = []

    def waiter():
        try:
            yield Timeout(cond.wait_for(lambda: state["ready"]), limit=2.0)
            results.append(("value", kernel.now))
        except TimeoutExpired:
            results.append(("timeout", kernel.now))
        yield kernel.sleep(10.0)
        results.append(("slept", kernel.now))

    kernel.spawn(waiter())
    kernel.run(until=5.0)
    state["ready"] = True
    cond.notify_all()
    kernel.run()
    assert results == [("timeout", 2.0), ("slept", 12.0)]


def test_zero_timeout_on_ready_awaitable(kernel):
    """limit=0 with an already-satisfiable wait is a race the kernel must
    resolve deterministically: readiness is scheduled before the deadline."""
    cond = Condition(kernel)
    box = ["ready"]

    def waiter():
        yield Timeout(cond.wait_for(lambda: box), limit=0.0)
        return box[0]

    process = kernel.spawn(waiter())
    kernel.run()
    assert process.result == "ready"


def test_inner_exception_propagates(kernel):
    class Exploding:
        def _block(self, kernel_, process):
            raise RuntimeError("inner boom")

        def _cancel(self, process):  # pragma: no cover - never reached
            pass

    def waiter():
        yield Timeout(Exploding(), limit=5.0)

    process = kernel.spawn(waiter())
    with pytest.raises(RuntimeError, match="inner boom"):
        kernel.run_until_complete(process)


def test_negative_limit_rejected(kernel):
    cond = Condition(kernel)
    with pytest.raises(KernelError, match="negative timeout"):
        Timeout(cond.wait_for(lambda: True), limit=-1.0)


def test_non_awaitable_inner_rejected():
    with pytest.raises(KernelError, match="wraps awaitables"):
        Timeout(42, limit=1.0)


@pytest.mark.parametrize("inner", ["sleep", "checkpoint", "server-request"])
def test_inner_that_cannot_detach_is_rejected(kernel, inner):
    """A sleep, a checkpoint or a server request cannot be withdrawn when
    the deadline lands first: its late resume would wake the process out
    of whatever it waits on next.  Timeout refuses them up front."""
    make = {
        "sleep": lambda: kernel.sleep(10.0),
        "checkpoint": kernel.checkpoint,
        "server-request": lambda: ProcessorSharingServer(kernel).request(10.0),
    }[inner]
    with pytest.raises(KernelError, match="wraps awaitables"):
        Timeout(make(), limit=1.0)
