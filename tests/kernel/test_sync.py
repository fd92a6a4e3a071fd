"""Tests for the kernel's synchronisation primitive, Condition."""

import pytest

from repro.kernel import Condition, Kernel


@pytest.fixture
def kernel():
    return Kernel()


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
