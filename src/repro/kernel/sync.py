"""Synchronisation for kernel processes: :class:`Condition`, the
predicate wait, e.g. ALG-STRONG-SESSION-SI's "``Tr`` will wait if
``seq(c) > seq(DBsec)``".

A one-shot signal or a blocking FIFO is a predicate over plain state
plus :meth:`Condition.notify_all`; the replication middleware keeps its
update and pending queues as plain deques driven by callbacks
(:mod:`repro.core.refresh`).
"""

from __future__ import annotations

from typing import Callable

from repro.kernel.loop import Kernel, Process


class _ConditionWait:
    __slots__ = ("condition", "predicate")

    def __init__(self, condition: "Condition",
                 predicate: Callable[[], bool]):
        self.condition = condition
        self.predicate = predicate

    def _block(self, kernel: Kernel, process: Process) -> None:
        if self.predicate():
            kernel._post(process, None)
        else:
            self.condition._waiters.append((process, self.predicate))

    def _cancel(self, process: Process) -> None:
        c = self.condition
        c._waiters = [(p, pred) for p, pred in c._waiters if p is not process]


class Condition:
    """Predicate-based wait: processes sleep until their predicate holds.

    State changes must be followed by :meth:`notify_all`, which re-evaluates
    every waiter's predicate and wakes the satisfied ones.  The wait/notify
    pair is race-free because the kernel is single-threaded.
    """

    def __init__(self, kernel: Kernel, name: str = "condition"):
        self.kernel = kernel
        self.name = name
        self._waiters: list[tuple[Process, Callable[[], bool]]] = []

    def wait_for(self, predicate: Callable[[], bool]) -> _ConditionWait:
        """Awaitable: resumes once ``predicate()`` is true."""
        return _ConditionWait(self, predicate)

    def notify_all(self) -> None:
        """Wake every waiter whose predicate is now satisfied."""
        if not self._waiters:           # common case: nobody is blocked
            return
        kernel = self.kernel
        still_waiting: list[tuple[Process, Callable[[], bool]]] = []
        for process, predicate in self._waiters:
            if predicate():
                kernel._post(process, None)
            else:
                still_waiting.append((process, predicate))
        self._waiters = still_waiting

    @property
    def waiting(self) -> int:
        """Number of currently blocked waiters."""
        return len(self._waiters)
