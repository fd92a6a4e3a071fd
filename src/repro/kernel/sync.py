"""Synchronisation primitives for kernel processes.

* :class:`Condition` — predicate waits, e.g. ALG-STRONG-SESSION-SI's
  "``Tr`` will wait if ``seq(c) > seq(DBsec)``".
* :class:`Event` — one-shot signals (commit notifications).
* :class:`Queue` — a blocking FIFO, the canonical awaitable of the kernel's
  own tests and examples.  The replication middleware keeps its update and
  pending queues as plain deques driven by callbacks
  (:mod:`repro.core.refresh`), not as kernel queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import KernelError
from repro.kernel.loop import Kernel, Process


class _QueueGet:
    __slots__ = ("queue",)

    def __init__(self, queue: "Queue"):
        self.queue = queue

    def _block(self, kernel: Kernel, process: Process) -> None:
        q = self.queue
        if q._items:
            item = q._items.popleft()
            q._wake_putters(kernel)
            kernel._post(process, item)
        else:
            q._getters.append(process)

    def _cancel(self, process: Process) -> None:
        try:
            self.queue._getters.remove(process)
        except ValueError:
            pass


class _QueuePut:
    __slots__ = ("queue", "item")

    def __init__(self, queue: "Queue", item: Any):
        self.queue = queue
        self.item = item

    def _block(self, kernel: Kernel, process: Process) -> None:
        q = self.queue
        if q.capacity is None or len(q._items) < q.capacity or q._getters:
            q._deliver(kernel, self.item)
            kernel._post(process, None)
        else:
            q._putters.append((process, self.item))

    def _cancel(self, process: Process) -> None:
        q = self.queue
        q._putters = deque((p, i) for p, i in q._putters if p is not process)


class Queue:
    """Deterministic FIFO queue with blocking ``get`` and optional capacity.

    ``put`` is non-blocking (and usable from plain callbacks) when the queue
    is unbounded; ``put_wait`` returns an awaitable honouring ``capacity``.
    """

    def __init__(self, kernel: Kernel, capacity: Optional[int] = None,
                 name: str = "queue"):
        if capacity is not None and capacity <= 0:
            raise KernelError("queue capacity must be positive or None")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()
        self._putters: Deque[tuple[Process, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of queued items in FIFO order (monitoring only)."""
        return tuple(self._items)

    def peek(self) -> Any:
        """Return the head item without removing it (raises if empty)."""
        if not self._items:
            raise KernelError(f"peek on empty queue {self.name!r}")
        return self._items[0]

    def put(self, item: Any) -> None:
        """Enqueue immediately; only valid for unbounded queues when full."""
        if (self.capacity is not None and len(self._items) >= self.capacity
                and not self._getters):
            raise KernelError(
                f"synchronous put on full bounded queue {self.name!r}; "
                "use put_wait()"
            )
        self._deliver(self.kernel, item)

    def put_wait(self, item: Any) -> _QueuePut:
        """Awaitable put that blocks while a bounded queue is full."""
        return _QueuePut(self, item)

    def get(self) -> _QueueGet:
        """Awaitable get: ``item = yield queue.get()``."""
        return _QueueGet(self)

    def drain(self) -> list[Any]:
        """Remove and return all queued items (failure injection helper)."""
        items = list(self._items)
        self._items.clear()
        self._wake_putters(self.kernel)
        return items

    # -- internals ------------------------------------------------------
    def _deliver(self, kernel: Kernel, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            kernel._post(getter, item)
        else:
            self._items.append(item)

    def _wake_putters(self, kernel: Kernel) -> None:
        while self._putters and (
                self.capacity is None or len(self._items) < self.capacity):
            putter, item = self._putters.popleft()
            self._deliver(kernel, item)
            kernel._post(putter, None)


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


class _EventWait:
    __slots__ = ("event",)

    def __init__(self, event: "Event"):
        self.event = event

    def _block(self, kernel: Kernel, process: Process) -> None:
        if self.event._fired:
            kernel._post(process, self.event._value)
        else:
            self.event._waiters.append(process)

    def _cancel(self, process: Process) -> None:
        try:
            self.event._waiters.remove(process)
        except ValueError:
            pass


class Event:
    """One-shot event carrying an optional value."""

    def __init__(self, kernel: Kernel, name: str = "event"):
        self.kernel = kernel
        self.name = name
        self._fired = False
        self._value: Any = None
        self._waiters: list[Process] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def fire(self, value: Any = None) -> None:
        """Set the event, waking all current and future waiters."""
        if self._fired:
            raise KernelError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.kernel._post(process, value)

    def wait(self) -> _EventWait:
        """Awaitable: resumes (with the fired value) once the event fires."""
        return _EventWait(self)
