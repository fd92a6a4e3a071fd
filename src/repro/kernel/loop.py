"""The event loop: virtual time, processes, and the awaitable protocol.

The kernel dispatches timed events in strict ``(when, seq)`` order: ``when``
is virtual time and ``seq`` is a monotonically increasing sequence number
that breaks ties, so execution order is fully deterministic.

One event queue implements that total order.  Same-instant events —
wakeups, resumes, zero-delay callbacks, which dominate every workload in
this repository — go to an array-backed *ready* deque (O(1) append/pop,
no comparisons).  Every other event is pushed onto a single binary heap
keyed by ``(when, seq)``.  When the ready deque drains, the kernel
advances the clock to the heap's earliest instant and moves **every**
entry at that exact instant into the ready deque before dispatching —
this is the tie-break invariant that keeps same-instant events scheduled
*during* dispatch (which always carry larger ``seq``) behind
earlier-``seq`` timed events at the same instant.

Awaitable protocol
------------------
Anything a process ``yield``\\ s must implement ``_block(kernel, process)``:
arrange for ``kernel._resume(process, value)`` (or ``_throw``) to be called
later, and return nothing.  Awaitables that support cancellation (so that
:meth:`Kernel.kill` can detach a blocked process) also implement
``_cancel(process)``.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from operator import attrgetter
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from repro.errors import DeadlockError, KernelError, ProcessKilled

ProcessBody = Generator[Any, Any, Any]

# Local aliases: event dispatch is the hottest loop in the repository
# (every simulated operation passes through it several times), and
# module-level lookups beat attribute traversal there.
_heappush = heapq.heappush
_heappop = heapq.heappop
_read_now = attrgetter("_now")


class Process:
    """A cooperative process: a generator driven by the kernel.

    Attributes
    ----------
    name:
        Human-readable label, used in error messages and traces.
    alive:
        True until the generator returns or raises.
    result:
        The generator's return value, once finished.
    exception:
        The terminating exception, if the process failed.
    """

    __slots__ = (
        "kernel",
        "name",
        "pid",
        "_gen",
        "alive",
        "result",
        "exception",
        "daemon",
        "_joiners",
        "_blocked_on",
        "_deadline_timer",
    )

    def __init__(self, kernel: "Kernel", gen: ProcessBody, name: str, pid: int,
                 daemon: bool = False):
        self.kernel = kernel
        self.name = name
        self.pid = pid
        self._gen = gen
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.daemon = daemon
        self._joiners: list[Process] = []
        # The awaitable this process is currently blocked on (for cancel).
        self._blocked_on: Any = None
        # Head of the chain of armed Timeout deadline timers (nested
        # Timeouts stack); cancelled wholesale whenever the process steps.
        self._deadline_timer: Optional[Timer] = None

    def join(self) -> "Join":
        """Awaitable that resumes the caller when this process finishes."""
        return Join(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.pid} {self.name!r} {state}>"


class Timer:
    """Cancellable handle for a scheduled callback.

    The scheduled entry stays in the queue after :meth:`cancel` (removing
    from the middle of a heap is O(n)); it is popped as a tombstone that
    runs nothing and is excluded from :attr:`Kernel.pending_events`.  This
    is what lets ``kill``/fence paths and satisfied ``Timeout``\\ s retire
    their deadline events in O(1) instead of spawning observer processes.
    """

    __slots__ = ("_kernel", "when", "_fn", "_args", "_cancelled", "_fired",
                 "_chain")

    def __init__(self, kernel: "Kernel", when: float,
                 fn: Callable[..., None], args: tuple):
        self._kernel = kernel
        self.when = when
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._fired = False
        self._chain: Optional[Timer] = None

    @property
    def active(self) -> bool:
        """True while the timer is armed (not yet fired or cancelled)."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Disarm the timer; True if it was still armed."""
        if self._cancelled or self._fired:
            return False
        self._cancelled = True
        kernel = self._kernel
        kernel._timer_cancels += 1
        kernel._cancelled_pending += 1
        return True

    def __call__(self) -> None:
        if self._cancelled:
            # Tombstone: the entry drained; fix the pending-count books.
            self._kernel._cancelled_pending -= 1
            return
        self._fired = True
        self._fn(*self._args)


class Sleep:
    """Awaitable: resume the process after ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise KernelError(f"cannot sleep for negative delay {delay!r}")
        self.delay = delay

    def _block(self, kernel: "Kernel", process: Process) -> None:
        kernel._schedule(kernel._now + self.delay, kernel._resume, process,
                         None)

    def _cancel(self, process: Process) -> None:
        # The timed event still fires but finds the process dead; harmless.
        pass


class Checkpoint:
    """Awaitable: yield the processor, resume at the same virtual time.

    Useful for letting other ready processes run (round-robin fairness in
    middleware loops) without advancing the clock.
    """

    __slots__ = ()

    def _block(self, kernel: "Kernel", process: Process) -> None:
        kernel._post(process, None)

    def _cancel(self, process: Process) -> None:
        pass


class TimeoutExpired(KernelError):
    """Raised inside a process when a ``Timeout``-wrapped wait expires."""


class Timeout:
    """Awaitable combinator: wait on ``inner``, but at most ``limit``.

    Resumes with the inner awaitable's value if it fires in time;
    raises :class:`TimeoutExpired` in the waiting process otherwise.

    Zero-spawn: the process blocks on the inner awaitable directly and a
    cancellable deadline :class:`Timer` is armed next to it.  Whichever
    side fires first wins — a resume cancels the timer (in
    :meth:`Kernel._step`), the timer detaches the process from the inner
    wait and throws.  Because the inner wait is scheduled before the
    deadline, a wait that is *already satisfiable* when the deadline lands
    wins the tie, including at ``limit=0``.

    >>> value = yield Timeout(queue.get(), limit=5.0)
    """

    __slots__ = ("inner", "limit")

    def __init__(self, inner: Any, limit: float):
        if limit < 0:
            raise KernelError(f"negative timeout {limit!r}")
        if not hasattr(inner, "_block"):
            raise KernelError(f"Timeout wraps awaitables, got {inner!r}")
        self.inner = inner
        self.limit = limit

    def _block(self, kernel: "Kernel", process: Process) -> None:
        # Block on the inner awaitable first (smaller seq: readiness wins
        # a same-instant tie with the deadline), then arm the deadline.
        self.inner._block(kernel, process)
        timer = Timer(kernel, kernel._now + self.limit,
                      kernel._timeout_expired, (process, self))
        timer._chain = process._deadline_timer
        process._deadline_timer = timer
        kernel._schedule(timer.when, timer)

    def _cancel(self, process: Process) -> None:
        # Detach the process from the inner wait; the armed deadline
        # timer chain is cancelled by the _step the canceller triggers.
        cancel = getattr(self.inner, "_cancel", None)
        if cancel is not None:
            cancel(process)


class Join:
    """Awaitable: resume when the target process finishes.

    The awaiting process receives the target's ``result``.  If the target
    terminated with an exception, that exception is re-raised in the waiter.
    """

    __slots__ = ("target",)

    def __init__(self, target: Process):
        self.target = target

    def _block(self, kernel: "Kernel", process: Process) -> None:
        if not self.target.alive:
            if self.target.exception is not None:
                kernel._schedule(kernel._now, kernel._throw, process,
                                 self.target.exception)
            else:
                kernel._post(process, self.target.result)
            return
        self.target._joiners.append(process)

    def _cancel(self, process: Process) -> None:
        if process in self.target._joiners:
            self.target._joiners.remove(process)


class Kernel:
    """A deterministic virtual-time scheduler for cooperative processes."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._next_pid: int = 0
        self._live_nondaemon: int = 0
        self._trace: Optional[Callable[[str], None]] = None
        # Observability counters: properties of the dispatched event
        # stream, exact whenever read (from inside a callback too).
        self._dispatched: int = 0
        self._peak_depth: int = 0
        self._same_instant: int = 0
        self._timer_cancels: int = 0
        self._cancelled_pending: int = 0
        # The event queue: events at the current instant, in ``seq``
        # order, and a ``(when, seq)`` heap of everything later.
        self._ready: deque = deque()
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        # Cache the bound resume/throw callbacks in the instance dict:
        # every scheduled event closes over one of them, and looking the
        # method up on the class would allocate a fresh bound method per
        # event (tens of thousands per simulated minute).
        self._resume = self._resume        # type: ignore[method-assign]
        self._throw = self._throw          # type: ignore[method-assign]
        #: ``clock()`` is :attr:`now` as a callable with no Python frame,
        #: for code that stamps every event it records with the time.
        self.clock: Callable[[], float] = partial(_read_now, self)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def nothing_due(self) -> bool:
        """True when no event is due at the current instant.

        Every event at ``now`` sits in the ready deque — ``_schedule``
        sends ``when == now`` there and :meth:`_drive` stages a whole
        instant out of the heap before dispatching it — so with the deque
        empty the next event, if any, lies in the future.  A caller about
        to spawn a process and drive the kernel until it finishes may
        then run that process's first step on its own stack instead: it
        would be the next event dispatched either way.
        """
        return not self._ready

    def spawn(self, gen: ProcessBody, name: str = "process",
              daemon: bool = False) -> Process:
        """Create a process from a generator and schedule its first step.

        Daemon processes (e.g. infinite middleware loops) do not keep
        :meth:`run` alive and are not reported as leaks.
        """
        # Exact-type check first: spawn is on the hot path (one call per
        # applicator/transaction) and the ``typing``-protocol isinstance
        # it replaced showed up as a top-five cost under cProfile.
        if type(gen) is not GeneratorType and not hasattr(gen, "send"):
            raise KernelError(
                f"spawn() expects a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        pid = self._next_pid
        self._next_pid += 1
        process = Process(self, gen, name, pid, daemon=daemon)
        if not daemon:
            self._live_nondaemon += 1
        self._post(process, None)
        return process

    def sleep(self, delay: float) -> Sleep:
        """Awaitable sleep: ``yield kernel.sleep(2.5)``."""
        return Sleep(delay)

    def checkpoint(self) -> Checkpoint:
        """Awaitable that yields control without advancing time."""
        return Checkpoint()

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Run a plain callback at virtual time ``when`` (>= now)."""
        if when < self._now:
            raise KernelError(f"call_at({when}) is in the past (now={self._now})")
        self._schedule(when, fn, *args)

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> Timer:
        """Schedule ``fn`` after ``delay`` and return a cancellable handle."""
        if delay < 0:
            raise KernelError(f"cannot schedule {delay!r} in the past")
        timer = Timer(self, self._now + delay, fn, args)
        self._schedule(timer.when, timer)
        return timer

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fires earlier.
        """
        if until is not None and self._ready and self._now > until:
            return
        self._drive(until, None, -1)
        if until is not None and self._now < until:
            self._now = until

    def step(self) -> bool:
        """Process exactly one event; False if nothing is pending."""
        return self._drive(None, None, 1) == 0

    def run_until_complete(self, process: Process) -> Any:
        """Drive the system until ``process`` finishes; return its result.

        Raises
        ------
        DeadlockError
            If the event queue drains while ``process`` is still blocked.
        """
        self._drive(None, process, -1)
        if process.alive:
            raise DeadlockError(
                f"no runnable work left but {process!r} has not finished")
        if process.exception is not None:
            raise process.exception
        return process.result

    def kill(self, process: Process) -> None:
        """Forcibly terminate a process (its ``finally`` blocks still run)."""
        if not process.alive:
            return
        blocked_on = process._blocked_on
        if blocked_on is not None and hasattr(blocked_on, "_cancel"):
            blocked_on._cancel(process)
        process._blocked_on = None
        self._step(process, ProcessKilled(f"{process.name} killed"), throw=True)

    def set_trace(self, fn: Optional[Callable[[str], None]]) -> None:
        """Install a trace hook receiving one line per process step."""
        self._trace = fn

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-unfired live events (for tests/diagnostics).

        Cancelled timers still occupy queue slots until drained but are
        excluded here — a satisfied ``Timeout`` no longer counts.
        """
        return self._seq - self._dispatched - self._cancelled_pending

    def counters(self) -> dict:
        """Event-queue observability counters.

        All values are properties of the dispatched event stream, so they
        repeat exactly for the same seed.
        """
        scheduled = self._seq
        return {
            "events_scheduled": scheduled,
            "events_dispatched": self._dispatched,
            "peak_queue_depth": self._peak_depth,
            "timer_cancellations": self._timer_cancels,
            "same_instant_events": self._same_instant,
            "same_instant_ratio": (round(self._same_instant / scheduled, 4)
                                   if scheduled else 0.0),
        }

    # ------------------------------------------------------------------
    # Internals — the event queue
    # ------------------------------------------------------------------
    def _schedule(self, when: float, fn: Callable[..., None],
                  *args: Any) -> None:
        seq = self._seq + 1
        self._seq = seq
        if when == self._now:
            self._same_instant += 1
            self._ready.append((fn, args))
        else:
            _heappush(self._heap, (when, seq, fn, args))

    def _post(self, process: Process, value: Any) -> None:
        # Fast path for the dominant case: resume ``process`` at the
        # current instant.  Equivalent to
        # ``_schedule(now, _resume, process, value)``.
        self._seq += 1
        self._same_instant += 1
        self._ready.append((self._resume, (process, value)))

    def _drive(self, until: Optional[float], process: Optional[Process],
               budget: int) -> int:
        """The dispatch loop, the hottest code in the repository.

        Runs events in ``(when, seq)`` order until ``budget`` of them have
        run (a negative budget never runs out), ``process`` (if given) has
        finished, or no event at or before ``until`` is left; returns the
        unspent budget.

        When the ready deque is empty the clock moves to the earliest
        timed instant and *every* heap entry at that exact instant is
        staged into the deque before anything dispatches — the tie-break
        invariant: any event scheduled at the new ``now`` during the
        upcoming dispatch carries a larger ``seq`` than everything staged
        here, and events at the same instant left in the heap would
        otherwise be overtaken.  Nothing is staged, and the clock stays
        put, while the earliest instant lies beyond ``until``.
        """
        ready = self._ready
        heap = self._heap
        popleft = ready.popleft
        append = ready.append
        while budget and (process is None or process.alive):
            if not ready:
                if not heap:
                    break
                when = heap[0][0]
                if until is not None and when > until:
                    break
                # Queue depth is sampled once per instant, not per event.
                depth = self._seq - self._dispatched
                if depth > self._peak_depth:
                    self._peak_depth = depth
                self._now = when
                while heap and heap[0][0] == when:
                    entry = _heappop(heap)
                    append((entry[2], entry[3]))
            fn, args = popleft()
            self._dispatched += 1
            budget -= 1
            fn(*args)
        return budget

    # ------------------------------------------------------------------
    # Internals — process stepping
    # ------------------------------------------------------------------
    def _resume(self, process: Process, value: Any) -> None:
        if process.alive:
            self._step(process, value, False)

    def _throw(self, process: Process, exc: BaseException) -> None:
        if process.alive:
            self._step(process, exc, True)

    def _timeout_expired(self, process: Process, timeout: Timeout) -> None:
        # Fires only while the process is still parked on the wait that
        # armed it: any earlier resume/kill stepped the process, and
        # _step cancels the whole deadline chain.
        if not process.alive:  # pragma: no cover - defensive
            return
        blocked_on = process._blocked_on
        if blocked_on is not None:
            cancel = getattr(blocked_on, "_cancel", None)
            if cancel is not None:
                cancel(process)
            process._blocked_on = None
        self._step(process, TimeoutExpired(
            f"wait did not complete within {timeout.limit}"), throw=True)

    def _step(self, process: Process, value: Any, throw: bool) -> None:
        deadline = process._deadline_timer
        if deadline is not None:
            # The process is moving: every armed deadline for its previous
            # wait (nested Timeouts chain) is obsolete.
            process._deadline_timer = None
            while deadline is not None:
                deadline.cancel()
                deadline = deadline._chain
        process._blocked_on = None
        if self._trace is not None:  # pragma: no cover - tracing aid
            self._trace(f"[{self._now:.6f}] step {process.name}")
        gen = process._gen
        try:
            if throw:
                awaited = gen.throw(value)
            else:
                awaited = gen.send(value)
        except StopIteration as stop:
            self._finish(process, result=stop.value, exception=None)
            return
        except ProcessKilled as exc:
            self._finish(process, result=None, exception=None if throw else exc)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to joiners
            self._finish(process, result=None, exception=exc)
            return
        if awaited is None:
            # Bare ``yield`` acts as a checkpoint.
            awaited = Checkpoint()
        try:
            block = awaited._block
        except AttributeError:
            err = KernelError(
                f"process {process.name!r} yielded non-awaitable {awaited!r}"
            )
            self._step(process, err, throw=True)
            return
        process._blocked_on = awaited
        block(self, process)

    def _finish(self, process: Process, result: Any,
                exception: Optional[BaseException]) -> None:
        process.alive = False
        process.result = result
        process.exception = exception
        if not process.daemon:
            self._live_nondaemon -= 1
        joiners, process._joiners = process._joiners, []
        for waiter in joiners:
            if exception is not None:
                self._schedule(self._now, self._throw, waiter, exception)
            else:
                self._post(waiter, result)
        if exception is not None and not joiners:
            # Surface unobserved failures instead of dropping them silently.
            raise exception
