"""Shared server resources: processor-sharing, round-robin, and FIFO.

The paper models each site's server as "a shared resource with a
round-robin queueing scheme having a time slice of 0.001 seconds"
(Section 5).  With 0.02 s operations, a 1 ms slice is operationally the
processor-sharing (PS) limit, so the default server here is an
event-efficient exact PS implementation (O(log n) events per job instead
of one event per slice).  The exact time-sliced :class:`RoundRobinServer`
is also provided; the server-discipline ablation benchmark shows the two
agree on the paper's workloads.

Every discipline has one service interface, a callback::

    server.request_call(0.2, done, txn)   # done(txn) after 0.2 s of service

The job completes when its cumulative service reaches the demand, under
sharing with whatever else is running.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional

from repro.errors import SimulationError
from repro.kernel import Kernel

# Hot-path aliases: every job arrival/departure goes through the heap.
_heappush = heapq.heappush
_heappop = heapq.heappop


class ProcessorSharingServer:
    """Exact processor-sharing server (round-robin with slice -> 0).

    Implementation: a *virtual service clock* V advances at rate 1/n while
    n jobs are present.  A job arriving with demand d completes when V
    reaches ``V_arrival + d``; completions are a min-heap on that target,
    and only arrivals/departures generate events.
    """

    def __init__(self, kernel: Kernel, name: str = "server"):
        self.kernel = kernel
        self.name = name
        self._virtual = 0.0            # virtual service clock V
        self._last_update = 0.0
        self._jobs: dict[int, tuple] = {}          # job id -> (fn, args)
        self._heap: list[tuple[float, int]] = []   # (target V, job id)
        self._next_job_id = 0
        self._completion_token = 0
        #: Wall time of the armed completion event carrying the current
        #: token, or None when no valid event is outstanding.  While that
        #: event is being dispatched it holds the current instant, so
        #: admissions made by completion callbacks arm nothing.
        self._next_fire: Optional[float] = None
        self.jobs_completed = 0
        self.busy_time = 0.0

    # -- public ---------------------------------------------------------
    def request_call(self, demand: float, fn, *args) -> None:
        """Admit a job that invokes ``fn(*args)`` on completion.

        The service interface of all three disciplines.  The contract:

        * ``fn`` runs synchronously inside the server's completion event,
          at the instant the job's service reaches ``demand`` and before
          the server arms its next completion.  ``demand == 0`` consumes
          no service and runs ``fn`` at once, inside this call.
        * ``fn`` may admit new jobs, to this server too.  The server arms
          nothing while it is completing; it arms once, after the last
          callback of the event, over every job then present, so a job
          admitted from a callback costs no event of its own.
        * A caller whose admission must *not* be seen by that re-arm (it
          stands for a process that would have resumed one queue slot
          later) re-requests through ``kernel._schedule(now, ...)``.

        An admitted job always runs to completion.
        """
        if demand < 0:
            raise SimulationError(f"negative service demand {demand}")
        # _advance() inlined: admission is one of the two hottest call
        # sites in the whole simulation (one per operation).
        now = self.kernel._now
        jobs = self._jobs
        n = len(jobs)
        if n > 0:
            elapsed = now - self._last_update
            self._virtual += elapsed / n
            self.busy_time += elapsed
        self._last_update = now
        if demand == 0:
            fn(*args)
            return
        job_id = self._next_job_id
        self._next_job_id += 1
        jobs[job_id] = (fn, args)
        heap = self._heap
        _heappush(heap, (self._virtual + demand, job_id))
        # An arrival only moves the next completion *later* unless the new
        # job is the new heap head: the armed event then fires early and
        # re-arms itself, so no reschedule is needed here.
        if self._next_fire is None or heap[0][1] == job_id:
            self._reschedule()

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which the server was busy."""
        self._advance()
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    # -- internals --------------------------------------------------------
    def _advance(self) -> None:
        """Bring the virtual clock up to kernel.now."""
        now = self.kernel._now
        n = len(self._jobs)
        if n > 0:
            elapsed = now - self._last_update
            self._virtual += elapsed / n
            self.busy_time += elapsed
        self._last_update = now

    def _reschedule(self) -> None:
        """Arm the next-completion event, reusing a pending one if it can.

        An arrival slows everyone down, pushing the next completion
        *later* — the already-armed event then fires early, finds no job
        due, and re-arms itself with an accurate ETA.  Keeping it (rather
        than token-invalidating and pushing a fresh event per arrival)
        cuts the stale-event churn that dominated the heap under load.
        A new event is needed only when the server was idle or the new
        job completes before the armed event fires.
        """
        heap = self._heap
        eta = (heap[0][0] - self._virtual) * len(self._jobs)
        if eta < 0.0:
            eta = 0.0
        kernel = self.kernel
        due = kernel._now + eta
        next_fire = self._next_fire
        if next_fire is not None and next_fire <= due:
            return                          # pending event fires in time
        token = self._completion_token + 1
        self._completion_token = token
        self._next_fire = due
        # Direct _schedule: eta is clamped non-negative so call_at's
        # past-time guard can never fire here.
        kernel._schedule(due, self._complete, token)

    def _complete(self, token: int) -> None:
        if token != self._completion_token:
            return     # superseded by a later arrival/departure
        # _advance() inlined: one completion event per job departure.
        kernel = self.kernel
        now = kernel._now
        # This event is the armed one until it re-arms below: whatever
        # the callbacks admit, "the pending event fires in time".
        self._next_fire = now
        jobs = self._jobs
        n = len(jobs)
        if n > 0:
            elapsed = now - self._last_update
            self._virtual += elapsed / n
            self.busy_time += elapsed
        self._last_update = now
        heap = self._heap
        horizon = self._virtual + 1e-12
        # Complete every job whose target has been reached (ties possible).
        while heap and heap[0][0] <= horizon:
            _target, job_id = _heappop(heap)
            fn, args = jobs.pop(job_id)
            self.jobs_completed += 1
            fn(*args)
        # _reschedule() inlined: the one arming of this event, over every
        # job present by now.
        if not heap:
            self._next_fire = None
            return
        eta = (heap[0][0] - self._virtual) * len(jobs)
        if eta < 0.0:
            eta = 0.0
        due = now + eta
        token = self._completion_token + 1
        self._completion_token = token
        self._next_fire = due
        kernel._schedule(due, self._complete, token)


class _QueuedServer:
    """Common machinery for servers that serve one queued job at a time.

    A queue entry is ``[fn, args, remaining]``.  Service is a chain of
    kernel callbacks: :meth:`_serve_next` takes the head job and arms
    :meth:`_served` after its service period, which charges the period
    and calls :meth:`_serve_next` again, until the queue is empty.  The
    chain is started through one same-instant hop when a job arrives at
    an idle server.  :meth:`request_call`'s contract holds here too: a
    callback's admissions join the queue that the chain is about to
    re-read.
    """

    def __init__(self, kernel: Kernel, name: str = "server"):
        self.kernel = kernel
        self.name = name
        self._queue: deque[list] = deque()
        #: True from the hop that starts a service chain until the chain
        #: finds the queue empty.
        self._serving = False
        self.jobs_completed = 0
        self.busy_time = 0.0

    def request_call(self, demand: float, fn, *args) -> None:
        """See :meth:`ProcessorSharingServer.request_call`."""
        if demand < 0:
            raise SimulationError(f"negative service demand {demand}")
        if demand == 0:
            fn(*args)
            return
        self._queue.append([fn, args, demand])
        if not self._serving:
            self._serving = True
            kernel = self.kernel
            kernel._schedule(kernel._now, self._serve_next)

    @property
    def active_jobs(self) -> int:
        return len(self._queue)

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def _serve_next(self) -> None:
        """Arm the head job's next service period, or go idle."""
        if not self._queue:
            self._serving = False
            return
        job = self._queue.popleft()
        period = self._period(job)
        kernel = self.kernel
        kernel._schedule(kernel._now + period, self._served, job, period)

    def _served(self, job: list, period: float) -> None:
        self.busy_time += period
        remaining = job[2] - period
        if remaining <= 1e-12:
            self.jobs_completed += 1
            job[0](*job[1])
        else:
            job[2] = remaining
            self._queue.append(job)
        self._serve_next()

    def _period(self, job: list) -> float:  # pragma: no cover - overridden
        raise NotImplementedError


class RoundRobinServer(_QueuedServer):
    """Exact time-sliced round-robin server (Table 1: slice = 0.001 s)."""

    def __init__(self, kernel: Kernel, name: str = "server",
                 time_slice: float = 0.001):
        if time_slice <= 0:
            raise SimulationError("time slice must be positive")
        super().__init__(kernel, name)
        self.time_slice = time_slice

    def _period(self, job: list) -> float:
        return min(self.time_slice, job[2])


class FifoServer(_QueuedServer):
    """First-come-first-served server (for tests and comparisons)."""

    def _period(self, job: list) -> float:
        return job[2]
