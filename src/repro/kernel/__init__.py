"""Deterministic cooperative virtual-time kernel.

This is the concurrency substrate for the whole reproduction.  The paper's
middleware (Algorithms 3.1-3.3) is written in terms of blocking processes,
FIFO queues and condition waits; commercial deployments would run these on
OS threads.  We instead run them on a single-threaded, virtual-time
scheduler so that

* every interleaving is **deterministic** and replayable in tests,
* virtual time (propagation delays, think times) costs nothing to simulate,
* the very same kernel powers both the functional replicated system
  (:mod:`repro.core`) and the CSIM-style performance model
  (:mod:`repro.simmodel`).

A *process* is a Python generator that ``yield``\\ s awaitable objects
(sleeps, condition waits, timeouts) and is resumed by the kernel with the
awaited value.

Example
-------
>>> from repro.kernel import Condition, Kernel
>>> k = Kernel()
>>> ready = Condition(k)
>>> mailbox = []
>>> def producer():
...     yield k.sleep(1.0)
...     mailbox.append("hello")
...     ready.notify_all()
>>> def consumer():
...     yield ready.wait_for(lambda: mailbox)
...     return (k.now, mailbox.pop(0))
>>> _ = k.spawn(producer())
>>> c = k.spawn(consumer())
>>> k.run()
>>> c.result
(1.0, 'hello')
"""

from repro.kernel.loop import (Checkpoint, Kernel, Process, Sleep,
                               Timeout, TimeoutExpired, Timer)
from repro.kernel.sync import Condition

__all__ = [
    "Kernel",
    "Process",
    "Sleep",
    "Checkpoint",
    "Timeout",
    "TimeoutExpired",
    "Timer",
    "Condition",
]
