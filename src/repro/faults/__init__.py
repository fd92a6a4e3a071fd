"""Deterministic fault injection for the replicated system.

Three layers, all seeded and all running on the virtual-time kernel:

* :mod:`repro.faults.channel` — per-link message faults (drop,
  duplicate, jitter, reorder) under the :class:`FaultyChannel`;
* :mod:`repro.faults.plan` — scheduled site crashes/recoveries and
  propagator stalls, replayed by a :class:`FaultInjector`;
* :mod:`repro.faults.harness` — the chaos harness tying both to a
  seeded client workload and auditing the run with the SI checkers
  (``python -m repro.faults``).
"""

from repro.faults.channel import NO_FAULTS, ChannelFaults, FaultyChannel
from repro.faults.plan import ACTIONS, FaultEvent, FaultInjector, FaultPlan

__all__ = [
    "ACTIONS",
    "ChannelFaults",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyChannel",
    "NO_FAULTS",
]
