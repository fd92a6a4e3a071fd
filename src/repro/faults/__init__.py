"""Deterministic fault injection for the replicated system.

Three layers, all seeded and all running on the virtual-time kernel:

* :mod:`repro.faults.channel` — per-link message faults (drop,
  duplicate, jitter, reorder) under the :class:`FaultyChannel`;
* :mod:`repro.faults.plan` — scheduled site crashes/recoveries and
  propagator stalls, replayed by a :class:`FaultInjector`;
* :mod:`repro.faults.harness` — the chaos harness tying both to a
  seeded client workload and auditing the run with the SI checkers
  (``python -m repro.faults``).

The harness symbols are loaded lazily: ``repro.core.propagation``
imports this package for the channel primitives, while the harness
imports ``repro.core.system`` — eager re-export would be a cycle.
"""

from repro.faults.channel import NO_FAULTS, ChannelFaults, FaultyChannel
from repro.faults.plan import ACTIONS, FaultEvent, FaultInjector, FaultPlan

_HARNESS = ("ChaosConfig", "ChaosResult", "DEFAULT_FAULTS", "run_chaos")

__all__ = [
    "ACTIONS",
    "ChannelFaults",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyChannel",
    "NO_FAULTS",
    *_HARNESS,
]


def __getattr__(name: str):
    if name in _HARNESS:
        from repro.faults import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
