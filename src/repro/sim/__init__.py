"""CSIM-equivalent discrete-event simulation substrate.

The paper's performance study (Section 5) is built on the CSIM 18 C++
simulation engine: processes, shared server resources with round-robin
queueing, exponential variates, and confidence-interval statistics.  This
package provides the same primitives on top of :mod:`repro.kernel`:

* :mod:`repro.sim.rng` — reproducible named random streams (exponential /
  uniform / Bernoulli draws per model component);
* :mod:`repro.sim.resources` — the shared CPU server at each site, as an
  exact time-sliced **round-robin** server (Table 1: 0.001 s slice) and as
  its event-efficient **processor-sharing** limit (the default; the
  ablation benchmark shows the two agree);
* :mod:`repro.sim.stats` — warm-up trimming, per-class response times,
  response-time-bounded throughput (the paper's "transactions that finish
  in 3 s or less"), and 95% confidence intervals over replications.
"""

from repro.sim.rng import RandomStreams
from repro.sim.resources import (
    FifoServer,
    ProcessorSharingServer,
    RoundRobinServer,
)
from repro.sim.stats import (
    ConfidenceInterval,
    MetricsCollector,
    SummaryStats,
)

__all__ = [
    "RandomStreams",
    "ProcessorSharingServer",
    "RoundRobinServer",
    "FifoServer",
    "SummaryStats",
    "MetricsCollector",
    "ConfidenceInterval",
]
