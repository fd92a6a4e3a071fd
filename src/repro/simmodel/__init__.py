"""The paper's simulation model (Section 5) and experiment driver.

A faithful port of the CSIM model used for the performance analysis in
Section 6: client processes with exponential think/session times submit a
TPC-W-derived mix of transactions; update transactions execute at the
primary's shared server (strong SI + first-committer-wins with a 1%
restart probability); a propagator ships start/commit records to every
secondary on a 10 s cycle; a refresher plus concurrent applicator threads
apply them under relationships 1-3; and the three comparison algorithms
(ALG-WEAK-SI, ALG-STRONG-SESSION-SI, ALG-STRONG-SI) differ only in the
sequence number a read-only transaction must wait for.

* :mod:`repro.simmodel.params` — Table 1 as a dataclass;
* :mod:`repro.simmodel.model` — the model, as one event graph;
* :mod:`repro.simmodel.experiment` — replication runs, warm-up handling
  and 95% confidence intervals (Section 6.1 methodology).
"""

from repro.simmodel.params import SimulationParameters, TABLE_1_DEFAULTS
from repro.simmodel.model import LazyReplicationModel
from repro.simmodel.experiment import (
    AggregatedResult,
    RunResult,
    run_once,
    run_replications,
)

__all__ = [
    "SimulationParameters",
    "TABLE_1_DEFAULTS",
    "LazyReplicationModel",
    "RunResult",
    "AggregatedResult",
    "run_once",
    "run_replications",
]
