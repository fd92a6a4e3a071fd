"""The paper's contribution: lazy replication with session-level SI.

This package implements Sections 3 and 4 of Daudjee & Salem (VLDB 2006):

* a **lazy master architecture** (Figure 1): one primary executing all
  update transactions, N fully-replicated secondaries executing read-only
  transactions;
* **Algorithm 3.1** — the primary's log-sniffing update propagator
  (:mod:`repro.core.propagation`);
* **Algorithms 3.2/3.3** — the per-secondary refresher and its concurrent
  applicator threads (:mod:`repro.core.refresh`), which maintain
  relationships 1-3 of Section 3.1 and hence completeness (Theorem 3.1)
  and global weak SI (Theorem 3.2);
* **ALG-STRONG-SESSION-SI / ALG-WEAK-SI / ALG-STRONG-SI** — the
  session-sequence-number machinery of Section 4 and the two comparison
  algorithms of Section 6 (:mod:`repro.core.sessions`), selected per client
  session via :class:`~repro.core.guarantees.Guarantee`;
* a **client facade** (:class:`~repro.core.system.ReplicatedSystem`) with
  session-scoped transaction execution.

Everything runs on the deterministic virtual-time kernel, so propagation
delays, failures and interleavings are fully controllable from tests.
"""

from repro.core.autovacuum import AutovacuumDaemon
from repro.core.failover import AutoFailover, FailoverConfig
from repro.core.guarantees import Guarantee
from repro.core.monitoring import (StalenessProbe, SystemStatus,
                                   aggregate_sessions, system_status)
from repro.core.records import (PropagatedAbort, PropagatedBatch,
                                PropagatedCommit, PropagatedStart)
from repro.core.promotion import PromotionConfig, PromotionReport
from repro.core.propagation import Propagator, ReliableLink
from repro.core.refresh import Refresher
from repro.core.sessions import SequenceTracker
from repro.core.sharding import ShardingConfig, shard_of
from repro.core.site import PrimarySite, SecondarySite
from repro.core.system import ClientSession, ReplicatedSystem

__all__ = [
    "AutoFailover",
    "AutovacuumDaemon",
    "FailoverConfig",
    "Guarantee",
    "StalenessProbe",
    "SystemStatus",
    "system_status",
    "aggregate_sessions",
    "PropagatedStart",
    "PropagatedBatch",
    "PropagatedCommit",
    "PropagatedAbort",
    "PromotionConfig",
    "PromotionReport",
    "Propagator",
    "ReliableLink",
    "Refresher",
    "SequenceTracker",
    "ShardingConfig",
    "shard_of",
    "PrimarySite",
    "SecondarySite",
    "ClientSession",
    "ReplicatedSystem",
]
