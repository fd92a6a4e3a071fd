"""Table 1 — simulation model parameters.

Every default below is taken verbatim from Table 1 of the paper (plus the
Section 6.1 methodology constants: 35-minute runs, 5-minute warm-up, five
replications, 3 s response-time threshold for the throughput curves).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.guarantees import Guarantee
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SimulationParameters:
    """Parameters of one simulation configuration.

    Table 1 parameters
    ------------------
    num_sec:              number of secondary sites (varies per experiment)
    clients_per_secondary: number of clients per secondary (20 by default;
                          figures 2-4 instead vary the *total* via
                          ``with_total_clients``)
    think_time:           mean client think time, 7 s (TPC-W)
    session_time:         mean session duration, 15 min (TPC-W)
    update_tran_prob:     probability a transaction is an update, 20%
                          (TPC-W "shopping" mix; 5% is "browsing")
    abort_prob:           update transaction abort probability, 1%
    tran_size_min/max:    operations per transaction, uniform 5..15
                          (mean ``tran_size`` = 10)
    op_service_time:      service time per operation, 0.02 s
    update_op_prob:       probability an update transaction's operation is
                          an update operation, 30%
    propagation_delay:    propagator think time, 10 s
    time_slice:           server round-robin time slice, 0.001 s
    """

    num_sec: int = 5
    clients_per_secondary: int = 20
    think_time: float = 7.0
    session_time: float = 15 * 60.0
    update_tran_prob: float = 0.20
    abort_prob: float = 0.01
    tran_size_min: int = 5
    tran_size_max: int = 15
    op_service_time: float = 0.02
    update_op_prob: float = 0.30
    propagation_delay: float = 10.0
    time_slice: float = 0.001

    # Section 6.1 methodology.
    duration: float = 35 * 60.0
    warmup: float = 5 * 60.0
    fast_threshold: float = 3.0
    replications: int = 5
    confidence: float = 0.95

    # Algorithm under test and modelling knobs.
    algorithm: Guarantee = Guarantee.STRONG_SESSION_SI
    server_discipline: str = "ps"      # "ps" | "rr" | "fifo"
    per_op_requests: bool = False      # one server request per operation
    serial_refresh: bool = False       # naive serial replay (ablation)
    freshness_bound: int | None = None  # bounded-staleness reads (extension)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_sec < 1:
            raise ConfigurationError("num_sec must be >= 1")
        if self.clients_per_secondary < 1:
            raise ConfigurationError("clients_per_secondary must be >= 1")
        if not 0.0 <= self.update_tran_prob <= 1.0:
            raise ConfigurationError("update_tran_prob must be in [0,1]")
        if not 0.0 <= self.abort_prob < 1.0:
            raise ConfigurationError("abort_prob must be in [0,1)")
        if self.tran_size_min > self.tran_size_max or self.tran_size_min < 1:
            raise ConfigurationError("bad transaction size range")
        if self.warmup >= self.duration:
            raise ConfigurationError("warmup must be shorter than duration")
        if self.server_discipline not in ("ps", "rr", "fifo"):
            raise ConfigurationError(
                f"unknown server discipline {self.server_discipline!r}")
        if self.freshness_bound is not None and self.freshness_bound < 0:
            raise ConfigurationError("freshness_bound must be >= 0")

    @property
    def num_clients(self) -> int:
        """Total number of concurrent client sessions in the system."""
        return self.num_sec * self.clients_per_secondary

    @property
    def tran_size_mean(self) -> float:
        return (self.tran_size_min + self.tran_size_max) / 2.0

    def with_(self, **changes: Any) -> "SimulationParameters":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def with_total_clients(self, total: int) -> "SimulationParameters":
        """Distribute ``total`` clients uniformly over the secondaries.

        Figures 2-4 sweep the total client population over a fixed five
        secondaries; Table 1's per-secondary count does not divide all the
        sweep points evenly, so fractional remainders are assigned
        round-robin by the model (this helper just records the intent).
        """
        if total < self.num_sec:
            raise ConfigurationError(
                "need at least one client per secondary")
        per = total // self.num_sec
        extra = total - per * self.num_sec
        params = self.with_(clients_per_secondary=per)
        object.__setattr__(params, "_extra_clients", extra)
        return params

    @property
    def extra_clients(self) -> int:
        """Remainder clients distributed round-robin (see above)."""
        return getattr(self, "_extra_clients", 0)

    def describe(self) -> str:
        """A one-line human-readable summary for harness output."""
        mix = int(round((1 - self.update_tran_prob) * 100))
        return (f"{self.algorithm} sec={self.num_sec} "
                f"clients={self.num_clients + self.extra_clients} "
                f"mix={mix}/{100 - mix}")


#: The defaults exactly as printed in Table 1.
TABLE_1_DEFAULTS = SimulationParameters()
