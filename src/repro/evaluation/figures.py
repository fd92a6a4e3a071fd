"""Specifications of every figure in the paper's evaluation section.

Three parameter sweeps cover all seven figures:

========  =============================================  ==================
Sweep     Configuration                                  Figures
========  =============================================  ==================
clients   5 secondaries, 80/20 mix, 50..250 clients      2 (tput), 3 (read
                                                         RT), 4 (update RT)
scale-up  20 clients/secondary, 80/20, 1..15 secondaries 5, 6, 7
scale-up  20 clients/secondary, 95/5, up to 55 secs      8 (tput)
========  =============================================  ==================

Each figure records the *expected qualitative shape* from Section 6.2,
which the benchmark suite asserts against regenerated data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.guarantees import Guarantee
from repro.errors import ConfigurationError
from repro.simmodel.params import SimulationParameters

#: The three algorithms every figure compares.
ALGORITHMS = (Guarantee.STRONG_SESSION_SI, Guarantee.WEAK_SI,
              Guarantee.STRONG_SI)


@dataclass(frozen=True)
class Scale:
    """Fidelity preset: run length, replications, and sweep subsampling."""

    name: str
    duration: float
    warmup: float
    replications: int
    max_points: Optional[int] = None    # None = all sweep points

    def select_points(self, xs: tuple[int, ...]) -> tuple[int, ...]:
        """Subsample the sweep, always keeping the first and last point."""
        if self.max_points is None or len(xs) <= self.max_points:
            return xs
        if self.max_points == 1:
            return (xs[-1],)
        step = (len(xs) - 1) / (self.max_points - 1)
        indices = sorted({round(i * step) for i in range(self.max_points)})
        return tuple(xs[i] for i in indices)


SCALES: dict[str, Scale] = {
    # Long-history scale: 2 h runs, far beyond the paper's 35 min runs.
    "large": Scale("large", duration=120 * 60.0, warmup=5 * 60.0,
                   replications=3),
    # Paper methodology: 35 min runs, 5 min warm-up, 5 replications.
    "full": Scale("full", duration=35 * 60.0, warmup=5 * 60.0,
                  replications=5),
    # Shorter runs, 2 replications, at most 5 sweep points per figure.
    "quick": Scale("quick", duration=10 * 60.0, warmup=2 * 60.0,
                   replications=2, max_points=5),
    # Small CI/bench scale: short runs but >= 2 replications so the
    # parallel executor has real fan-out at every point.
    "small": Scale("small", duration=5 * 60.0, warmup=60.0,
                   replications=2, max_points=3),
    # Minimal sanity scale used by the pytest benchmarks.
    "smoke": Scale("smoke", duration=4 * 60.0, warmup=60.0,
                   replications=1, max_points=3),
}


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep shared by one or more figures."""

    key: str
    mode: str                    # "clients" | "secondaries"
    x_values: tuple[int, ...]
    update_tran_prob: float
    num_sec: Optional[int] = None          # fixed, for clients sweeps
    clients_per_secondary: int = 20        # fixed, for scale-up sweeps
    description: str = ""

    def params_for(self, x: int, algorithm: Guarantee, scale: Scale,
                   seed: int = 42) -> SimulationParameters:
        """Concrete simulation parameters for one sweep point."""
        base = SimulationParameters(
            update_tran_prob=self.update_tran_prob,
            duration=scale.duration,
            warmup=scale.warmup,
            replications=scale.replications,
            algorithm=algorithm,
            seed=seed,
        )
        if self.mode == "clients":
            if self.num_sec is None:
                raise ConfigurationError("clients sweep needs num_sec")
            return base.with_(num_sec=self.num_sec).with_total_clients(x)
        if self.mode == "secondaries":
            return base.with_(
                num_sec=x, clients_per_secondary=self.clients_per_secondary)
        raise ConfigurationError(f"unknown sweep mode {self.mode!r}")

    def x_label(self) -> str:
        return ("Number of Clients" if self.mode == "clients"
                else "Number of Secondary Sites")


CLIENTS_SWEEP_80_20 = SweepSpec(
    key="clients-80-20",
    mode="clients",
    x_values=(25, 50, 100, 150, 200, 250),
    update_tran_prob=0.20,
    num_sec=5,
    description="5 secondaries, 80/20 shopping mix, client load sweep",
)

SCALEUP_SWEEP_80_20 = SweepSpec(
    key="scaleup-80-20",
    mode="secondaries",
    x_values=(1, 3, 5, 7, 9, 11, 13, 15),
    update_tran_prob=0.20,
    description="20 clients/secondary, 80/20 shopping mix, scale-up sweep",
)

SCALEUP_SWEEP_95_5 = SweepSpec(
    key="scaleup-95-5",
    mode="secondaries",
    x_values=(1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55),
    update_tran_prob=0.05,
    description="20 clients/secondary, 95/5 browsing mix, scale-up sweep",
)


@dataclass(frozen=True)
class FigureSpec:
    """One figure of the paper: a sweep, a metric, and an expected shape."""

    figure: str
    title: str
    sweep: SweepSpec
    metric: str          # "throughput" | "read_response_time" | "update_response_time"
    y_label: str
    expectation: str     # the paper's qualitative claim (Section 6.2)

    @property
    def x_label(self) -> str:
        return self.sweep.x_label()


ALL_FIGURES: dict[str, FigureSpec] = {
    "2": FigureSpec(
        figure="2",
        title="Transaction Throughput vs. Number of Clients, 80/20 workload",
        sweep=CLIENTS_SWEEP_80_20,
        metric="throughput",
        y_label="Throughput (tps, response time <= 3s)",
        expectation=(
            "ALG-STRONG-SESSION-SI tracks ALG-WEAK-SI closely (small "
            "penalty under moderate/heavy load); ALG-STRONG-SI is far "
            "below both."),
    ),
    "3": FigureSpec(
        figure="3",
        title=("Read-Only Transaction Response Time vs. Number of Clients, "
               "80/20 workload"),
        sweep=CLIENTS_SWEEP_80_20,
        metric="read_response_time",
        y_label="Response Time (s)",
        expectation=(
            "Session constraints cost a small read response-time penalty "
            "over ALG-WEAK-SI; ALG-STRONG-SI reads wait for total order "
            "and are much slower."),
    ),
    "4": FigureSpec(
        figure="4",
        title=("Update Transaction Response Time vs. Number of Clients, "
               "80/20 workload"),
        sweep=CLIENTS_SWEEP_80_20,
        metric="update_response_time",
        y_label="Response Time (s)",
        expectation=(
            "ALG-STRONG-SI shows *small* update response times: its "
            "blocked reads throttle the offered update load of the "
            "sequential clients.  ALG-WEAK-SI and ALG-STRONG-SESSION-SI "
            "offer a higher update load and so see higher update RTs."),
    ),
    "5": FigureSpec(
        figure="5",
        title=("Transaction Throughput, 20 Clients per Secondary, "
               "80/20 workload"),
        sweep=SCALEUP_SWEEP_80_20,
        metric="throughput",
        y_label="Throughput (tps, response time <= 3s)",
        expectation=(
            "ALG-STRONG-SESSION-SI scales almost like ALG-WEAK-SI, "
            "near-linearly until the primary saturates (around 11 "
            "secondaries), then flattens; ALG-STRONG-SI scales poorly."),
    ),
    "6": FigureSpec(
        figure="6",
        title=("Read-Only Transaction Response Time, 20 Clients per "
               "Secondary, 80/20 workload"),
        sweep=SCALEUP_SWEEP_80_20,
        metric="read_response_time",
        y_label="Response Time (s)",
        expectation=(
            "Read response times stay low and similar for ALG-WEAK-SI and "
            "ALG-STRONG-SESSION-SI; ALG-STRONG-SI reads are dominated by "
            "freshness waits at every scale."),
    ),
    "7": FigureSpec(
        figure="7",
        title=("Update Transaction Response Time, 20 Clients per "
               "Secondary, 80/20 workload"),
        sweep=SCALEUP_SWEEP_80_20,
        metric="update_response_time",
        y_label="Response Time (s)",
        expectation=(
            "As the workload scales up, the primary saturates and update "
            "response times rise rapidly for ALG-WEAK-SI and "
            "ALG-STRONG-SESSION-SI; ALG-STRONG-SI's throttled update load "
            "keeps its update RT low."),
    ),
    "8": FigureSpec(
        figure="8",
        title=("Transaction Throughput, 20 Clients per Secondary, "
               "95/5 workload"),
        sweep=SCALEUP_SWEEP_95_5,
        metric="throughput",
        y_label="Throughput (tps, response time <= 3s)",
        expectation=(
            "With the 95/5 browsing mix the primary saturates far later: "
            "significantly greater scalability than the 80/20 mix, with "
            "ALG-STRONG-SESSION-SI again tracking ALG-WEAK-SI."),
    ),
}


def figures_for_sweep(sweep: SweepSpec) -> list[FigureSpec]:
    """All figures generated from one sweep."""
    return [fig for fig in ALL_FIGURES.values() if fig.sweep is sweep]
