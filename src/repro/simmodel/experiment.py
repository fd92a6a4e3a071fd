"""Replication runs and aggregation (Section 6.1 methodology).

"Each run lasted for 35 simulated minutes.  We ignored the first five
minutes of each run ... Each reported measurement is an average over five
independent runs.  We computed 95% confidence intervals around these
means."  :func:`run_replications` is exactly that loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.stats import ConfidenceInterval, SummaryStats
from repro.simmodel.model import LazyReplicationModel
from repro.simmodel.params import SimulationParameters


@dataclass(frozen=True)
class RunResult:
    """Metrics of a single simulation run (post warm-up)."""

    params: SimulationParameters
    seed: int
    throughput: float              # transactions finishing <= 3 s, per sec
    raw_throughput: float          # all completions per second
    read_response_time: float
    update_response_time: float
    read_p95: float
    update_p95: float
    fast_fraction: float
    read_completions: int
    update_completions: int
    blocked_reads: int
    mean_block_time: float
    update_restarts: int
    primary_utilization: float
    secondary_utilization: float
    replication_lag: int
    mean_lag: float
    max_lag: float


def run_once(params: SimulationParameters,
             seed: Optional[int] = None) -> RunResult:
    """Execute one simulation run and collect its metrics."""
    effective_seed = params.seed if seed is None else seed
    model = LazyReplicationModel(params, seed=effective_seed)
    model.run()
    return summarize(model)


def summarize(model: LazyReplicationModel) -> RunResult:
    """The :class:`RunResult` of a model that has finished its run."""
    params, metrics = model.params, model.metrics
    block_stats = metrics.block_time.get("read")
    return RunResult(
        params=params,
        seed=model.streams.master_seed,
        throughput=metrics.throughput(end_time=params.duration),
        raw_throughput=metrics.raw_throughput(end_time=params.duration),
        read_response_time=metrics.mean_response_time("read"),
        update_response_time=metrics.mean_response_time("update"),
        read_p95=metrics.response_time_percentile("read", 95),
        update_p95=metrics.response_time_percentile("update", 95),
        fast_fraction=metrics.fast_fraction(),
        read_completions=metrics.completions("read"),
        update_completions=metrics.completions("update"),
        blocked_reads=metrics.blocked.get("read", 0),
        mean_block_time=block_stats.mean if block_stats else 0.0,
        update_restarts=model.counters.update_restarts,
        primary_utilization=model.primary_utilization(),
        secondary_utilization=model.secondary_utilization(),
        replication_lag=model.replication_lag(),
        mean_lag=model.lag_stats.mean,
        max_lag=(model.lag_stats.maximum
                 if model.lag_stats.n else 0.0),
    )


@dataclass
class AggregatedResult:
    """Replication-averaged metrics with 95% confidence intervals."""

    params: SimulationParameters
    runs: list[RunResult] = field(default_factory=list)

    def _ci(self, attribute: str) -> ConfidenceInterval:
        summary = SummaryStats()
        summary.extend(getattr(run, attribute) for run in self.runs)
        return summary.ci(self.params.confidence)

    @property
    def throughput(self) -> ConfidenceInterval:
        return self._ci("throughput")

    @property
    def read_response_time(self) -> ConfidenceInterval:
        return self._ci("read_response_time")

    @property
    def update_response_time(self) -> ConfidenceInterval:
        return self._ci("update_response_time")


def run_replications(params: SimulationParameters,
                     replications: Optional[int] = None,
                     *, jobs: int = 1,
                     executor: Optional[object] = None) -> AggregatedResult:
    """Run ``replications`` independent runs (seeds seed, seed+1, ...).

    ``jobs > 1`` fans the runs out over a process pool via
    :class:`repro.evaluation.parallel.ParallelSweepExecutor`
    (``executor`` injects a pre-built one).  Each run is a pure function
    of ``(params, seed)`` and results are merged in seed order, so the
    aggregate is identical to a serial run.
    """
    count = params.replications if replications is None else replications
    result = AggregatedResult(params=params)
    if executor is None and jobs != 1:
        # Imported lazily: repro.evaluation.parallel imports this module.
        from repro.evaluation.parallel import ParallelSweepExecutor
        executor = ParallelSweepExecutor(jobs=jobs)
    if executor is None:
        for i in range(count):
            result.runs.append(run_once(params, seed=params.seed + i))
        return result
    from repro.evaluation.parallel import RunTask
    tasks = [RunTask(params=params, seed=params.seed + i)
             for i in range(count)]
    result.runs.extend(executor.run_tasks(tasks))
    return result
