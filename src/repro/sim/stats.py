"""Simulation output statistics (Section 6.1 methodology).

The paper runs each configuration for 35 simulated minutes, discards the
first five as warm-up, averages five independent replications, and reports
95% confidence intervals.  Two metrics drive every figure:

* **response-time-related throughput** — "the number of transactions that
  finish in 3 s or less" per second of measured time;
* **mean response time** per transaction class (read-only / update).

:class:`MetricsCollector` gathers per-transaction completions inside one
run; :meth:`SummaryStats.ci` aggregates across replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with its symmetric half-width at some confidence level."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


class SummaryStats:
    """Streaming mean/variance (Welford) with t-based confidence intervals."""

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        n = self.n = self.n + 1
        mean = self._mean
        delta = value - mean
        mean += delta / n
        self._mean = mean
        self._m2 += delta * (value - mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def ci(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Student-t confidence interval for the mean."""
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}")
        if self.n < 2:
            return ConfidenceInterval(self.mean, 0.0, self.n, confidence)
        # Deferred: scipy costs ~80 MB and ~1.3 s to import, and only the
        # replication summaries after a sweep ever reach this line.
        from scipy import stats as scipy_stats
        t = scipy_stats.t.ppf(0.5 + confidence / 2.0, self.n - 1)
        half = t * self.stdev / math.sqrt(self.n)
        return ConfidenceInterval(self.mean, half, self.n, confidence)


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    frac = rank - low
    if low + 1 >= len(ordered):
        return ordered[-1]
    return ordered[low] * (1 - frac) + ordered[low + 1] * frac


@dataclass
class _ClassMetrics:
    response_times: SummaryStats = field(default_factory=SummaryStats)
    samples: list[float] = field(default_factory=list)
    completions: int = 0
    fast_completions: int = 0      # finished within the threshold


class MetricsCollector:
    """Per-run transaction metrics with warm-up trimming.

    Completions before ``warmup`` (virtual time) are discarded.  The
    collector never needs a cool-down pass because measurement simply
    stops when the run is truncated (Section 6.1).
    """

    def __init__(self, warmup: float, fast_threshold: float = 3.0):
        self.warmup = warmup
        self.fast_threshold = fast_threshold
        self._classes: dict[str, _ClassMetrics] = {}
        self.measured_until = warmup
        self.aborts = 0
        self.blocked: dict[str, int] = {}
        self.block_time: dict[str, SummaryStats] = {}

    def record_completion(self, kind: str, submitted: float,
                          completed: float) -> None:
        """Record one finished transaction of class ``kind``."""
        if completed > self.measured_until:
            self.measured_until = completed
        if completed < self.warmup:
            return
        # .get + explicit insert rather than setdefault: setdefault would
        # build (and discard) a _ClassMetrics on every completion.
        metrics = self._classes.get(kind)
        if metrics is None:
            metrics = self._classes[kind] = _ClassMetrics()
        response = completed - submitted
        metrics.response_times.add(response)
        metrics.samples.append(response)
        metrics.completions += 1
        if response <= self.fast_threshold:
            metrics.fast_completions += 1

    def record_block(self, kind: str, waited: float, when: float) -> None:
        """Record a freshness wait (ALG blocking) for diagnostics."""
        if when < self.warmup:
            return
        self.blocked[kind] = self.blocked.get(kind, 0) + 1
        # .get + explicit insert, as in record_completion.
        summary = self.block_time.get(kind)
        if summary is None:
            summary = self.block_time[kind] = SummaryStats()
        summary.add(waited)

    def record_abort(self, when: float) -> None:
        if when >= self.warmup:
            self.aborts += 1

    # -- results -----------------------------------------------------------
    def measured_time(self, end_time: Optional[float] = None) -> float:
        end = end_time if end_time is not None else self.measured_until
        return max(end - self.warmup, 0.0)

    def throughput(self, end_time: Optional[float] = None,
                   kind: Optional[str] = None) -> float:
        """Response-time-related throughput: fast completions per second."""
        elapsed = self.measured_time(end_time)
        if elapsed <= 0:
            return 0.0
        fast = sum(m.fast_completions for k, m in self._classes.items()
                   if kind is None or k == kind)
        return fast / elapsed

    def raw_throughput(self, end_time: Optional[float] = None) -> float:
        """All completions per second (not response-time-bounded)."""
        elapsed = self.measured_time(end_time)
        if elapsed <= 0:
            return 0.0
        total = sum(m.completions for m in self._classes.values())
        return total / elapsed

    def mean_response_time(self, kind: str) -> float:
        metrics = self._classes.get(kind)
        return metrics.response_times.mean if metrics else 0.0

    def response_time_percentile(self, kind: str, q: float) -> float:
        """The q-th percentile of a class's response times."""
        metrics = self._classes.get(kind)
        return percentile(metrics.samples, q) if metrics else 0.0

    def fast_fraction(self, kind: Optional[str] = None) -> float:
        """Fraction of completions finishing within the threshold."""
        total = sum(m.completions for k, m in self._classes.items()
                    if kind is None or k == kind)
        fast = sum(m.fast_completions for k, m in self._classes.items()
                   if kind is None or k == kind)
        return fast / total if total else 0.0

    def completions(self, kind: Optional[str] = None) -> int:
        return sum(m.completions for k, m in self._classes.items()
                   if kind is None or k == kind)

    def classes(self) -> list[str]:
        return sorted(self._classes)

