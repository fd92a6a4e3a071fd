"""Overload protection: admission control, backpressure and degradation.

The paper's middleware assumes clients arrive at a rate the primary can
absorb; a flash crowd breaks that assumption in two places at once —
update transactions queue unboundedly at the primary, and strong-session
reads block without bound behind ``seq(c) > seq(DBsec)`` while the
refresh tier digs out of the backlog.  This module is the front tier
ROADMAP's "load-leveling and throttling" item calls for:

* a **token-bucket rate limiter** plus a **bounded admission queue** in
  front of the primary, with a configurable shed policy
  (``reject-newest`` / ``reject-oldest`` / ``by-session-priority``)
  raising typed :class:`~repro.errors.OverloadError`;
* **client retry budgets** (bounded exponential backoff with full
  jitter, drawn from a dedicated seeded stream) and a per-session
  **circuit breaker** (closed / open / half-open with a single probe)
  failing fast with :class:`~repro.errors.CircuitOpenError`;
* **backpressure**: when any live secondary's refresh backlog exceeds
  ``lag_bound`` records, the admission rate *brownouts* proportionally
  (never below :data:`BROWNOUT_FLOOR`), so refresh queues stay bounded
  instead of growing without limit;
* **graceful degradation**: strong-session/strong-SI reads that would
  block past ``read_deadline`` may — only with the explicit opt-in
  ``degrade_to_stale=True`` — serve the freshest snapshot the replica
  has, returning a :class:`StalenessReport` (the SCAR-style explicit
  staleness bound) instead of blocking or failing.  A guarantee is never
  weakened silently: without the opt-in the existing
  :class:`~repro.errors.FreshnessTimeoutError` surfaces.

House style: ``ReplicatedSystem(admission=None)`` (the default) builds
none of this — no drainer, no RNG draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.core.backoff import ExponentialBackoff
from repro.errors import CircuitOpenError, ConfigurationError, OverloadError
from repro.kernel.sync import Condition
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import ClientSession, ReplicatedSystem

SHED_POLICIES = ("reject-newest", "reject-oldest", "by-session-priority")

#: Client retry backoff after a shed: the first wait and its cap
#: (virtual seconds), doubling between them, each wait fully jittered.
RETRY_BASE = 0.05
RETRY_CAP = 1.0
#: Ceiling on the breaker cooldown, which doubles per consecutive open.
BREAKER_COOLDOWN_CAP = 30.0
#: Lowest share of the configured rate a brownout scales admission to.
BROWNOUT_FLOOR = 0.1


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for the overload-protection subsystem.

    Parameters
    ----------
    rate:
        Token-bucket refill rate — update admissions per virtual second
        under no brownout.  The bucket holds :attr:`burst` tokens.
    queue_limit:
        Bounded admission-queue depth in front of the primary.  A
        request arriving to an empty bucket waits here for a token; a
        request arriving to a *full* queue triggers the shed policy.
    shed_policy:
        ``reject-newest`` sheds the arriving request; ``reject-oldest``
        evicts the head of the queue to make room; ``by-session-priority``
        evicts the lowest-priority waiter (ties broken against the
        latest arrival — which may be the arriving request itself).
    retry_budget:
        Client-side retries after a shed, spaced by bounded exponential
        backoff (:data:`RETRY_BASE` doubling to :data:`RETRY_CAP`) with
        full jitter drawn from a per-session stream of
        ``RandomStreams(0)``.
    breaker_threshold:
        Consecutive update failures (sheds after retry exhaustion,
        unavailable/absent primary) that open the session's circuit
        breaker; ``0`` disables the breaker.  While open, updates fail
        fast with :class:`~repro.errors.CircuitOpenError`; after the
        cooldown (``breaker_cooldown``, doubling per consecutive open up
        to :data:`BREAKER_COOLDOWN_CAP`) a single probe is admitted.
    lag_bound:
        Backpressure bound, in queued-but-unapplied records at a live
        secondary.  While any live secondary's backlog exceeds it, the
        admission rate is scaled by ``lag_bound / backlog`` (floored at
        :data:`BROWNOUT_FLOOR`); ``None`` disables brownout.
    read_deadline:
        Default freshness-wait cap (virtual seconds) applied to session
        reads that pass no explicit ``max_wait``; ``None`` leaves reads
        unbounded as before.
    degrade_to_stale:
        With ``read_deadline`` set: serve the freshest available
        snapshot on deadline expiry and attach a :class:`StalenessReport`
        to the session, instead of raising
        :class:`~repro.errors.FreshnessTimeoutError`.
    """

    rate: float
    queue_limit: int = 8
    shed_policy: str = "reject-newest"
    retry_budget: int = 0
    breaker_threshold: int = 0
    breaker_cooldown: float = 1.0
    lag_bound: Optional[float] = None
    read_deadline: Optional[float] = None
    degrade_to_stale: bool = False

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("admission rate must be > 0")
        if self.queue_limit < 0:
            raise ConfigurationError("queue_limit must be >= 0")
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}")
        if self.retry_budget < 0:
            raise ConfigurationError("retry_budget must be >= 0")
        if self.breaker_threshold < 0:
            raise ConfigurationError("breaker_threshold must be >= 0")
        if not 0 < self.breaker_cooldown <= BREAKER_COOLDOWN_CAP:
            raise ConfigurationError(
                f"breaker_cooldown must be in (0, {BREAKER_COOLDOWN_CAP}]")
        if self.lag_bound is not None and self.lag_bound <= 0:
            raise ConfigurationError("lag_bound must be > 0")
        if self.read_deadline is not None and self.read_deadline <= 0:
            raise ConfigurationError("read_deadline must be > 0")
        if self.degrade_to_stale and self.read_deadline is None:
            raise ConfigurationError(
                "degrade_to_stale needs a read_deadline to degrade at")

    @property
    def burst(self) -> float:
        """Bucket capacity in tokens: one second of refill, at least one."""
        return max(self.rate, 1.0)


@dataclass(frozen=True)
class StalenessReport:
    """The explicit bound attached to every degraded read (SCAR-style).

    A degraded read serves the freshest snapshot its replica holds
    instead of blocking for ``required_seq``.  ``bound`` is the sequence
    shortfall *promised* at the degradation instant; ``served_seq`` is
    the snapshot actually read (taken at transaction begin, at or after
    the degradation instant — ``seq(DBsec)`` is monotone, so the actual
    staleness never exceeds the promised bound).  Under sharding the
    fields describe the worst-shortfall shard.
    """

    session: str
    guarantee: str
    required_seq: int
    served_seq: int
    bound: int
    time: float

    @property
    def staleness(self) -> int:
        """Actual sequence shortfall of the snapshot served."""
        return max(0, self.required_seq - self.served_seq)


class TokenBucket:
    """A lazily-refilled token bucket in virtual time.

    ``rate_scale`` lets the admission controller brownout refill without
    mutating the configured rate.  Purely arithmetic — no kernel events,
    no RNG draws.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst < 1:
            raise ConfigurationError("token bucket needs rate > 0, burst >= 1")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last_refill = 0.0

    def refill(self, now: float, rate_scale: float = 1.0) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self.tokens = min(self.burst,
                              self.tokens + elapsed * self.rate * rate_scale)
            self._last_refill = now

    def try_acquire(self, now: float, rate_scale: float = 1.0) -> bool:
        self.refill(now, rate_scale)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def time_to_token(self, rate_scale: float = 1.0) -> float:
        """Virtual seconds until one full token accrues (post-refill)."""
        deficit = 1.0 - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / (self.rate * rate_scale)


class CircuitBreaker:
    """Per-session closed / open / half-open breaker.

    ``check()`` gates each update attempt: it raises
    :class:`~repro.errors.CircuitOpenError` while open, and admits a
    single probe once the cooldown elapses (half-open).  The cooldown
    doubles on consecutive opens (bounded by :data:`BREAKER_COOLDOWN_CAP`)
    and resets on any success.
    """

    def __init__(self, kernel: Any, label: str, threshold: int,
                 cooldown: float):
        self.kernel = kernel
        self.label = label
        self.threshold = threshold
        self.state = "closed"
        self._failures = 0
        self._open_until = 0.0
        self._probe_in_flight = False
        self._cooldowns = ExponentialBackoff(cooldown, BREAKER_COOLDOWN_CAP)
        self.opens = 0
        self.fast_failures = 0
        self.probes = 0
        self.probe_successes = 0

    def check(self) -> None:
        """Gate one attempt; raises while the breaker refuses traffic."""
        if self.state == "closed":
            return
        if not self._probe_in_flight and self.kernel.now >= self._open_until:
            # Cooldown elapsed: go half-open and admit this one probe.
            self.state = "half-open"
            self._probe_in_flight = True
            self.probes += 1
            return
        self.fast_failures += 1
        raise CircuitOpenError(
            self.label, max(0.0, self._open_until - self.kernel.now))

    def record_success(self) -> None:
        if self.state == "half-open":
            self.probe_successes += 1
        self.state = "closed"
        self._failures = 0
        self._probe_in_flight = False
        self._cooldowns.reset()

    def release_probe(self) -> None:
        """The admitted attempt ended saying nothing about the cluster (a
        conflict, the body's own error): the next attempt probes again."""
        self._probe_in_flight = False

    def record_failure(self) -> None:
        if self.state == "half-open":
            # The probe failed: reopen with a longer cooldown.
            self._trip()
        else:
            self._failures += 1
            if self._failures >= self.threshold:
                self._trip()

    def _trip(self) -> None:
        self.state = "open"
        self.opens += 1
        self._failures = 0
        self._probe_in_flight = False
        self._open_until = self.kernel.now + self._cooldowns.next_wait()


class _Waiter:
    """One queued admission request."""

    __slots__ = ("label", "priority", "arrival", "state")

    def __init__(self, label: str, priority: int, arrival: float):
        self.label = label
        self.priority = priority
        self.arrival = arrival
        self.state = "waiting"   # -> "admitted" | "shed"


class AdmissionController:
    """Token bucket + bounded queue + brownout, in front of the primary.

    Sessions call :meth:`acquire` (a kernel sub-process) before
    forwarding an update.  The fast path takes a token synchronously;
    otherwise the request joins the bounded queue (or the shed policy
    fires) and a drainer callback, armed when the queue fills from
    empty, grants tokens to waiters in FIFO order.
    ``attempts == admitted + shed`` holds exactly whenever the queue is
    empty — the accounting the bench asserts.
    """

    def __init__(self, system: "ReplicatedSystem", config: AdmissionConfig):
        self.system = system
        self.kernel = system.kernel
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst)
        self.bucket._last_refill = self.kernel.now
        self._queue: list[_Waiter] = []
        self._cond = Condition(self.kernel, name="admission")
        #: True from the enqueue that arms the drainer until a drain
        #: finds the queue empty.
        self._draining = False
        self._streams = RandomStreams(0)
        self._retry_rngs: dict[str, Any] = {}
        # -- counters (monitoring) ----------------------------------------
        self.attempts = 0
        self.admitted = 0
        self.shed = 0
        self.throttled = 0          # admitted, but only after queueing
        self.total_queue_wait = 0.0
        self.peak_queue_depth = 0
        self.brownouts = 0          # refills observed under brownout
        self.degraded_reads = 0     # bumped by sessions serving stale

    # -- client retry streams ---------------------------------------------
    def retry_rng(self, label: str) -> Any:
        """The session's dedicated jitter stream (same-draws discipline:
        its own seeded stream, never a workload stream)."""
        if label not in self._retry_rngs:
            self._retry_rngs[label] = self._streams[f"retry.{label}"]
        return self._retry_rngs[label]

    # -- brownout ----------------------------------------------------------
    def rate_scale(self) -> float:
        """Backpressure factor in (0, 1]: 1 while every live secondary's
        backlog is within ``lag_bound``, shrinking proportionally past
        it (floored at :data:`BROWNOUT_FLOOR`)."""
        bound = self.config.lag_bound
        if bound is None:
            return 1.0
        backlog = 0
        for secondary in self.system.secondaries:
            if not secondary.live:
                continue
            lag = secondary.lag + secondary.refresher.watermark_lag
            if lag > backlog:
                backlog = lag
        if backlog <= bound:
            return 1.0
        self.brownouts += 1
        return max(BROWNOUT_FLOOR, bound / backlog)

    # -- admission ---------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No request is waiting for a token."""
        return not self._queue

    def acquire(self, session: "ClientSession"):
        """Kernel sub-process: wait for admission or raise ``OverloadError``.

        Yielded from the session's update path.  Returns when a token
        has been consumed for this request.
        """
        self.attempts += 1
        now = self.kernel.now
        if not self._queue and self.bucket.try_acquire(now,
                                                       self.rate_scale()):
            self.admitted += 1
            return
        if len(self._queue) >= self.config.queue_limit:
            victim = self._pick_victim(session)
            if victim is None:
                # The arriving request itself is shed.
                self.shed += 1
                raise OverloadError(session.label, self.config.shed_policy,
                                    len(self._queue))
            self._evict(victim)
        waiter = _Waiter(session.label, session.priority, now)
        self._queue.append(waiter)
        if len(self._queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(self._queue)
        self._ensure_drainer()
        yield self._cond.wait_for(lambda: waiter.state != "waiting")
        if waiter.state == "shed":
            raise OverloadError(session.label, self.config.shed_policy,
                                len(self._queue))
        self.throttled += 1
        self.admitted += 1
        self.total_queue_wait += self.kernel.now - waiter.arrival

    def _pick_victim(self, session: "ClientSession") -> Optional[_Waiter]:
        """Choose who pays for a full queue; ``None`` = the newcomer."""
        policy = self.config.shed_policy
        if policy == "reject-newest" or not self._queue:
            return None
        if policy == "reject-oldest":
            return self._queue[0]
        # by-session-priority: lowest priority loses; among equals the
        # latest arrival loses, and the newcomer is the latest of all.
        lowest = min(self._queue, key=lambda w: (w.priority, -w.arrival))
        if session.priority <= lowest.priority:
            # The newcomer is the latest arrival; at equal priority it
            # loses the tie-break, so it is shed rather than the queue.
            return None
        return lowest

    def _evict(self, waiter: _Waiter) -> None:
        self._queue.remove(waiter)
        waiter.state = "shed"
        self.shed += 1
        self._cond.notify_all()

    def _ensure_drainer(self) -> None:
        if not self._draining:
            self._draining = True
            # A same-instant hop: the first drain runs after the waiter
            # that armed it has parked.
            self.kernel.call_at(self.kernel.now, self._drain)

    def _drain(self) -> None:
        """Grant queued waiters tokens in FIFO order; re-arm for the
        next token while any wait, go idle once the queue is empty."""
        kernel = self.kernel
        while self._queue:
            scale = self.rate_scale()
            if self.bucket.try_acquire(kernel.now, scale):
                waiter = self._queue.pop(0)
                waiter.state = "admitted"
                self._cond.notify_all()
                continue
            kernel.call_at(
                kernel.now + max(self.bucket.time_to_token(scale), 1e-9),
                self._drain)
            return
        self._draining = False
