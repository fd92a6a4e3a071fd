"""Shared bounded-exponential backoff (optionally with full jitter).

Four components wait this way — the
:class:`~repro.core.propagation.ReliableLink` retransmission timer, the
session promotion-wait and read-failover loops, and the admission
subsystem's client retries and breaker cooldowns.  All compute
``min(base * 2**attempt, cap)``, in two shapes:

* :func:`backoff_wait` — the pure formula, for callers that keep their
  own attempt counter (the retransmission timer resets its counter on
  cumulative-ack progress, so it owns the state);
* :class:`ExponentialBackoff` — a small stateful schedule for retry
  loops, with AWS-style *full jitter* (``wait = rng.random() *
  deterministic_wait``) when given a seeded stream.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError

__all__ = ["backoff_wait", "ExponentialBackoff"]


#: Largest exponent whose power of two is a finite float; any positive
#: base above ``cap / 2**1023`` has reached its cap by then.
_MAX_EXPONENT = 1023


def backoff_wait(attempt: int, base: float, cap: float) -> float:
    """Deterministic wait before retry number ``attempt`` (0-based):
    ``min(base * 2**attempt, cap)``, for any number of attempts (the
    exponent is clamped where ``2.0 ** attempt`` would overflow)."""
    return min(base * (2.0 ** min(attempt, _MAX_EXPONENT)), cap)


class ExponentialBackoff:
    """A bounded exponential retry schedule.

    >>> schedule = ExponentialBackoff(0.25, 2.0)
    >>> [schedule.next_wait() for _ in range(5)]
    [0.25, 0.5, 1.0, 2.0, 2.0]

    Given an ``rng`` (anything with a ``random()`` method, such as a
    :class:`~repro.sim.rng.RandomStream`), each wait is ``rng.random()``
    times the deterministic wait (full jitter); without one the schedule
    draws nothing.  ``peek()`` returns the *deterministic* wait for the
    next attempt without advancing or drawing.
    """

    def __init__(self, base: float, cap: float, *, rng: Any = None):
        if base <= 0:
            raise ConfigurationError("backoff base must be > 0")
        if cap < base:
            raise ConfigurationError("backoff cap must be >= base")
        self.base = base
        self.cap = cap
        self.rng = rng
        self.attempt = 0

    def peek(self) -> float:
        """The deterministic (pre-jitter) wait for the next attempt."""
        return backoff_wait(self.attempt, self.base, self.cap)

    def next_wait(self) -> float:
        """Consume one attempt and return how long to wait before it."""
        wait = self.peek()
        self.attempt += 1
        if self.rng is not None:
            return self.rng.random() * wait
        return wait

    def reset(self) -> None:
        """Back to attempt 0 (call on success/progress)."""
        self.attempt = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExponentialBackoff(base={self.base}, cap={self.cap}, "
                f"attempt={self.attempt}, jitter={self.rng is not None})")
