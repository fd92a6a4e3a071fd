"""Tests for the shared bounded-exponential backoff helper."""

import pytest

from repro.core.backoff import ExponentialBackoff, backoff_wait
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams


# ---------------------------------------------------------------------------
# backoff_wait: the closed form matches the legacy iterated doubling exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base,cap", [
    (0.25, 4.0),       # ReliableLink retransmission timer defaults
    (0.05, 1.0),       # promotion-wait loop defaults
    (0.1, 30.0),
])
def test_closed_form_equals_iterated_doubling_bitwise(base, cap):
    # The legacy loops computed wait = min(wait * 2, cap) step by step.
    # Scaling by 2 is exact in IEEE-754 floats, so the extracted closed
    # form must equal the iterated form *bitwise*, not approximately —
    # that is what made the extraction bit-identical for virtual time.
    wait = base
    for attempt in range(60):
        assert backoff_wait(attempt, base, cap) == wait
        wait = min(wait * 2, cap)


def test_backoff_wait_caps():
    assert backoff_wait(0, 1.0, 8.0) == 1.0
    assert backoff_wait(3, 1.0, 8.0) == 8.0
    assert backoff_wait(50, 1.0, 8.0) == 8.0


def test_backoff_wait_never_overflows():
    # 2.0 ** 1024 is past the largest float; the wait stays at its cap.
    for attempt in (1023, 1024, 5000, 10 ** 9):
        assert backoff_wait(attempt, 1.0, 30.0) == 30.0


def test_schedule_stays_capped_past_a_thousand_attempts():
    schedule = ExponentialBackoff(0.25, 2.0)
    waits = [schedule.next_wait() for _ in range(1100)]
    assert waits[-100:] == [2.0] * 100


# ---------------------------------------------------------------------------
# ExponentialBackoff: schedule, peek, reset
# ---------------------------------------------------------------------------

def test_schedule_doubles_then_caps():
    schedule = ExponentialBackoff(0.25, 2.0)
    assert [schedule.next_wait() for _ in range(5)] \
        == [0.25, 0.5, 1.0, 2.0, 2.0]


def test_peek_does_not_advance():
    schedule = ExponentialBackoff(0.5, 8.0)
    assert schedule.peek() == 0.5
    assert schedule.peek() == 0.5
    assert schedule.next_wait() == 0.5
    assert schedule.peek() == 1.0


def test_reset_returns_to_base():
    schedule = ExponentialBackoff(0.25, 2.0)
    for _ in range(4):
        schedule.next_wait()
    schedule.reset()
    assert schedule.next_wait() == 0.25


# ---------------------------------------------------------------------------
# Full jitter
# ---------------------------------------------------------------------------

def test_jitter_bounded_by_deterministic_wait():
    rng = RandomStreams(7)["jitter"]
    schedule = ExponentialBackoff(0.25, 2.0, rng=rng)
    for _ in range(50):
        ceiling = schedule.peek()
        wait = schedule.next_wait()
        assert 0.0 <= wait <= ceiling


def test_jitter_is_deterministic_per_seed():
    def draws(seed):
        schedule = ExponentialBackoff(0.25, 2.0,
                                      rng=RandomStreams(seed)["jitter"])
        return [schedule.next_wait() for _ in range(10)]

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)


def test_jitter_off_draws_nothing():
    """Jitter is on exactly when an rng is given; ``peek`` never draws."""
    class Exploding:
        def random(self):      # pragma: no cover - must never run
            raise AssertionError("peek drew from the rng")

    assert ExponentialBackoff(0.25, 2.0).next_wait() == 0.25
    schedule = ExponentialBackoff(0.25, 2.0, rng=Exploding())
    assert schedule.peek() == schedule.peek() == 0.25


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(base=0.0, cap=1.0),
    dict(base=-1.0, cap=1.0),
    dict(base=2.0, cap=1.0),
    dict(base=1.0, cap=0.0),
    dict(base=-2.0, cap=-1.0),              # cap >= base, base still < 0
])
def test_invalid_configurations_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        ExponentialBackoff(**kwargs)
