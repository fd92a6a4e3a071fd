"""Chaos property tests for overload storms: flash-crowd arrivals under
admission control, composed with the full fault machinery.

Each storm drives the open-loop per-session dispatcher — distinct
sessions' operations overlap, so the token bucket and bounded admission
queue genuinely fill — through lossy channels, secondary outages, a
primary failure window landed inside the burst, and a propagator stall,
then audits convergence, the SI checkers and the exact overload
accounting.  Marked ``chaos`` so CI can run the sweep as its own job.
"""

import pytest

from repro.core.admission import AdmissionConfig
from repro.faults.harness import ChaosConfig, run_chaos

pytestmark = pytest.mark.chaos

SEEDS = range(5)


def storm_admission(**overrides):
    """The CLI's ``--overload`` configuration (see repro.faults.__main__):
    a bucket refilling slower than the burst arrives, a shed queue below
    the session count, a modest jittered retry budget, breakers, lag
    brownout, and degradation to bounded-staleness reads."""
    config = dict(rate=2.0, queue_limit=2, shed_policy="reject-newest",
                  retry_budget=3, breaker_threshold=6,
                  breaker_cooldown=2.0, lag_bound=24, read_deadline=5.0,
                  degrade_to_stale=True)
    config.update(overrides)
    return AdmissionConfig(**config)


def storm_config(seed, **overrides):
    config = dict(seed=seed, arrival_pattern="flash-crowd",
                  admission=storm_admission(),
                  refresh_apply_cost=0.02)
    config.update(overrides)
    return ChaosConfig(**config)


def assert_overload_accounting(result):
    """The exact conservation laws of the admission tier."""
    status = result.status
    assert status.admission_attempts \
        == status.admission_admitted + status.admission_shed, \
        result.describe()
    # Every shed is either retried within the budget or surfaced to the
    # client (breaker fast-fails never reach the bucket, so they are
    # outside this balance).
    assert status.admission_shed \
        == result.clients.overload_retries + result.shed_updates, \
        result.describe()


@pytest.mark.parametrize("seed", SEEDS)
def test_overload_storm_converges_and_accounts_exactly(seed):
    result = run_chaos(storm_config(seed))
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok
    # The storm must actually stress the admission tier ...
    assert result.status.admission_attempts > 0
    assert result.status.admission_peak_queue > 0
    # ... and the books must balance exactly.
    assert_overload_accounting(result)


def test_overload_sweep_exercises_every_protection_layer():
    """Across the seed sweep every mechanism fires at least once: sheds,
    client-visible overload errors, retries, throttled (queued-then-
    admitted) updates and degraded bounded-staleness reads."""
    results = [run_chaos(storm_config(seed)) for seed in SEEDS]
    assert all(r.ok for r in results)
    assert any(r.status.admission_shed > 0 for r in results)
    assert any(r.shed_updates > 0 for r in results)
    assert any(r.clients.overload_retries > 0 for r in results)
    assert any(r.status.admission_throttled > 0 for r in results)
    assert any(r.status.admission_degraded_reads > 0 for r in results)
    # Degraded reads always carry a finite reported bound.
    for result in results:
        if result.status.admission_degraded_reads:
            assert result.clients.max_reported_staleness >= 0


#: Seed 7 elects twice — the first successor's lease lapses too — and
#: used to die in the harness's settle step, which tried to "recover"
#: the retired first successor (the CI sweep's only red seed).
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_overload_composes_with_autonomous_failover(seed):
    """A mid-burst permanent primary kill: the breaker and retry budget
    absorb the dead-primary window while the heartbeat/lease control
    plane elects a successor, and the guarantees still hold."""
    result = run_chaos(storm_config(seed, primary_kill=True,
                                    auto_failover=True))
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok
    assert result.status.promotions >= 1
    assert_overload_accounting(result)


def test_overload_storm_is_deterministic_per_seed():
    a = run_chaos(storm_config(7))
    b = run_chaos(storm_config(7))
    assert a.describe() == b.describe()


def test_arrival_pattern_alone_keeps_the_closed_loop():
    """Shaped arrivals without admission use the classic serialized
    driver: no admission counters, and the run still passes."""
    result = run_chaos(ChaosConfig(seed=2, arrival_pattern="flash-crowd"))
    assert result.ok, result.describe()
    assert result.status.admission_attempts == 0
    assert result.shed_updates == 0
    assert "admission:" not in result.describe()


def test_diurnal_arrivals_pass_too():
    result = run_chaos(ChaosConfig(seed=4, arrival_pattern="diurnal"))
    assert result.ok, result.describe()


def test_dormant_default_reports_no_overload_lines():
    """admission=None (the default): zero admission machinery, zero
    counters, and describe() is free of overload lines — the CI job
    separately diffs this output against pre-admission HEAD byte for
    byte."""
    result = run_chaos(ChaosConfig(seed=0))
    assert result.ok
    assert result.status.admission_attempts == 0
    assert result.status.admission_degraded_reads == 0
    assert result.clients.breaker_opens == 0
    description = result.describe()
    assert "admission:" not in description
    assert "degradation:" not in description
