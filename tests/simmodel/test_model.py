"""Tests for the Section 5 simulation model's mechanics.

Short runs with few clients keep these fast; the full-scale behaviour is
exercised by the benchmark suite.
"""

import pytest

from repro.core.guarantees import Guarantee
from repro.simmodel.model import LazyReplicationModel
from repro.simmodel.params import SimulationParameters


def tiny_params(**overrides):
    defaults = dict(num_sec=2, clients_per_secondary=3, duration=120.0,
                    warmup=20.0, seed=11)
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def run_model(**overrides):
    params = tiny_params(**overrides)
    model = LazyReplicationModel(params)
    metrics = model.run()
    return model, metrics


def test_model_completes_transactions():
    model, metrics = run_model()
    assert metrics.completions() > 0
    assert model.counters.update_commits > 0


def test_client_assignment_uniform():
    model = LazyReplicationModel(tiny_params())
    assignment = model._client_assignment()
    assert len(assignment) == 6
    assert assignment.count(0) == 3 and assignment.count(1) == 3


def test_client_assignment_with_extras():
    params = tiny_params().with_total_clients(7)
    model = LazyReplicationModel(params)
    assignment = model._client_assignment()
    assert len(assignment) == 7
    assert abs(assignment.count(0) - assignment.count(1)) <= 1


def test_same_seed_is_deterministic():
    _, m1 = run_model()
    _, m2 = run_model()
    assert m1.completions() == m2.completions()
    assert m1.mean_response_time("read") == m2.mean_response_time("read")


def test_different_seeds_differ():
    _, m1 = run_model(seed=1)
    _, m2 = run_model(seed=2)
    assert (m1.completions(), m1.mean_response_time("read")) != \
           (m2.completions(), m2.mean_response_time("read"))


def test_seq_db_never_exceeds_primary_commits():
    model, _ = run_model()
    for secondary in model.secondaries:
        assert 0 <= secondary.seq_db <= model._commit_counter


def test_refreshes_reach_all_secondaries():
    model, _ = run_model()
    # After the final propagation cycles some lag is expected, but every
    # secondary must have applied a decent share of the commits.
    for secondary in model.secondaries:
        assert secondary.refreshes_applied > 0


def test_weak_si_never_blocks_reads():
    _, metrics = run_model(algorithm=Guarantee.WEAK_SI)
    assert metrics.blocked == {}


def test_session_si_blocks_only_after_own_updates():
    _, weak = run_model(algorithm=Guarantee.WEAK_SI)
    _, session = run_model(algorithm=Guarantee.STRONG_SESSION_SI)
    _, strong = run_model(algorithm=Guarantee.STRONG_SI)
    assert session.blocked.get("read", 0) >= 0
    assert strong.blocked.get("read", 0) > session.blocked.get("read", 0)


def test_strong_si_read_rt_dominated_by_propagation_delay():
    _, strong = run_model(algorithm=Guarantee.STRONG_SI, duration=300.0)
    _, weak = run_model(algorithm=Guarantee.WEAK_SI, duration=300.0)
    assert strong.mean_response_time("read") > \
        weak.mean_response_time("read") + 1.0


def test_abort_prob_zero_means_no_restarts():
    model, _ = run_model(abort_prob=0.0)
    assert model.counters.update_restarts == 0


def test_abort_prob_produces_restarts():
    model, _ = run_model(abort_prob=0.5, duration=300.0)
    assert model.counters.update_restarts > 0


def test_propagation_cycles_follow_delay():
    model, _ = run_model(propagation_delay=10.0, duration=100.0)
    # ~10 cycles in 100 s.
    assert 8 <= model.counters.propagation_cycles <= 11


def test_update_ops_binomial_range():
    """Update transactions carry between 0 and tran_size update ops."""
    model, _ = run_model()
    assert model.counters.update_commits > 0
    # Applied refresh work must be bounded by commits * max ops.
    for secondary in model.secondaries:
        assert secondary.refreshes_applied <= model.counters.update_commits


def test_per_op_requests_close_to_aggregated():
    """Fidelity knob: per-operation server requests give statistically
    similar response times to the aggregated-demand default under PS."""
    _, aggregated = run_model(duration=400.0, per_op_requests=False)
    _, per_op = run_model(duration=400.0, per_op_requests=True)
    assert aggregated.mean_response_time("read") == pytest.approx(
        per_op.mean_response_time("read"), rel=0.5, abs=0.2)


def test_rr_discipline_close_to_ps():
    _, ps = run_model(duration=300.0, server_discipline="ps")
    _, rr = run_model(duration=300.0, server_discipline="rr")
    assert ps.mean_response_time("read") == pytest.approx(
        rr.mean_response_time("read"), rel=0.5, abs=0.2)


def test_utilizations_bounded():
    model, _ = run_model()
    assert 0.0 <= model.primary_utilization() <= 1.0
    assert 0.0 <= model.secondary_utilization() <= 1.0


def test_sessions_restart_after_ending():
    model, _ = run_model(session_time=30.0, duration=300.0)
    # 6 clients, ~30 s sessions over 300 s -> clearly more sessions than
    # clients.
    assert model.counters.sessions_started > 6


def test_pcsi_behaves_like_session_si_in_model():
    """Clients never migrate replicas in the simulation, so PCSI and
    strong session SI must produce statistically identical behaviour
    (the separation needs replica switching — see the functional tests)."""
    from repro.core.guarantees import Guarantee as G
    _, pcsi = run_model(algorithm=G.PCSI, duration=300.0)
    _, session = run_model(algorithm=G.STRONG_SESSION_SI, duration=300.0)
    assert pcsi.completions() == session.completions()
    assert pcsi.mean_response_time("read") == pytest.approx(
        session.mean_response_time("read"))

