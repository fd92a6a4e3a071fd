"""Tests for Table 1 parameters."""

import pytest

from repro.core.guarantees import Guarantee
from repro.errors import ConfigurationError
from repro.simmodel.params import SimulationParameters, TABLE_1_DEFAULTS


def test_table_1_default_values():
    """The defaults must match Table 1 of the paper, verbatim."""
    p = TABLE_1_DEFAULTS
    assert p.clients_per_secondary == 20
    assert p.think_time == 7.0
    assert p.session_time == 15 * 60.0
    assert p.update_tran_prob == 0.20
    assert p.abort_prob == 0.01
    assert p.tran_size_mean == 10
    assert p.op_service_time == 0.02
    assert p.update_op_prob == 0.30
    assert p.propagation_delay == 10.0
    assert p.time_slice == 0.001


def test_methodology_defaults():
    """Section 6.1: 35-minute runs, 5-minute warm-up, 5 replications,
    3 s response-time threshold."""
    p = TABLE_1_DEFAULTS
    assert p.duration == 35 * 60.0
    assert p.warmup == 5 * 60.0
    assert p.replications == 5
    assert p.fast_threshold == 3.0


def test_num_clients_derived():
    p = SimulationParameters(num_sec=5, clients_per_secondary=20)
    assert p.num_clients == 100


def test_with_copies_fields():
    p = TABLE_1_DEFAULTS.with_(num_sec=7, update_tran_prob=0.05)
    assert p.num_sec == 7
    assert p.update_tran_prob == 0.05
    assert TABLE_1_DEFAULTS.num_sec == 5        # original untouched


def test_with_total_clients_divides_evenly():
    p = SimulationParameters(num_sec=5).with_total_clients(100)
    assert p.clients_per_secondary == 20
    assert p.extra_clients == 0


def test_with_total_clients_remainder():
    p = SimulationParameters(num_sec=5).with_total_clients(103)
    assert p.clients_per_secondary == 20
    assert p.extra_clients == 3
    assert p.num_clients + p.extra_clients == 103


def test_with_total_clients_too_few():
    with pytest.raises(ConfigurationError):
        SimulationParameters(num_sec=5).with_total_clients(3)


@pytest.mark.parametrize("field,value", [
    ("num_sec", 0),
    ("clients_per_secondary", 0),
    ("update_tran_prob", 1.5),
    ("abort_prob", 1.0),
    ("tran_size_min", 0),
    ("server_discipline", "lifo"),
])
def test_validation_rejects_bad_values(field, value):
    with pytest.raises(ConfigurationError):
        SimulationParameters(**{field: value})


def test_warmup_must_precede_duration():
    with pytest.raises(ConfigurationError):
        SimulationParameters(duration=100.0, warmup=100.0)


def test_tran_size_range_order():
    with pytest.raises(ConfigurationError):
        SimulationParameters(tran_size_min=10, tran_size_max=5)


def test_describe_mentions_mix_and_scale():
    text = SimulationParameters(algorithm=Guarantee.WEAK_SI).describe()
    assert "80/20" in text
    assert "sec=5" in text


def test_frozen():
    with pytest.raises(AttributeError):
        TABLE_1_DEFAULTS.num_sec = 9   # type: ignore[misc]
