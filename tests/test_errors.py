"""The typed-error taxonomy: every public error class is exported,
constructible with its documented attributes, and raisable."""

import inspect

import pytest

from repro import errors
from repro.errors import (
    CheckerError,
    CircuitOpenError,
    ConfigurationError,
    DeadlockError,
    FirstCommitterWinsError,
    FreshnessTimeoutError,
    InvalidScanError,
    KernelError,
    KeyNotFound,
    LeaseExpiredError,
    LostUpdatesError,
    NoLiveSecondariesError,
    NoPrimaryError,
    OverloadError,
    ReplicationError,
    ReproError,
    SessionClosedError,
    ShardUnavailableError,
    SimulationError,
    SiteUnavailableError,
    StorageError,
    TransactionAborted,
    TransactionStateError,
    UnorderableKeyError,
)


def public_error_classes():
    return {name for name, obj in vars(errors).items()
            if inspect.isclass(obj) and issubclass(obj, Exception)}


def test_all_pins_the_module_contents():
    # A new error class cannot ship unexported (or a stale name linger).
    assert set(errors.__all__) == public_error_classes()
    assert len(errors.__all__) == len(set(errors.__all__))


def test_every_error_derives_from_repro_error():
    for name in errors.__all__:
        assert issubclass(getattr(errors, name), ReproError)
    assert issubclass(ReproError, Exception)


@pytest.mark.parametrize("cls,base", [
    (KernelError, ReproError),
    (DeadlockError, KernelError),
    (StorageError, ReproError),
    (TransactionAborted, StorageError),
    (FirstCommitterWinsError, TransactionAborted),
    (TransactionStateError, StorageError),
    (KeyNotFound, StorageError),
    (UnorderableKeyError, StorageError),
    (InvalidScanError, StorageError),
    (ReplicationError, ReproError),
    (SiteUnavailableError, ReplicationError),
    (ShardUnavailableError, ReplicationError),
    (NoLiveSecondariesError, ReplicationError),
    (NoPrimaryError, ReplicationError),
    (LostUpdatesError, ReplicationError),
    (LeaseExpiredError, ReplicationError),
    (SessionClosedError, ReplicationError),
    (FreshnessTimeoutError, ReplicationError),
    (OverloadError, ReplicationError),
    (CircuitOpenError, ReplicationError),
    (CheckerError, ReproError),
    (SimulationError, ReproError),
    (ConfigurationError, ReproError),
])
def test_hierarchy(cls, base):
    assert issubclass(cls, base)


# ---------------------------------------------------------------------------
# Documented attributes, and each class raised at least once
# ---------------------------------------------------------------------------

def test_first_committer_wins_attributes():
    with pytest.raises(FirstCommitterWinsError) as exc_info:
        raise FirstCommitterWinsError(7, "stock", 9)
    exc = exc_info.value
    assert (exc.txn_id, exc.key, exc.winner_txn_id) == (7, "stock", 9)
    assert "first-committer-wins" in str(exc)


def test_key_not_found_attributes():
    with pytest.raises(KeyNotFound) as exc_info:
        raise KeyNotFound("ghost")
    assert exc_info.value.key == "ghost"


def test_unorderable_key_attributes():
    with pytest.raises(UnorderableKeyError) as exc_info:
        raise UnorderableKeyError(5)
    assert exc_info.value.key == 5
    assert "key 5 " in str(exc_info.value)


def test_shard_unavailable_attributes():
    with pytest.raises(ShardUnavailableError) as exc_info:
        raise ShardUnavailableError(frozenset({2, 5}), label="c0")
    exc = exc_info.value
    assert exc.shards == frozenset({2, 5})
    assert exc.label == "c0"
    assert "shards [2, 5]" in str(exc)


def test_lost_updates_attributes():
    with pytest.raises(LostUpdatesError) as exc_info:
        raise LostUpdatesError("c3", (10, 14))
    exc = exc_info.value
    assert exc.label == "c3"
    assert exc.window == (10, 14)
    assert "(10, 14]" in str(exc)


def test_lease_expired_attributes():
    with pytest.raises(LeaseExpiredError) as exc_info:
        raise LeaseExpiredError(42, "primary")
    exc = exc_info.value
    assert exc.txn_id == 42
    assert exc.site == "primary"


def test_overload_error_attributes():
    with pytest.raises(OverloadError) as exc_info:
        raise OverloadError("c1", "reject-oldest", 4)
    exc = exc_info.value
    assert exc.label == "c1"
    assert exc.policy == "reject-oldest"
    assert exc.queue_depth == 4
    assert "reject-oldest" in str(exc)


def test_circuit_open_error_attributes():
    with pytest.raises(CircuitOpenError) as exc_info:
        raise CircuitOpenError("c2", 1.5)
    exc = exc_info.value
    assert exc.label == "c2"
    assert exc.retry_after == 1.5
    assert "1.500s" in str(exc)


@pytest.mark.parametrize("cls", [
    ReproError, KernelError, DeadlockError, StorageError,
    TransactionAborted, TransactionStateError,
    ReplicationError, SiteUnavailableError, NoLiveSecondariesError,
    NoPrimaryError, SessionClosedError, FreshnessTimeoutError,
    CheckerError, SimulationError, ConfigurationError,
])
def test_message_only_errors_raise_and_carry_their_message(cls):
    with pytest.raises(cls, match="boom"):
        raise cls("boom")
    # ... and are caught by the one documented base class.
    with pytest.raises(ReproError):
        raise cls("boom")
