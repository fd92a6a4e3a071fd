"""Tests for propagation record types and id allocators."""

import pytest

from repro.core.records import (
    PropagatedAbort,
    PropagatedCommit,
    PropagatedStart,
)
from repro.txn.ids import IdAllocator, SessionLabel


def test_commit_record_update_count():
    commit = PropagatedCommit(txn_id=1, commit_ts=5,
                              updates=(("a", 1, False), ("b", 2, True)))
    assert commit.update_count == 2


def test_records_are_immutable():
    start = PropagatedStart(txn_id=1, start_ts=0)
    with pytest.raises(AttributeError):
        start.start_ts = 9          # type: ignore[misc]


def test_records_equality_by_value():
    a = PropagatedAbort(txn_id=3)
    b = PropagatedAbort(txn_id=3)
    assert a == b
    assert PropagatedStart(1, 0) != PropagatedStart(2, 0)


def test_id_allocator_monotonic_and_prefixed():
    ids = IdAllocator("txn")
    assert ids.next() == "txn-1"
    assert ids.next() == "txn-2"
    other = IdAllocator("txn")
    assert other.next() == "txn-1"     # allocators are independent


def test_session_label_ordering_and_str():
    a = SessionLabel("a")
    b = SessionLabel("b")
    assert a < b
    assert str(a) == "a"
    assert {a, SessionLabel("a")} == {a}
