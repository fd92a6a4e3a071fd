"""An absent read is recorded as what the snapshot held — nothing.

``Transaction.read(key, default=d)`` used to record ``value=d`` for a
missing key, and ``exists()`` therefore recorded its private sentinel
object as an observed value; two absent reads of one key with different
defaults then looked like a fuzzy read (P2).
"""

import pytest

from repro.storage.engine import SIDatabase
from repro.txn.checkers import check_weak_si
from repro.txn.history import HistoryRecorder
from repro.txn.phenomena import find_fuzzy_reads


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def db(recorder):
    return SIDatabase(name="primary", recorder=recorder)


def _reads(recorder):
    return [(e.key, e.value, e.producer)
            for e in recorder.events if e.kind == "read"]


def test_default_is_returned_but_not_recorded(db, recorder):
    txn = db.begin()
    assert txn.read("k", default=0) == 0
    assert txn.exists("k") is False
    assert txn.read("k", default="other") == "other"
    assert txn.read("k", default=None) is None
    txn.commit()
    assert _reads(recorder) == [("k", None, None)] * 4
    assert find_fuzzy_reads(recorder) == []       # was a false P2 witness
    assert check_weak_si(recorder).ok


def test_tombstoned_key_reads_as_absent(db, recorder):
    writer = db.begin(update=True)
    writer.write("k", 1)
    writer.commit()
    deleter = db.begin(update=True)
    deleter.delete("k")
    deleter.commit()
    txn = db.begin()
    assert txn.read("k", default=-1) == -1
    assert not txn.exists("k")
    txn.commit()
    assert _reads(recorder) == [("k", None, None)] * 2
    assert find_fuzzy_reads(recorder) == []


def test_exists_on_a_present_key_records_the_value(db, recorder):
    writer = db.begin(update=True)
    writer.write("k", None)             # a present key whose value is None
    writer.commit()
    txn = db.begin()
    assert txn.exists("k")
    assert _reads(recorder) == [("k", None, writer.txn_id)]


def test_a_genuine_changed_value_reread_is_still_reported(recorder):
    """The detector keeps its teeth: the same key read twice with two
    different values (fabricated — the engine cannot produce it) is P2."""
    class FakeTxn:
        txn_id = 5
        start_ts = 1
        commit_ts = None
        metadata = {"logical_id": "fuzzy"}
        is_update = False
    fake = FakeTxn()
    recorder.record("begin", "s", fake, 0.0)
    recorder.record("read", "s", fake, 0.0, key="k", value=1, producer=1)
    recorder.record("read", "s", fake, 0.0, key="k", value=2, producer=2)
    # ... and so is present-then-absent.
    recorder.record("read", "s", fake, 0.0, key="j", value=1, producer=1)
    recorder.record("read", "s", fake, 0.0, key="j")
    recorder.record("commit", "s", fake, 0.0)
    assert [(w["key"], w["values"]) for w in find_fuzzy_reads(recorder)] \
        == [("k", (1, 2)), ("j", (1, None))]
