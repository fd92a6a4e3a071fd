"""SQL phenomena P0-P5 (Appendix A): the engine's SI prevents P0-P4 and
permits P5 (write skew), exactly as Section 2.1 states."""

import pytest

from repro.errors import FirstCommitterWinsError
from repro.storage.engine import SIDatabase
from repro.txn.history import HistoryRecorder
from repro.txn.phenomena import (
    find_dirty_reads,
    find_dirty_writes,
    find_fuzzy_reads,
    find_lost_updates,
    find_phantoms,
    find_write_skew,
)


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def db(recorder):
    return SIDatabase(name="site", recorder=recorder)


def _put(db, key, value):
    txn = db.begin(update=True)
    txn.write(key, value)
    txn.commit()


# ---------------------------------------------------------------------------
# P0 dirty write
# ---------------------------------------------------------------------------

def test_p0_dirty_write_prevented(db, recorder):
    """Two overlapping writers of the same key cannot both commit."""
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.write("x", 1)
    t2.write("x", 2)
    t1.commit()
    with pytest.raises(FirstCommitterWinsError):
        t2.commit()
    assert find_dirty_writes(recorder) == []


def test_p0_detector_fires_on_fabricated_bad_history(recorder):
    """Sanity: the detector does find P0 when it is present."""
    class FakeTxn:
        def __init__(self, txn_id):
            self.txn_id = txn_id
            self.start_ts = 0
            self.metadata = {}
            self.is_update = True
            self.recorded_ids = None
            self.commit_ts = None
    t1, t2 = FakeTxn(1), FakeTxn(2)
    recorder.record("begin", "s", t1, 0.0)
    recorder.record("begin", "s", t2, 0.0)
    recorder.record("write", "s", t1, 0.0, key="x", value=1)
    recorder.record("write", "s", t2, 0.0, key="x", value=2)
    t1.commit_ts = 1
    recorder.record("commit", "s", t1, 0.0)
    t2.commit_ts = 2
    recorder.record("commit", "s", t2, 0.0)
    witnesses = find_dirty_writes(recorder)
    assert len(witnesses) == 1 and witnesses[0]["keys"] == {"x"}


# ---------------------------------------------------------------------------
# P1 dirty read
# ---------------------------------------------------------------------------

def test_p1_dirty_read_prevented(db, recorder):
    """A reader never sees an uncommitted write."""
    _put(db, "x", 0)
    writer = db.begin(update=True)
    writer.write("x", 99)
    reader = db.begin()
    assert reader.read("x") == 0      # old committed version
    reader.commit()
    writer.commit()
    assert find_dirty_reads(recorder) == []


def test_p1_not_flagged_when_writer_later_aborts(db, recorder):
    _put(db, "x", 0)
    writer = db.begin(update=True)
    writer.write("x", 1)
    reader = db.begin()
    assert reader.read("x") == 0
    reader.commit()
    writer.abort()
    assert find_dirty_reads(recorder) == []


def test_p1_own_reads_not_dirty(db, recorder):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.read("x")                      # reading your own write is fine
    txn.commit()
    assert find_dirty_reads(recorder) == []


# ---------------------------------------------------------------------------
# P2 fuzzy read
# ---------------------------------------------------------------------------

def test_p2_fuzzy_read_prevented(db, recorder):
    _put(db, "x", 1)
    reader = db.begin()
    assert reader.read("x") == 1
    _put(db, "x", 2)                   # concurrent committed modification
    assert reader.read("x") == 1       # re-read unchanged
    reader.commit()
    assert find_fuzzy_reads(recorder) == []


def test_p2_re_read_after_own_write_not_fuzzy(db, recorder):
    _put(db, "x", 1)
    txn = db.begin(update=True)
    assert txn.read("x") == 1
    txn.write("x", 5)
    assert txn.read("x") == 5          # changed by own write: allowed
    txn.commit()
    assert find_fuzzy_reads(recorder) == []


# ---------------------------------------------------------------------------
# P3 phantom
# ---------------------------------------------------------------------------

def test_p3_phantom_prevented(db, recorder):
    _put(db, "acct:1", 100)
    reader = db.begin()
    first = reader.scan(prefix="acct:")
    _put(db, "acct:2", 50)             # concurrent insert matching predicate
    second = reader.scan(prefix="acct:")
    assert first == second             # no phantom
    reader.commit()
    assert find_phantoms(recorder) == []


def test_p3_phantom_prevented_for_deletes(db, recorder):
    _put(db, "acct:1", 100)
    _put(db, "acct:2", 50)
    reader = db.begin()
    first = reader.scan(prefix="acct:")
    deleter = db.begin(update=True)
    deleter.delete("acct:2")
    deleter.commit()
    assert reader.scan(prefix="acct:") == first
    assert find_phantoms(recorder) == []


# ---------------------------------------------------------------------------
# P4 lost update
# ---------------------------------------------------------------------------

def test_p4_lost_update_prevented(db, recorder):
    """r1(x) ... w2(x) c2 ... w1(x) c1 must not succeed under FCW."""
    _put(db, "x", 100)
    t1 = db.begin(update=True)
    assert t1.read("x") == 100
    t2 = db.begin(update=True)
    t2.write("x", t2.read("x") + 10)
    t2.commit()                        # T2 commits first
    t1.write("x", 100 + 1)             # based on the stale read
    with pytest.raises(FirstCommitterWinsError):
        t1.commit()
    assert find_lost_updates(recorder) == []
    assert db.get_committed("x") == 110   # T2's update is preserved


# ---------------------------------------------------------------------------
# P5 write skew — POSSIBLE under SI
# ---------------------------------------------------------------------------

def test_p5_write_skew_possible(db, recorder):
    """The classic x+y>=0 constraint violation: both commit under SI."""
    _put(db, "x", 50)
    _put(db, "y", 50)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    # Each checks the constraint against the same snapshot...
    assert t1.read("x") + t1.read("y") == 100
    assert t2.read("x") + t2.read("y") == 100
    # ...then each withdraws from a different account.
    t1.write("x", t1.read("x") - 80)
    t2.write("y", t2.read("y") - 80)
    t1.commit()
    t2.commit()        # no write-write conflict: both commit
    state = db.state_at()
    assert state["x"] + state["y"] < 0            # constraint violated!
    witnesses = find_write_skew(recorder)
    assert len(witnesses) == 1


def test_p5_not_flagged_for_sequential_transactions(db, recorder):
    _put(db, "x", 1)
    _put(db, "y", 1)
    t1 = db.begin(update=True)
    t1.read("y")
    t1.write("x", 2)
    t1.commit()
    t2 = db.begin(update=True)         # starts after t1 committed
    t2.read("x")
    t2.write("y", 2)
    t2.commit()
    assert find_write_skew(recorder) == []


def test_p5_not_flagged_without_read_write_crossing(db, recorder):
    _put(db, "x", 1)
    _put(db, "y", 1)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.read("x")
    t1.write("x", 2)     # t1 only touches x
    t2.read("y")
    t2.write("y", 2)     # t2 only touches y
    t1.commit()
    t2.commit()
    assert find_write_skew(recorder) == []


def test_si_example_from_section_2(db, recorder):
    """Section 2's T1/T2: both read {x,y}, T1 writes x, T2 writes y."""
    _put(db, "x", 0)
    _put(db, "y", 0)
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t1.read("x"), t1.read("y")
    t2.read("x"), t2.read("y")
    t1.write("x", "T1")
    t2.write("y", "T2")
    t1.commit()
    t2.commit()            # no write-write conflict (Section 2 example)
    assert db.state_at() == {"x": "T1", "y": "T2"}
