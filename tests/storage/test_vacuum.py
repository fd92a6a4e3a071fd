"""Tests for MVCC version garbage collection (vacuum)."""

import pytest

from repro.errors import TransactionStateError
from repro.storage.engine import SIDatabase
from repro.storage.versions import Version, VersionChain


def _put(db, key, value):
    txn = db.begin(update=True)
    txn.write(key, value)
    return txn.commit()


# ---------------------------------------------------------------------------
# Chain-level pruning
# ---------------------------------------------------------------------------

def _chain(*entries):
    chain = VersionChain("k")
    for ts, value, deleted in entries:
        chain.install(Version(commit_ts=ts, value=value, txn_id=ts,
                              deleted=deleted))
    return chain


def test_prune_keeps_visible_version_at_horizon():
    chain = _chain((1, "a", False), (3, "b", False), (5, "c", False))
    assert chain.prune_before(4) == 1        # drops ts=1 only
    assert chain.value_at(4) == (True, "b")  # horizon reads unchanged
    assert chain.value_at(10) == (True, "c")


def test_prune_empty_and_noop():
    chain = VersionChain("k")
    assert chain.prune_before(10) == 0
    chain = _chain((5, "a", False))
    assert chain.prune_before(3) == 0        # nothing older than horizon
    assert chain.prune_before(5) == 0        # the visible version stays


def test_prune_drops_tombstone_at_horizon():
    chain = _chain((1, "a", False), (2, None, True))
    assert chain.prune_before(5) == 2        # tombstone + old version go
    assert len(chain) == 0


def test_prune_keeps_tombstone_followed_by_newer_version():
    chain = _chain((1, "a", False), (2, None, True), (3, "b", False))
    chain.prune_before(2)
    assert chain.value_at(2) == (False, None)
    assert chain.value_at(3) == (True, "b")


# ---------------------------------------------------------------------------
# Engine-level vacuum
# ---------------------------------------------------------------------------

def test_vacuum_reclaims_old_versions():
    db = SIDatabase()
    for i in range(10):
        _put(db, "hot", i)
    assert db.version_count == 10
    reclaimed = db.vacuum()
    assert reclaimed == 9
    assert db.version_count == 1
    assert db.get_committed("hot") == 9      # latest value intact


def test_vacuum_respects_active_transactions():
    db = SIDatabase()
    _put(db, "x", 1)
    reader = db.begin()                       # pins snapshot at ts=1
    _put(db, "x", 2)
    _put(db, "x", 3)
    assert db.gc_horizon() == 1
    db.vacuum()
    assert reader.read("x") == 1              # still readable
    reader.commit()
    assert db.gc_horizon() == 3
    db.vacuum()
    assert db.version_count == 1


def test_vacuum_past_horizon_rejected():
    db = SIDatabase()
    _put(db, "x", 1)
    db.begin()                                # active reader at ts=1
    with pytest.raises(TransactionStateError, match="horizon"):
        db.vacuum(before_ts=1000)


def test_vacuum_explicit_horizon():
    db = SIDatabase()
    for i in range(5):
        _put(db, "x", i)
    db.vacuum(before_ts=3)
    assert db.snapshot(3)["x"] == 2           # horizon snapshot preserved
    assert db.snapshot(5)["x"] == 4


def test_vacuum_removes_fully_deleted_keys():
    db = SIDatabase()
    _put(db, "gone", 1)
    txn = db.begin(update=True)
    txn.delete("gone")
    txn.commit()
    _put(db, "kept", 2)
    db.vacuum()
    assert db.version_count == 1              # only 'kept' remains
    assert db.get_committed("gone", "absent") == "absent"
    assert db.get_committed("kept") == 2


def test_vacuum_idle_database_noop():
    db = SIDatabase()
    assert db.vacuum() == 0


def test_reads_and_writes_work_normally_after_vacuum():
    db = SIDatabase()
    for i in range(20):
        _put(db, f"k{i % 4}", i)
    db.vacuum()
    txn = db.begin(update=True)
    assert txn.read("k3") == 19
    txn.write("k3", 100)
    txn.commit()
    assert db.get_committed("k3") == 100


def test_vacuum_in_replicated_system_secondary():
    """Replicas can vacuum independently; replication is unaffected."""
    from repro.core.system import ReplicatedSystem
    system = ReplicatedSystem(num_secondaries=1, propagation_delay=0.5)
    s = system.session()
    for i in range(8):
        s.write("x", i)
    system.quiesce()
    secondary = system.secondaries[0]
    assert secondary.engine.vacuum() > 0
    s.write("x", 99)
    assert s.read("x") == 99
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()


def test_vacuum_forgets_dead_keys_in_the_index():
    """The ordered index drops a key with its chain, so later scans of the
    range neither walk nor probe it; re-inserting restores it in order."""
    db = SIDatabase()
    for key in ("a", "b", "c", "d"):
        _put(db, key, key.upper())
    txn = db.begin(update=True)
    txn.delete("b")
    txn.delete("c")
    txn.commit()
    before = db.begin().scan()
    assert len(db._index) == 4                # tombstoned, still indexed
    db.vacuum()
    assert len(db._index) == len(db._chains) == 2
    assert list(db._index) == ["a", "d"]
    assert db.begin().scan() == before == [("a", "A"), ("d", "D")]
    assert db.begin().scan(prefix="b") == []
    _put(db, "c", "again")
    assert list(db._index) == ["a", "c", "d"]
    assert db.begin().scan("b", "d") == [("c", "again"), ("d", "D")]
    # An own write of a vacuumed key is a brand-new key again.
    txn = db.begin(update=True)
    txn.write("b", "mine")
    assert txn.scan() == [("a", "A"), ("b", "mine"), ("c", "again"),
                          ("d", "D")]


def test_truncate_after_forgets_emptied_keys_in_the_index():
    db = SIDatabase()
    _put(db, "old", 1)
    cut = db.latest_commit_ts
    _put(db, "old", 2)
    _put(db, "new", 3)
    assert db.truncate_after(cut) == 2
    assert list(db._index) == list(db._chains) == ["old"]
    assert db.begin().scan() == [("old", 1)]
    _put(db, "new", 4)
    assert db.begin().scan() == [("new", 4), ("old", 1)]
