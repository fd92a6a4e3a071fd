"""Tests for SnapshotView."""

import pytest

from repro.errors import KeyNotFound
from repro.storage.engine import SIDatabase


@pytest.fixture
def db():
    database = SIDatabase()
    for i, (key, value) in enumerate([("x", 1), ("y", 2), ("x", 3)]):
        txn = database.begin(update=True)
        txn.write(key, value)
        txn.commit()
    return database


def test_getitem_and_get(db):
    snap = db.snapshot(2)
    assert snap["x"] == 1
    assert snap.get("y") == 2
    assert snap.get("missing", "dflt") == "dflt"


def test_getitem_missing_raises(db):
    snap = db.snapshot(0)
    with pytest.raises(KeyNotFound):
        snap["x"]


def test_contains(db):
    snap = db.snapshot(1)
    assert "x" in snap
    assert "y" not in snap


def test_keys_sorted(db):
    assert db.snapshot(2).keys() == ["x", "y"]


def test_len_and_iter(db):
    snap = db.snapshot(2)
    assert len(snap) == 2
    assert list(snap) == ["x", "y"]


def test_materialize(db):
    assert db.snapshot(3).materialize() == {"x": 3, "y": 2}


def test_snapshot_equality_with_dict_and_snapshot(db):
    assert db.snapshot(1) == {"x": 1}
    assert db.snapshot(3) == db.snapshot(3)
    assert db.snapshot(1) != db.snapshot(3)


def test_snapshot_stays_valid_as_db_advances(db):
    snap = db.snapshot(1)
    txn = db.begin(update=True)
    txn.write("x", 100)
    txn.commit()
    assert snap["x"] == 1          # chains are append-only


def test_snapshot_of_deleted_key():
    db = SIDatabase()
    t = db.begin(update=True)
    t.write("k", 1)
    t.commit()
    t = db.begin(update=True)
    t.delete("k")
    t.commit()
    assert "k" in db.snapshot(1)
    assert "k" not in db.snapshot(2)
    assert db.snapshot(2).materialize() == {}


def test_views_and_scans_agree_on_tombstones_and_old_snapshots():
    """A view walks the chains once; a scan of the newest state reads
    their memoised rows, an older one walks too.  All of them, and
    per-key lookups, must tell the same story at every timestamp."""
    db = SIDatabase()
    script = [{"a": 1, "b": 2, "c": 3}, {"b": None}, {"a": 10, "d": 4},
              {"c": None, "b": 20}, {"d": None}]
    states = [{}]
    for writes in script:
        txn = db.begin(update=True)
        state = dict(states[-1])
        for key, value in writes.items():
            if value is None:
                txn.delete(key)
                state.pop(key, None)
            else:
                txn.write(key, value)
                state[key] = value
        txn.commit()
        states.append(state)
        for ts, expected in enumerate(states):
            view = db.snapshot(ts)
            assert view.items() == sorted(expected.items())
            assert view.items() == db.begin(snapshot_ts=ts).scan()
            assert view.keys() == sorted(expected) == list(view)
            assert len(view) == len(expected)
            assert view.materialize() == expected and view == expected
            assert {key: view[key] for key in view} == expected
    # A view the database has moved past keeps reading its own timestamp.
    old = db.snapshot(3)
    assert db.snapshot().items() == sorted(states[-1].items())
    assert old.items() == sorted(states[3].items())
