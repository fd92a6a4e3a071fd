"""Microbenchmarks of the storage-engine substrate (real wall-clock).

These measure the raw speed of the MVCC engine — useful for sizing how
large a functional-system experiment is practical, and for catching
performance regressions in the version-chain and FCW paths.  They are
for looking, not for citing: CI runs them with ``--benchmark-disable``
(each body once, its assertions checked, nothing timed) so they cannot
rot; a performance claim cites ``benchmarks/layered/`` only.
"""

import pytest

from repro.storage.engine import SIDatabase
from repro.txn.history import HistoryRecorder


def test_engine_update_commit_throughput(benchmark):
    db = SIDatabase()

    def txn_cycle():
        txn = db.begin(update=True)
        txn.write("hot", 1)
        txn.write("cold", 2)
        txn.commit()

    benchmark(txn_cycle)


def test_engine_snapshot_read_throughput(benchmark):
    db = SIDatabase()
    for i in range(1000):
        txn = db.begin(update=True)
        txn.write(f"k{i % 50}", i)
        txn.commit()

    def read_cycle():
        txn = db.begin()
        for i in range(10):
            txn.read(f"k{i * 5}")
        txn.commit()

    benchmark(read_cycle)


def test_engine_deep_version_chain_read(benchmark):
    """Reads against a 10k-version chain stay logarithmic."""
    db = SIDatabase()
    for i in range(10_000):
        txn = db.begin(update=True)
        txn.write("hot", i)
        txn.commit()
    old_snapshot = 5_000

    def read_old():
        txn = db.begin(snapshot_ts=old_snapshot)
        assert txn.read("hot") == old_snapshot - 1
        txn.commit()

    benchmark(read_old)


def test_engine_scan_throughput(benchmark):
    db = SIDatabase()
    txn = db.begin(update=True)
    for i in range(500):
        txn.write(f"item:{i:04d}", i)
    txn.commit()

    def scan_cycle():
        txn = db.begin()
        rows = txn.scan("item:0100", "item:0199")
        txn.commit()
        assert len(rows) == 100

    benchmark(scan_cycle)


def _catalogue_with_interleaved_writes():
    """500 items, then 200 single-key commits spread over them — the
    state a refreshed secondary serves scans from."""
    db = SIDatabase()
    txn = db.begin(update=True)
    for i in range(500):
        txn.write(f"item:{i:04d}", i)
    txn.commit()
    for step in range(200):
        txn = db.begin(update=True)
        txn.write(f"item:{(step * 37) % 500:04d}", -step)
        txn.commit()
    return db


def test_engine_scan_newest_state_after_interleaved_writes(benchmark):
    """Each cycle writes one key of the range and scans it: one row is
    recomputed, the other 99 come from the chains' memoised rows."""
    db = _catalogue_with_interleaved_writes()
    step = [0]

    def write_and_scan():
        step[0] += 1
        key = f"item:{100 + step[0] % 100:04d}"
        txn = db.begin(update=True)
        txn.write(key, step[0])
        txn.commit()
        txn = db.begin()
        rows = txn.scan("item:0100", "item:0199")
        txn.commit()
        assert len(rows) == 100
        assert (key, step[0]) in rows

    benchmark(write_and_scan)


def test_engine_scan_same_range_at_an_old_snapshot(benchmark):
    """Below the newest installed commit the scan walks the chains key
    by key, whether or not their newest rows are memoised."""
    db = _catalogue_with_interleaved_writes()
    newest = db.begin().scan("item:0100", "item:0199")     # fills the memo
    old_snapshot = 1        # the bulk load, before any single-key commit
    loaded = [(f"item:{i:04d}", i) for i in range(100, 200)]

    def scan_cycle():
        txn = db.begin(snapshot_ts=old_snapshot)
        rows = txn.scan("item:0100", "item:0199")
        txn.commit()
        assert rows == loaded

    benchmark(scan_cycle)
    assert db.begin().scan("item:0100", "item:0199") == newest


def test_engine_scan_range_with_tombstones(benchmark):
    """Every fifth key of the range is deleted: the memoised rows carry
    the tombstones, and the scan pays one filter to drop them."""
    db = _catalogue_with_interleaved_writes()
    txn = db.begin(update=True)
    for i in range(100, 200, 5):
        txn.delete(f"item:{i:04d}")
    txn.commit()

    def scan_cycle():
        txn = db.begin()
        rows = txn.scan("item:0100", "item:0199")
        txn.commit()
        assert len(rows) == 80
        assert rows[0][0] == "item:0101"

    benchmark(scan_cycle)


def test_engine_scan_inside_update_txn(benchmark):
    """The own-write overlay: overwritten, deleted and one brand-new
    in-range key (the only case that pays the final sort)."""
    db = SIDatabase()
    txn = db.begin(update=True)
    for i in range(500):
        txn.write(f"item:{i:04d}", i)
    txn.commit()

    def scan_cycle():
        txn = db.begin(update=True)
        for i in range(100, 110):
            txn.write(f"item:{i:04d}", -i)
        txn.delete("item:0150")
        txn.write("item:0120x", "new")          # in range, not indexed
        txn.write("item:0300", "outside")
        rows = txn.scan("item:0100", "item:0199")
        txn.abort()
        assert len(rows) == 100
        assert rows[0] == ("item:0100", -100)
        assert rows[21] == ("item:0120x", "new")

    benchmark(scan_cycle)


def test_engine_scan_old_snapshot_multiversion(benchmark):
    """Every key's newest version postdates the snapshot, so every key
    takes the bisect path instead of the newest-version fast path."""
    db = SIDatabase()
    for generation in range(6):
        txn = db.begin(update=True)
        for i in range(500):
            txn.write(f"item:{i:04d}", (generation, i))
        txn.commit()
    old_snapshot = 3

    def scan_cycle():
        txn = db.begin(snapshot_ts=old_snapshot)
        rows = txn.scan("item:0100", "item:0199")
        txn.commit()
        assert len(rows) == 100
        assert rows[0] == ("item:0100", (old_snapshot - 1, 100))

    benchmark(scan_cycle)


@pytest.mark.parametrize("detail,events", [("ops", 14), ("commits", 2)])
def test_history_record_throughput(benchmark, detail, events):
    """``HistoryRecorder.record`` through the engine seam: a 12-operation
    transaction records 14 events at ``"ops"`` and, at ``"commits"``,
    two — the twelve dropped ones should cost next to nothing."""
    recorder = HistoryRecorder(detail=detail)
    db = SIDatabase(name="primary", recorder=recorder)
    seed = db.begin(update=True)
    for i in range(50):
        seed.write(f"k{i:02d}", i)
    seed.commit()
    metadata = {"logical_id": "txn-1", "session": "session-1"}

    def txn_cycle():
        del recorder.events[:]
        txn = db.begin(update=True, metadata=metadata)
        for i in range(5):
            txn.read(f"k{i:02d}")
            txn.write(f"k{i:02d}", i)
        txn.read("missing", default=None)
        txn.scan("k10", "k19")
        txn.commit()
        assert len(recorder) == events

    benchmark(txn_cycle)


def test_engine_fcw_validation_cost(benchmark):
    """Commit-time validation with a large write set."""
    db = SIDatabase()
    seed = db.begin(update=True)
    for i in range(200):
        seed.write(f"k{i}", 0)
    seed.commit()

    def big_commit():
        txn = db.begin(update=True)
        for i in range(200):
            txn.write(f"k{i}", 1)
        txn.commit()

    benchmark(big_commit)
