"""Property-based tests of the storage engine's SI invariants."""

from hypothesis import given, settings, strategies as st

from repro.errors import FirstCommitterWinsError
from repro.storage.engine import SIDatabase

KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
VALUES = st.integers(min_value=0, max_value=1000)

# A serial script: list of transactions, each a list of (key, value) writes.
SERIAL_SCRIPT = st.lists(
    st.lists(st.tuples(KEYS, VALUES), min_size=1, max_size=4),
    min_size=0, max_size=12)


@settings(max_examples=60, deadline=None)
@given(SERIAL_SCRIPT)
def test_serial_updates_equal_dict_replay(script):
    """Serially committed transactions behave exactly like dict updates."""
    db = SIDatabase()
    expected: dict = {}
    for writes in script:
        txn = db.begin(update=True)
        for key, value in writes:
            txn.write(key, value)
        txn.commit()
        expected.update(dict(writes))
    assert db.state_at() == expected


@settings(max_examples=60, deadline=None)
@given(SERIAL_SCRIPT)
def test_snapshots_reconstruct_every_intermediate_state(script):
    """state_at(i) equals the dict after the first i transactions."""
    db = SIDatabase()
    expected_states = [{}]
    current: dict = {}
    for writes in script:
        txn = db.begin(update=True)
        for key, value in writes:
            txn.write(key, value)
        txn.commit()
        current.update(dict(writes))
        expected_states.append(dict(current))
    for i, expected in enumerate(expected_states):
        assert db.state_at(i) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(KEYS, VALUES), min_size=1, max_size=6))
def test_read_your_own_writes_always(writes):
    db = SIDatabase()
    txn = db.begin(update=True)
    latest: dict = {}
    for key, value in writes:
        txn.write(key, value)
        latest[key] = value
        assert txn.read(key) == value
    for key, value in latest.items():
        assert txn.read(key) == value


# Interleaved script: (txn_index, key, value) writes over up to 3 open txns.
INTERLEAVED = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), KEYS, VALUES),
    min_size=1, max_size=15)


@settings(max_examples=80, deadline=None)
@given(INTERLEAVED, st.permutations([0, 1, 2]))
def test_fcw_no_two_overlapping_committers_share_a_key(ops, commit_order):
    """Whatever the interleaving, versions installed by overlapping
    transactions never conflict, and the final state replays exactly the
    successful committers in commit order."""
    db = SIDatabase()
    txns = [db.begin(update=True) for _ in range(3)]
    for index, key, value in ops:
        txns[index].write(key, value)
    committed = []
    for index in commit_order:
        try:
            txns[index].commit()
            committed.append(index)
        except FirstCommitterWinsError:
            pass
    # Replay: the writes of committed txns, in commit order.
    expected: dict = {}
    for index in committed:
        for key, (value, deleted) in txns[index]._writes.items():
            if not deleted:
                expected[key] = value
    assert db.state_at() == expected
    # Overlapping committed transactions must have disjoint write sets.
    for i, a in enumerate(committed):
        for b in committed[i + 1:]:
            assert not (txns[a].write_set & txns[b].write_set), \
                "two overlapping transactions committed the same key"


@settings(max_examples=60, deadline=None)
@given(SERIAL_SCRIPT, st.data())
def test_reader_snapshot_stability(script, data):
    """A reader opened at any point sees exactly the state at its start,
    no matter how many transactions commit afterwards."""
    db = SIDatabase()
    states = [{}]
    current: dict = {}
    readers = []
    for writes in script:
        if data.draw(st.booleans(), label="open_reader"):
            readers.append((db.begin(), dict(current)))
        txn = db.begin(update=True)
        for key, value in writes:
            txn.write(key, value)
        txn.commit()
        current.update(dict(writes))
        states.append(dict(current))
    for reader, expected in readers:
        for key in "abcde":
            assert reader.read(key, default=None) == expected.get(key)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(KEYS, st.booleans()), min_size=1, max_size=10))
def test_deletes_and_writes_tombstone_consistency(ops):
    """Interleaved writes/deletes: visibility equals dict semantics."""
    db = SIDatabase()
    expected: dict = {}
    for key, is_delete in ops:
        txn = db.begin(update=True)
        if is_delete:
            txn.delete(key)
            expected.pop(key, None)
        else:
            txn.write(key, 1)
            expected[key] = 1
        txn.commit()
    assert db.state_at() == expected


@settings(max_examples=40, deadline=None)
@given(SERIAL_SCRIPT)
def test_scan_equals_sorted_state(script):
    db = SIDatabase()
    for writes in script:
        txn = db.begin(update=True)
        for key, value in writes:
            txn.write(key, value)
        txn.commit()
    txn = db.begin()
    assert txn.scan() == sorted(db.state_at().items())


# Keys that nest as prefixes of one another, so prefix scans and range
# bounds cut through the middle of the key space; OWN_KEYS adds some the
# committed history never writes (own-written *new* keys).
SCAN_KEYS = ["a", "ab", "abc", "b", "ba", "bb", "c", "ca"]
OWN_KEYS = SCAN_KEYS + ["aa", "abb", "bab", "cb", "d"]
DELETE = None       # a write of None stands for a delete in these scripts
WRITES = st.one_of(st.just(DELETE), VALUES)
BOUND = st.one_of(st.none(), st.sampled_from(OWN_KEYS + ["", "bz", "z"]))


@settings(max_examples=200, deadline=None)
@given(
    history=st.lists(
        st.lists(st.tuples(st.sampled_from(SCAN_KEYS), WRITES),
                 min_size=1, max_size=4),
        min_size=0, max_size=10),
    own=st.lists(st.tuples(st.sampled_from(OWN_KEYS), WRITES), max_size=5),
    lo=BOUND, hi=BOUND,
    prefix=st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "x"])),
    data=st.data())
def test_scan_equals_overlaid_sorted_snapshot(history, own, lo, hi, prefix,
                                              data):
    """``scan`` is ``sorted(state_at(start_ts))`` restricted to the range
    and overlaid with the transaction's own writes — at any snapshot,
    after deletes and a vacuum — and records exactly the returned keys."""
    from repro.txn.history import HistoryRecorder
    recorder = HistoryRecorder()
    db = SIDatabase(recorder=recorder)
    vacuum_after = data.draw(st.integers(0, len(history)), label="vacuum")
    for count, writes in enumerate(history, start=1):
        txn = db.begin(update=True)
        for key, value in writes:
            if value is DELETE:
                txn.delete(key)
            else:
                txn.write(key, value)
        txn.commit()
        if count == vacuum_after:
            db.vacuum()
            assert len(db._index) == len(db._chains)
    snapshot_ts = data.draw(
        st.integers(db._vacuum_horizon, db.latest_commit_ts),
        label="snapshot_ts")
    txn = db.begin(update=bool(own), snapshot_ts=snapshot_ts)
    expected = db.state_at(snapshot_ts)
    for key, value in own:
        if value is DELETE:
            txn.delete(key)
            expected.pop(key, None)
        else:
            txn.write(key, value)
            expected[key] = value

    def in_range(key):
        if prefix is not None:
            return key.startswith(prefix)
        return (lo is None or key >= lo) and (hi is None or key <= hi)

    rows = txn.scan(lo, hi, prefix=prefix)
    assert rows == sorted((key, value) for key, value in expected.items()
                          if in_range(key))
    event = recorder.events[-1]
    assert (event.kind, event.key) == ("scan", (lo, hi, prefix))
    assert event.value == tuple(key for key, _ in rows)
