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
WRITE_SET = st.lists(st.tuples(st.sampled_from(SCAN_KEYS), WRITES),
                     min_size=1, max_size=4)
BOUND = st.one_of(st.none(), st.sampled_from(OWN_KEYS + ["", "bz", "z"]))
PREDICATE = st.one_of(
    st.tuples(BOUND, BOUND, st.none()),
    st.tuples(st.none(), st.none(),
              st.sampled_from(["", "a", "ab", "b", "x"])))

# What can happen to one site's database between scans: local commits;
# refresh commits installed *ahead* of the commit counter (parallel
# refresh), published by ``advance_commit_counter`` or left hanging;
# vacuum; the epoch fence's ``truncate_after``; Section 3.4's
# ``recover_from``; a crash and ``restart_from_wal``.
STEP = st.one_of(
    st.tuples(st.just("commit"), WRITE_SET),
    st.tuples(st.just("ahead"), WRITE_SET, st.integers(1, 2),
              st.booleans()),
    st.tuples(st.just("vacuum")),
    st.tuples(st.just("truncate"), st.integers(0, 3)),
    st.tuples(st.just("recover"),
              st.dictionaries(st.sampled_from(SCAN_KEYS), VALUES,
                              max_size=4),
              st.integers(0, 2)),
    st.tuples(st.just("restart")))


class _DictModel:
    """The database as plain dicts: a base image plus the write set
    installed at each commit timestamp.  It knows nothing of chains,
    the index or the memoised rows the engine serves scans from."""

    def __init__(self):
        self.base = {}
        self.installed = {}     # commit_ts -> [(key, value | DELETE)]
        self.counter = 0        # latest_commit_ts
        self.floor = 0          # oldest snapshot still readable

    def top(self):
        return max([self.counter, *self.installed])

    def state_at(self, ts):
        state = dict(self.base)
        for commit_ts in sorted(self.installed):
            if commit_ts <= ts:
                for key, value in self.installed[commit_ts]:
                    if value is DELETE:
                        state.pop(key, None)
                    else:
                        state[key] = value
        return state

    def truncate(self, ts):
        self.installed = {commit_ts: writes
                          for commit_ts, writes in self.installed.items()
                          if commit_ts <= ts}
        self.counter = min(self.counter, ts)

    def recover(self, state, ts):
        self.base, self.installed = dict(state), {}
        self.counter = self.floor = ts


def _apply(txn, writes):
    for key, value in writes:
        if value is DELETE:
            txn.delete(key)
        else:
            txn.write(key, value)


def _in_range(key, lo, hi, prefix):
    if prefix is not None:
        return key.startswith(prefix)
    return (lo is None or key >= lo) and (hi is None or key <= hi)


def _rows(state, predicate):
    return sorted((key, value) for key, value in state.items()
                  if _in_range(key, *predicate))


def _check_storage_invariants(db):
    """The three facts the memoised scan path rests on."""
    keys, chains = db._index.range()
    assert keys == sorted(db._chains)
    for key, chain in zip(keys, chains):
        assert chain is db._chains[key] and len(chain) > 0
        newest = chain.latest
        assert newest.commit_ts <= db._installed_ts
        assert chain._row is None or chain._row == (
            () if newest.deleted else (key, newest.value))


@settings(max_examples=300, deadline=None)
@given(script=st.lists(STEP, max_size=10),
       own=st.lists(st.tuples(st.sampled_from(OWN_KEYS), WRITES), max_size=5),
       predicate=PREDICATE, data=st.data())
def test_scan_equals_overlaid_sorted_snapshot(script, own, predicate, data):
    """``scan`` is the sorted state at ``start_ts`` — by a dict model
    advanced per commit, independent of the engine's chains and memoised
    rows — restricted to the range and overlaid with the transaction's
    own writes, and records exactly the returned keys: at any snapshot,
    after deletes, vacuum, truncation, recovery, a WAL restart and
    refresh commits installed ahead of the counter; the memoised path
    and the per-key walk return the same rows."""
    from repro.storage.wal import LogicalLog
    from repro.txn.history import HistoryRecorder
    recorder = HistoryRecorder()
    db = SIDatabase(recorder=recorder, log=LogicalLog())
    model = _DictModel()
    wal_faithful = True     # the log alone still rebuilds this database
    for step in script:
        kind = step[0]
        if kind == "commit":
            # A local commit takes counter + 1, so whatever a refresh
            # left installed ahead is published first.
            db.advance_commit_counter(model.top())
            txn = db.begin(update=True)
            _apply(txn, step[1])
            model.counter = txn.commit()
            model.installed[model.counter] = step[1]
        elif kind == "ahead":
            _, writes, gap, publish = step
            commit_ts = model.top() + gap
            txn = db.begin(update=True)
            _apply(txn, writes)
            db.commit_refresh_at(txn, commit_ts)
            model.installed[commit_ts] = writes
            if publish:
                db.advance_commit_counter(commit_ts)
                model.counter = commit_ts
            wal_faithful = False
        elif kind == "vacuum":
            db.vacuum()
            model.floor = max(model.floor, model.counter)
        elif kind == "truncate":
            cut = max(model.floor, model.counter - step[1])
            db.truncate_after(cut)
            model.truncate(cut)
            wal_faithful = False
        elif kind == "recover":
            source_ts = model.top() + step[2]
            db.recover_from(step[1], source_ts)
            model.recover(step[1], source_ts)
            wal_faithful = False
        elif wal_faithful:
            db.crash()
            assert db.restart_from_wal() == model.counter
        assert db.latest_commit_ts == model.counter
        assert db._vacuum_horizon == model.floor
        _check_storage_invariants(db)
        # Scans between the steps memoise some rows and not others, so
        # the next step meets chains in every memo state.
        warm = data.draw(st.one_of(st.none(), PREDICATE), label="warm")
        if warm is not None:
            lo, hi, prefix = warm
            reader = db.begin()
            assert reader.scan(lo, hi, prefix=prefix) == _rows(
                model.state_at(model.counter), warm)
            reader.commit()

    # Half the scans read the newest state, where the memoised rows serve.
    snapshot_ts = data.draw(
        st.one_of(st.just(model.counter),
                  st.integers(model.floor, model.counter)),
        label="snapshot_ts")
    expected = model.state_at(snapshot_ts)
    assert db.state_at(snapshot_ts) == expected
    txn = db.begin(update=bool(own), snapshot_ts=snapshot_ts)
    for key, value in own:
        if value is DELETE:
            expected.pop(key, None)
        else:
            expected[key] = value
    _apply(txn, own)
    lo, hi, prefix = predicate
    rows = txn.scan(lo, hi, prefix=prefix)
    assert rows == _rows(expected, predicate)
    event = recorder.events[-1]
    assert (event.kind, event.key) == ("scan", (lo, hi, prefix))
    assert event.value == tuple(key for key, _ in rows)
    if not own:
        # The same snapshot through the per-key walk: an own delete of a
        # key nobody stores adds no row, but a transaction with writes
        # never takes the memoised path.
        walker = db.begin(update=True, snapshot_ts=snapshot_ts)
        walker.delete("~nobody")
        assert walker.scan(lo, hi, prefix=prefix) == rows
    _check_storage_invariants(db)
