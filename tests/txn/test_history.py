"""Tests for the global history recorder and TxnView aggregation."""

import pytest

from repro.core.system import ReplicatedSystem
from repro.errors import CheckerError, ConfigurationError
from repro.storage.engine import SIDatabase
from repro.txn.checkers import check_completeness, check_weak_si
from repro.txn.history import HistoryRecorder
from repro.txn.timeline import KeyTimelines

from tests.txn.reference_checkers import (
    _era_axes,
    _materialise_states,
    _promotion_eras,
    assert_matches_reference,
)
from tests.txn.test_incremental_checkers import refresh, update
from tests.txn.test_reference_differential import SHAPES, history


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def db(recorder):
    return SIDatabase(name="primary", recorder=recorder)


def test_events_get_increasing_seq(db, recorder):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.commit()
    seqs = [e.seq for e in recorder.events]
    assert seqs == sorted(seqs) == list(range(len(seqs)))


def test_event_kinds_for_simple_txn(db, recorder):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.read("x")
    txn.commit()
    assert [e.kind for e in recorder.events] == [
        "begin", "write", "read", "commit"]


def test_txn_view_aggregation(db, recorder):
    txn = db.begin(update=True, metadata={"logical_id": "t1",
                                          "session": "c1"})
    txn.write("x", 1)
    txn.read("x")
    txn.commit()
    views = recorder.transactions()
    view = views[("primary", txn.txn_id)]
    assert view.logical_id == "t1"
    assert view.session == "c1"
    assert view.committed
    assert view.is_update
    assert view.write_set == {"x"}
    assert view.read_set == {"x"}
    assert view.commit_ts == 1


def test_aborted_txn_view(db, recorder):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.abort()
    view = recorder.transactions()[("primary", txn.txn_id)]
    assert view.status == "aborted"
    assert not view.committed


def test_first_read_values_skip_own_writes(db, recorder):
    """Only a read before the transaction's own write of the key pins
    its snapshot; weak SI would fail if the reread of x=20 counted."""
    seed = db.begin(update=True)
    seed.write("x", 10)
    seed.commit()
    txn = db.begin(update=True)
    txn.read("x")          # sees 10 — pins the snapshot
    txn.write("x", 20)
    txn.read("x")          # sees own 20 — must not repin
    txn.commit()
    assert check_weak_si(recorder).ok
    assert_matches_reference(recorder)


def test_final_writes_last_wins(db, recorder):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.write("x", 2)
    txn.delete("y")
    txn.commit()
    view = recorder.transactions()[("primary", txn.txn_id)]
    assert view.final_writes == {"x": (2, False), "y": (None, True)}


def test_committed_in_commit_order(db, recorder):
    t1 = db.begin(update=True)
    t2 = db.begin(update=True)
    t2.write("b", 2)
    t2.commit()
    t1.write("a", 1)
    t1.commit()
    order = [v.txn_id for v in recorder.committed(site="primary")]
    assert order == [t2.txn_id, t1.txn_id]


def test_client_transactions_exclude_refresh(db, recorder):
    real = db.begin(update=True, metadata={"logical_id": "t1"})
    real.write("x", 1)
    real.commit()
    refresh = db.begin(update=True, metadata={"refresh_of": "t1"})
    refresh.write("x", 1)
    refresh.commit()
    client_ids = [v.txn_id for v in recorder.client_transactions()]
    assert client_ids == [real.txn_id]


def test_sites_listing(recorder):
    a = SIDatabase(name="a", recorder=recorder)
    b = SIDatabase(name="b", recorder=recorder)
    for db_ in (a, b):
        txn = db_.begin(update=True)
        txn.write("x", 1)
        txn.commit()
    assert recorder.sites() == ["a", "b"]


def replayed_states(recorder):
    """The primary's ``S^0..S^n``, replayed by the reference checkers
    from the recorded writes and checked against the production
    checkers' per-key timelines of the same commits."""
    axis = _era_axes(recorder, _promotion_eras(recorder, "primary"),
                     dense=True, named=False)[0]
    states = _materialise_states(axis)
    timelines = KeyTimelines()
    for view in axis:
        timelines.append_commit(view.final_writes)
    assert [timelines.state_at(i) for i in range(len(states))] == states
    return states


def test_replay_states_reconstruct_progression(db, recorder):
    for key, value in [("x", 1), ("y", 2), ("x", 3)]:
        txn = db.begin(update=True)
        txn.write(key, value)
        txn.commit()
    states = replayed_states(recorder)
    assert states == [{}, {"x": 1}, {"x": 1, "y": 2}, {"x": 3, "y": 2}]


def test_replay_states_handle_deletes(db, recorder):
    t = db.begin(update=True)
    t.write("x", 1)
    t.commit()
    t = db.begin(update=True)
    t.delete("x")
    t.commit()
    assert replayed_states(recorder) == [{}, {"x": 1}, {}]


def test_replay_states_count_empty_update_txns(db, recorder):
    """An update with no writes still numbers a state, on both sides: a
    replica that applies it and then S^2 is complete, and a read of S^2
    is no inversion."""
    secondary = SIDatabase(name="secondary-1", recorder=recorder)
    t = db.begin(update=True, metadata={"session": "c1"})
    t.commit()                   # declared update, no writes: S^1
    t = db.begin(update=True, metadata={"session": "c1"})
    t.write("x", 1)
    t.commit()                   # S^2
    for writes in ({}, {"x": 1}):
        refresh = secondary.begin(update=True, metadata={"refresh_of": "t"})
        for key, value in writes.items():
            refresh.write(key, value)
        refresh.commit()
    reader = secondary.begin(metadata={"session": "c1"})
    reader.read("x")
    reader.commit()
    assert replayed_states(recorder) == [{}, {}, {"x": 1}]
    results = assert_matches_reference(recorder)
    assert all(result.ok for result in results), results
    assert results[0].checked_transactions == 2


# ---------------------------------------------------------------------------
# Recording modes, interning, and memory accounting
# ---------------------------------------------------------------------------

def test_commits_detail_drops_operation_events():
    recorder = HistoryRecorder(detail="commits")
    db = SIDatabase(name="primary", recorder=recorder)
    txn = db.begin(update=True, metadata={"logical_id": "t1",
                                          "session": "c1"})
    txn.write("x", 1)
    txn.read("x")
    txn.commit()
    ro = db.begin()
    ro.read("x")
    ro.commit()
    kinds = [e.kind for e in recorder.events]
    assert kinds == ["begin", "commit", "begin", "commit"]
    # Seq numbers stay dense over the recorded events.
    assert [e.seq for e in recorder.events] == [0, 1, 2, 3]
    # Transaction boundaries still aggregate (update flag comes from the
    # begin event's declaration, not the dropped write events).
    views = recorder.committed()
    assert len(views) == 2
    assert views[0].is_update and views[0].commit_ts == 1


def test_commits_detail_is_much_smaller():
    def fill(recorder):
        db = SIDatabase(name="primary", recorder=recorder)
        for i in range(50):
            txn = db.begin(update=True)
            for j in range(5):
                txn.write(f"k{j}", i)
                txn.read(f"k{j}")
            txn.commit()
        return recorder

    full = fill(HistoryRecorder())
    lean = fill(HistoryRecorder(detail="commits"))
    assert lean.nbytes() < full.nbytes() / 3
    assert len(lean) == 100                   # begin+commit only
    assert full.nbytes() > 0


def test_unknown_detail_rejected():
    with pytest.raises(ConfigurationError, match="unknown history detail"):
        HistoryRecorder(detail="everything")
    with pytest.raises(ConfigurationError, match="unknown history detail"):
        ReplicatedSystem(num_secondaries=1, history_detail="everything")


def test_checkers_refuse_commits_detail_history():
    recorder = HistoryRecorder(detail="commits")
    db = SIDatabase(name="primary", recorder=recorder)
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.commit()
    for check in (check_weak_si, check_completeness):
        with pytest.raises(CheckerError, match="detail"):
            check(recorder)


def test_identity_strings_are_interned(recorder):
    db = SIDatabase(name="primary", recorder=recorder)
    for _ in range(2):
        txn = db.begin(update=True,
                       metadata={"logical_id": "L" + "ong-id" * 3,
                                 "session": "sess" + "ion" * 5})
        txn.write("x", 1)
        txn.commit()
    events = recorder.events
    sites = {id(e.site) for e in events}
    sessions = {id(e.session) for e in events if e.session is not None}
    assert len(sites) == 1                    # one shared "primary" str
    assert len(sessions) == 1


def test_events_are_slots_backed(recorder):
    db = SIDatabase(name="primary", recorder=recorder)
    db.begin().commit()
    event = recorder.events[0]
    assert not hasattr(event, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        event.scratch = 1


_SITE_KINDS = ("recover", "promote", "subscribe")
_STATUS = {"commit": "committed", "abort": "aborted"}


@pytest.mark.chaos
@pytest.mark.parametrize("shape", SHAPES)
def test_aggregation_matches_a_filter_and_sort(shape):
    """The one aggregation pass against the obvious computation over the
    event list: group by transaction, then filter and sort by end."""
    recorder = history(shape, 0)
    events = recorder.events
    grouped: dict = {}
    for event in events:
        if event.kind not in _SITE_KINDS:
            grouped.setdefault((event.site, event.txn_id), []).append(event)
    views = recorder.transactions()
    assert list(views) == list(grouped)
    for key, txn_events in grouped.items():
        view = views[key]
        begin = next(e for e in txn_events if e.kind == "begin")
        ends = [e for e in txn_events if e.kind in _STATUS]
        end = ends[-1] if ends else None
        for kind in ("read", "write", "scan"):
            assert getattr(view, kind + "s") == [
                e for e in txn_events if e.kind == kind]
        assert (view.site, view.txn_id, view.logical_id, view.session,
                view.refresh_of) == (begin.site, begin.txn_id,
                                     begin.logical_id, begin.session,
                                     begin.refresh_of)
        assert (view.begin_seq, view.begin_time, view.start_ts) == (
            begin.seq, begin.time, begin.start_ts)
        assert view.is_update == (begin.update_declared or bool(view.writes))
        assert view.status == (_STATUS[end.kind] if end else "active")
        assert (view.end_seq, view.end_time) == (
            (end.seq, end.time) if end else (-1, 0.0))
        assert view.commit_ts == (
            end.commit_ts if end and end.kind == "commit" else None)
    committed = sorted((v for v in views.values() if v.committed),
                       key=lambda v: v.end_seq)
    assert [v.key for v in recorder.committed()] == [v.key for v in committed]
    sites = list(dict.fromkeys(event.site for event in events))
    assert recorder.sites() == sites
    for site in sites:
        assert [v.key for v in recorder.committed(site)] \
            == [v.key for v in committed if v.site == site]
    assert [v.key for v in recorder.client_transactions()] \
        == [v.key for v in committed if v.refresh_of is None]
    assert recorder.site_events() == [
        event for event in events if event.kind in _SITE_KINDS]


def test_transactions_cache_invalidated_by_new_events(db, recorder):
    txn = db.begin(update=True)
    txn.write("x", 1)
    txn.commit()
    first = recorder.transactions()
    assert recorder.transactions() is first   # cached: no new events
    txn = db.begin(update=True)
    txn.write("x", 2)
    txn.commit()
    second = recorder.transactions()
    assert second is not first
    assert len(second) == 2


def one_update_history(value) -> list:
    """Six events: one update at the primary and its refresh."""
    recorder = HistoryRecorder()
    primary = SIDatabase(name="primary", recorder=recorder)
    secondary = SIDatabase(name="secondary-1", recorder=recorder)
    update(primary, "t1", "c1", {"x": value})
    refresh(secondary, "t1", {"x": value})
    assert len(recorder.events) == 6
    return recorder.events


def test_transactions_cache_follows_a_replaced_event_list():
    """Replacing the event list with another of the same length must not
    serve the old list's views."""
    recorder = HistoryRecorder()
    recorder.events = one_update_history(1)
    assert [event.value for view in recorder.transactions().values()
            for event in view.writes] == [1, 1]
    recorder.events = one_update_history(2)
    assert [event.value for view in recorder.transactions().values()
            for event in view.writes] == [2, 2]
