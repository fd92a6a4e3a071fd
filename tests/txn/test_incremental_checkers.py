"""Differential tests: the per-key-timeline checkers ≡ the reference.

The production checkers must return verdicts *identical* to the
state-materialising reference in ``tests/txn/reference_checkers.py`` —
same ok flag, same violation kinds/messages/ordering, same counts — on
every history: clean ones, hand-built violating ones, and recorded
fault-storm histories.  Plus unit coverage for the interval/timeline
machinery they are built on.
"""

import pytest

from repro.errors import CheckerError
from repro.storage.engine import SIDatabase
from repro.txn.checkers import check_weak_si, count_transaction_inversions
from repro.txn.histgen import generate_replicated_history
from repro.txn.history import HistoryRecorder
from repro.txn.timeline import IntervalSet, KeyTimelines

from tests.txn.reference_checkers import (
    assert_matches_reference,
    reference_check_weak_si,
)


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def primary(recorder):
    return SIDatabase(name="primary", recorder=recorder)


@pytest.fixture
def secondary(recorder):
    return SIDatabase(name="secondary-1", recorder=recorder)


def update(db, logical, session, writes):
    txn = db.begin(update=True, metadata={"logical_id": logical,
                                          "session": session})
    for key, value in writes.items():
        if value is None:
            txn.delete(key)
        else:
            txn.write(key, value)
    return txn.commit()


def refresh(db, of_logical, writes):
    txn = db.begin(update=True, metadata={
        "logical_id": f"refresh-{of_logical}", "refresh_of": of_logical})
    for key, value in writes.items():
        if value is None:
            txn.delete(key)
        else:
            txn.write(key, value)
    return txn.commit()


def read(db, logical, session, keys):
    txn = db.begin(metadata={"logical_id": logical, "session": session})
    values = {key: txn.read(key, default=None) for key in keys}
    txn.commit()
    return values


# ---------------------------------------------------------------------------
# Hand-built histories: clean and violating, production ≡ reference
# ---------------------------------------------------------------------------

def test_agree_on_clean_lagging_history(recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1, "y": 1})
    refresh(secondary, "t1", {"x": 1, "y": 1})
    update(primary, "t2", "c1", {"x": 2, "y": None})
    read(secondary, "r1", "c2", ["x", "y"])
    results = assert_matches_reference(recorder)
    assert all(r.ok for r in results[:2])      # completeness + weak SI


def test_agree_on_partial_refresh(recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1, "y": 1})
    refresh(secondary, "t1", {"x": 1})          # lost y!
    read(secondary, "r1", "c2", ["x", "y"])
    completeness, weak, *_ = assert_matches_reference(recorder)
    assert not completeness.ok
    assert completeness.violations[0].kind == "state-divergence"
    assert not weak.ok
    assert weak.violations[0].kind == "no-consistent-snapshot"


def test_agree_on_out_of_order_refresh(recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1})
    update(primary, "t2", "c1", {"y": 2})
    refresh(secondary, "t2", {"y": 2})          # wrong order
    read(secondary, "r1", "c2", ["x", "y"])
    completeness, weak, *_ = assert_matches_reference(recorder)
    assert not completeness.ok
    assert not weak.ok


def test_agree_on_deletes_and_rewrites(recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1, "y": 1})
    refresh(secondary, "t1", {"x": 1, "y": 1})
    update(primary, "t2", "c1", {"x": None})
    refresh(secondary, "t2", {"x": None})
    update(primary, "t3", "c1", {"x": 1})       # same value as S^1 again
    read(secondary, "r1", "c2", ["x", "y"])     # sees S^2: no x
    refresh(secondary, "t3", {"x": 1})
    read(secondary, "r2", "c2", ["x", "y"])     # sees S^3 (== S^1 for x)
    completeness, weak, strong, session = assert_matches_reference(recorder)
    # r1 is stale w.r.t. t3 (cross-session): strong SI fails, the
    # laziness-tolerant criteria hold.
    assert completeness.ok and weak.ok and session.ok
    assert not strong.ok


def test_agree_on_transaction_inversion(recorder, primary, secondary):
    """Same-session read after own update, secondary not yet refreshed."""
    update(primary, "t1", "cA", {"x": 1})
    refresh(secondary, "t1", {"x": 1})
    update(primary, "t2", "cA", {"x": 2})
    read(secondary, "r1", "cA", ["x"])          # sees x=1: inversion
    _, weak, strong, session = assert_matches_reference(recorder)
    assert weak.ok
    assert not strong.ok
    assert not session.ok
    assert session.violations[0].kind == "transaction-inversion"
    # The violation message embeds the candidate list — byte-identical
    # to the reference's (covered by assert_matches_reference).
    assert "candidates" in session.violations[0].message


def test_agree_on_cross_session_inversion_strong_only(
        recorder, primary, secondary):
    update(primary, "t1", "cA", {"x": 1})
    read(secondary, "r1", "cB", ["x"])          # stale, different session
    _, weak, strong, session = assert_matches_reference(recorder)
    assert weak.ok and session.ok and not strong.ok


def test_agree_on_inconsistent_update_read(recorder, primary):
    class FakeTxn:
        def __init__(self, txn_id, start_ts):
            self.txn_id = txn_id
            self.start_ts = start_ts
            self.commit_ts = None
            self.metadata = {"logical_id": f"fake-{txn_id}"}
            self.is_update = True

    update(primary, "t1", "c1", {"x": 1})
    # Fabricate an update that claims snapshot S^1 but read x=999.
    fake = FakeTxn(90, start_ts=1)
    recorder.record("begin", "primary", fake, 0.0)
    recorder.record("read", "primary", fake, 0.0, key="x", value=999,
                    producer=1)
    recorder.record("write", "primary", fake, 0.0, key="y", value=1)
    fake.commit_ts = 2
    recorder.record("commit", "primary", fake, 0.0)
    _, weak, *_ = assert_matches_reference(recorder)
    assert not weak.ok
    assert weak.violations[0].kind == "inconsistent-update-read"


def test_agree_on_future_snapshot(recorder, primary, secondary):
    """A reader that observes a state committed after its begin."""
    class FakeTxn:
        txn_id = 91
        start_ts = 0
        commit_ts = None
        metadata = {"logical_id": "time-traveller", "session": "cT"}
        is_update = False

    fake = FakeTxn()
    recorder.record("begin", "secondary-1", fake, 0.0)   # before any commit
    update(primary, "t1", "c1", {"x": 1})
    refresh(secondary, "t1", {"x": 1})
    # ... yet it reads x=1, which only exists from S^1 on.
    recorder.record("read", "secondary-1", fake, 0.0, key="x", value=1,
                    producer=1)
    recorder.record("commit", "secondary-1", fake, 0.0)
    _, weak, *_ = assert_matches_reference(recorder)
    assert not weak.ok
    assert weak.violations[0].kind == "future-snapshot"


def test_agree_on_secondary_ahead(recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1})
    refresh(secondary, "t1", {"x": 1})
    refresh(secondary, "t2", {"x": 2})          # primary never committed t2
    completeness, *_ = assert_matches_reference(recorder)
    assert not completeness.ok
    assert completeness.violations[0].kind == "secondary-ahead"


def test_agree_on_bad_recovery_copy(recorder, primary, secondary):
    update(primary, "t1", "c1", {"x": 1})
    update(primary, "t2", "c1", {"y": 2})
    # Recovery claims S^2 but hands over a corrupt copy.
    recorder.record_recovery("secondary-1", 0.0, {"x": 1, "y": 999},
                             commit_ts=2)
    completeness, *_ = assert_matches_reference(recorder)
    assert not completeness.ok
    assert completeness.violations[0].kind == "state-divergence"
    assert "recovery copy" in completeness.violations[0].message


def test_agree_on_good_recovery_jump(recorder, primary, secondary):
    """A secondary that missed every commit jumps straight to S^2 via a
    correct recovery copy.  (Post-recovery refresh numbering needs the
    real site machinery — the chaos differential tests cover it.)"""
    update(primary, "t1", "c1", {"x": 1})
    update(primary, "t2", "c1", {"y": 2})
    recorder.record_recovery("secondary-1", 0.0, {"x": 1, "y": 2},
                             commit_ts=2)
    results = assert_matches_reference(recorder)
    assert all(r.ok for r in results), [r.violations for r in results]


def test_agree_on_recovery_copy_missing_key(recorder, primary, secondary):
    """A copy that *drops* a key has the right values for every key it
    kept — the live-key count comparison must still catch it."""
    update(primary, "t1", "c1", {"x": 1, "y": 2})
    recorder.record_recovery("secondary-1", 0.0, {"x": 1}, commit_ts=1)
    completeness, *_ = assert_matches_reference(recorder)
    assert not completeness.ok
    assert completeness.violations[0].kind == "state-divergence"


def test_both_methods_reject_sparse_commit_timestamps(recorder, primary):
    """Production and reference alike refuse to number states from a
    primary whose commit timestamps skip."""
    class FakeTxn:
        txn_id = 77
        start_ts = 0
        commit_ts = None
        metadata = {"logical_id": "fake"}
        is_update = True
    fake = FakeTxn()
    recorder.record("begin", "primary", fake, 0.0)
    fake.commit_ts = 5          # dense numbering would be 1
    recorder.record("commit", "primary", fake, 0.0)
    for check in (check_weak_si, reference_check_weak_si):
        with pytest.raises(CheckerError, match="not dense"):
            check(recorder)


def test_agree_on_same_session_read_behind_two_commits(
        recorder, primary, secondary):
    """A read stale with respect to two earlier commits of its session
    is one inverted transaction, not two inverted pairs."""
    update(primary, "t1", "cA", {"x": 1})
    update(primary, "t2", "cA", {"y": 2})
    read(secondary, "r1", "cA", ["x", "y"])     # sees S^0
    *_, session = assert_matches_reference(recorder)
    assert [v.kind for v in session.violations] == ["transaction-inversion"]
    assert count_transaction_inversions(recorder) == 1


# ---------------------------------------------------------------------------
# Generated and fault-storm histories
# ---------------------------------------------------------------------------

def test_agree_on_generated_history():
    recorder = generate_replicated_history(200, secondaries=3, reads=80,
                                           seed=11)
    completeness, weak, _strong, session = assert_matches_reference(recorder)
    # Generated histories are clean by construction for the lazy-SI
    # criteria; plain strong SI legitimately fails under replica lag.
    assert completeness.ok and weak.ok and session.ok


def test_generated_history_is_deterministic():
    a = generate_replicated_history(60, secondaries=2, reads=20, seed=5)
    b = generate_replicated_history(60, secondaries=2, reads=20, seed=5)
    assert a.events == b.events


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(10))
def test_agree_on_fault_storm_history(seed):
    """All three audited criteria × ≥10 fault-storm seeds: the recorded
    chaos history must get the identical verdict from the reference."""
    from repro.faults.harness import ChaosConfig, run_chaos
    result = run_chaos(ChaosConfig(seed=seed, ops=60, horizon=60.0,
                                   num_secondaries=2, secondary_outages=1))
    assert result.ok, result.describe()
    assert result.recorder is not None
    assert result.history_bytes > 0
    assert_matches_reference(result.recorder)


# ---------------------------------------------------------------------------
# IntervalSet / KeyTimelines units
# ---------------------------------------------------------------------------

def test_interval_set_basics():
    s = IntervalSet([(1, 3), (7, 9)])
    assert list(s) == [1, 2, 3, 7, 8, 9]
    assert len(s) == 6
    assert s.min() == 1 and s.max() == 9
    assert 2 in s and 7 in s
    assert 0 not in s and 5 not in s and 10 not in s
    assert not s.empty
    assert IntervalSet().empty
    assert IntervalSet.full(-1).empty
    assert IntervalSet.full(2).to_list() == [0, 1, 2]


def test_interval_set_first_at_least():
    s = IntervalSet([(1, 3), (7, 9)])
    assert s.first_at_least(0) == 1
    assert s.first_at_least(2) == 2
    assert s.first_at_least(4) == 7
    assert s.first_at_least(9) == 9
    assert s.first_at_least(10) is None


def test_interval_set_intersect_and_clamp():
    a = IntervalSet([(0, 5), (8, 12)])
    b = IntervalSet([(3, 9), (11, 20)])
    assert a.intersect(b).to_list() == [3, 4, 5, 8, 9, 11, 12]
    assert b.intersect(a).to_list() == [3, 4, 5, 8, 9, 11, 12]
    assert a.intersect(IntervalSet()).empty
    assert a.clamp_max(9).to_list() == [0, 1, 2, 3, 4, 5, 8, 9]
    assert a.clamp_max(-1).empty


def test_key_timelines_value_lookup():
    tl = KeyTimelines()
    tl.append_commit({"x": (1, False)})            # S^1
    tl.append_commit({"y": (5, False)})            # S^2
    tl.append_commit({"x": (None, True)})          # S^3: delete x
    tl.append_commit({"x": (1, False)})            # S^4: x=1 again
    assert tl.num_commits == 4
    assert tl.value_at("x", 0) == (False, None)
    assert tl.value_at("x", 1) == (True, 1)
    assert tl.value_at("x", 3) == (False, None)
    assert tl.value_at("x", 4) == (True, 1)
    assert tl.value_at("never", 4) == (False, None)
    assert tl.live_counts == [0, 1, 2, 1, 2]
    assert tl.intervals_present("x", 1).to_list() == [1, 2, 4]
    assert tl.intervals_present("x", 9).empty
    assert tl.intervals_absent("x").to_list() == [0, 3]
    assert tl.intervals_absent("never").to_list() == [0, 1, 2, 3, 4]
    # state_at mirrors a dict replay, including insertion order.
    assert tl.state_at(2) == {"x": 1, "y": 5}
    assert tl.state_at(3) == {"y": 5}
    assert tl.state_at(0) == {}
