"""Tests for the sequence tracker behind ALG-STRONG-SESSION-SI."""

import pytest

from repro.core.guarantees import GLOBAL_SESSION_LABEL, Guarantee
from repro.core.sessions import SequenceTracker


@pytest.fixture
def tracker():
    return SequenceTracker()


def test_initial_sequences_are_zero(tracker):
    assert tracker.seq("any") == 0
    assert tracker.newest() == 0


def test_commit_advances_session_and_global(tracker):
    tracker.on_primary_commit("c1", 5)
    assert tracker.seq("c1") == 5
    assert tracker.seq("c2") == 0
    assert tracker.newest() == 5


def test_global_tracks_max_over_all_sessions(tracker):
    tracker.on_primary_commit("c1", 3)
    tracker.on_primary_commit("c2", 7)
    tracker.on_primary_commit("c1", 5)
    assert tracker.newest() == 7
    assert tracker.seq("c1") == 5
    assert tracker.seq("c2") == 7


def test_sequences_are_monotonic(tracker):
    tracker.on_primary_commit("c1", 9)
    tracker.on_primary_commit("c1", 4)    # stale value must not regress
    assert tracker.seq("c1") == 9


def test_commit_with_none_label_only_moves_global(tracker):
    tracker.on_primary_commit(None, 8)
    assert tracker.newest() == 8
    assert tracker.labels() == []


def test_required_sequence_weak_si_is_zero(tracker):
    tracker.on_primary_commit("c1", 10)
    assert tracker.required_sequence(Guarantee.WEAK_SI, "c1") == 0


def test_required_sequence_session_si_is_own_seq(tracker):
    tracker.on_primary_commit("c1", 10)
    tracker.on_primary_commit("c2", 20)
    assert tracker.required_sequence(Guarantee.STRONG_SESSION_SI, "c1") == 10
    assert tracker.required_sequence(Guarantee.STRONG_SESSION_SI, "c3") == 0


def test_required_sequence_strong_si_is_global(tracker):
    tracker.on_primary_commit("c1", 10)
    tracker.on_primary_commit("c2", 20)
    assert tracker.required_sequence(Guarantee.STRONG_SI, "c1") == 20


def test_guarantee_degenerate_labelings_equivalence(tracker):
    """Section 2.3: one label per system = strong SI; the tracker's global
    sequence is exactly the single-session sequence number."""
    for ts in (1, 2, 3):
        tracker.on_primary_commit(GLOBAL_SESSION_LABEL, ts)
    assert (tracker.required_sequence(Guarantee.STRONG_SI, "whatever")
            == tracker.seq(GLOBAL_SESSION_LABEL))


def test_forget_drops_retired_label(tracker):
    tracker.on_primary_commit("c1", 3)
    tracker.on_primary_commit("c2", 5)
    assert tracker.labels() == ["c1", "c2"]
    tracker.forget("c1")
    assert tracker.labels() == ["c2"]
    assert tracker.newest() == 5            # global sequence untouched
    # A forgotten (or never-seen) label restarts at zero.
    assert tracker.seq("c1") == 0
    tracker.forget("never-seen")              # no-op, no error


# -- freshness axes --------------------------------------------------------------

def test_sequences_are_kept_per_axis(tracker):
    """Every commit lies on the whole-database axis (``None``) and on the
    axis of each shard it wrote; an axis never written reads 0."""
    tracker.on_primary_commit("c1", 4, shards=(0, 2))
    tracker.on_primary_commit("c2", 6, shards=(2,))
    assert tracker.seq("c1") == 4 and tracker.newest() == 6
    assert [tracker.seq("c1", axis) for axis in (0, 1, 2)] == [4, 0, 4]
    assert [tracker.newest(axis) for axis in (None, 0, 1, 2)] == [6, 4, 0, 6]
    session, strong = Guarantee.STRONG_SESSION_SI, Guarantee.STRONG_SI
    assert tracker.required_sequence(session, "c1", 2) == 4
    assert tracker.required_sequence(strong, "c1", 2) == 6
    assert tracker.required_sequence(strong, "c1", 1) == 0
    assert tracker.required_sequence(Guarantee.WEAK_SI, "c1", 2) == 0
    # The scalar form is the whole-database axis.
    assert tracker.required_sequence(session, "c1") \
        == tracker.required_sequence(session, "c1", None) == 4
    tracker.forget("c1")
    assert tracker.seq("c1", 0) == 0 and tracker.newest(0) == 4


def test_truncate_clamps_each_axis_to_its_newest_surviving_commit(tracker):
    """The truncation point need not touch a shard: with the caller's
    ``surviving`` map every axis lands on a commit that touched it."""
    tracker.on_primary_commit("c1", 2, shards=(0,))
    tracker.on_primary_commit("c2", 5, shards=(1,))
    tracker.on_primary_commit("c1", 9, shards=(0, 1))
    surviving = {None: 6, 0: 2, 1: 5}.__getitem__
    assert tracker.truncate(6, surviving) == {"c1": (6, 9)}
    assert [tracker.newest(axis) for axis in (None, 0, 1)] == [6, 2, 5]
    assert [tracker.seq("c1", axis) for axis in (None, 0, 1)] == [6, 2, 5]
    assert tracker.seq("c2", 1) == 5
    # Without the map the truncation point is the best known limit.
    tracker.on_primary_commit("c3", 8, shards=(0,))
    tracker.truncate(7)
    assert tracker.seq("c3", 0) == 7 and tracker.newest(0) == 7
