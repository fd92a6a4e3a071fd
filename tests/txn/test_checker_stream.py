"""The checkers are monitors: each reads the recorded event stream once.

Every public checker replays ``recorder.events`` in ``seq`` order and
settles each transaction at its commit, so it needs neither the length
of the history nor random access into it.  The event list here counts
full iterations and refuses every other access, over one clean history
of each differential shape.  A second replay is the violation path's
alone: naming the source of an inversion.
"""

import pytest

from repro.faults.harness import ChaosConfig, run_chaos
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_strong_si,
    check_weak_si,
    count_transaction_inversions,
)
from repro.txn.history import HistoryRecorder

from tests.txn.test_reference_differential import SHAPES, history


class StreamOnly(list):
    """An event list that counts full iterations; indexing and taking
    its length fail."""

    def __init__(self, events):
        super().__init__(events)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def __getitem__(self, index):
        raise AssertionError("a checker indexed the event list")

    def __len__(self):
        raise AssertionError("a checker took the event list's length")


def streamed(events) -> HistoryRecorder:
    recorder = HistoryRecorder()
    recorder.events = StreamOnly(events)
    return recorder


def iterations(check, events, **kwargs) -> int:
    recorder = streamed(events)
    result = check(recorder, **kwargs)
    if not isinstance(result, int):
        assert result.ok, result.violations[:3]
    return recorder.events.iterations


@pytest.mark.chaos
@pytest.mark.parametrize("shape", SHAPES)
def test_each_checker_reads_a_clean_history_once(shape):
    events = history(shape, 0).events
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        assert iterations(check, events) == 1, check.__name__
    for within_sessions in (True, False):
        # Counting needs no source, so not even real inversions
        # (within_sessions=False finds some) cost a second pass.
        assert iterations(count_transaction_inversions, events,
                          within_sessions=within_sessions) == 1
    # Several sessions' histories are never strong SI; one session's is.
    one_session = run_chaos(ChaosConfig(seed=0, num_sessions=1,
                                        **SHAPES[shape])).recorder.events
    assert iterations(check_strong_si, one_session) == 1


@pytest.mark.chaos
def test_an_inversion_source_costs_one_more_replay():
    recorder = streamed(history("plain", 0).events)
    result = check_strong_si(recorder)
    assert not result.ok
    assert {v.kind for v in result.violations} == {"transaction-inversion"}
    assert recorder.events.iterations == 2
