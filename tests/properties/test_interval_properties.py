"""Property-based tests of ``IntervalSet`` against Python sets.

The checkers keep every candidate-snapshot set as an ``IntervalSet`` and
may hand one instance to several owners (``intersect`` returns an
operand as is when the other covers it), so besides each operation's
result this checks that no operation changes an operand.
"""

from hypothesis import given, settings, strategies as st

from repro.txn.timeline import IntervalSet

_MEMBERS = st.frozensets(st.integers(min_value=0, max_value=40), max_size=25)
_BOUND = st.integers(min_value=-3, max_value=45)


def interval_set(members: frozenset, cuts: frozenset) -> IntervalSet:
    """``members`` as ascending runs, each also split before every cut
    (so adjacent intervals occur too)."""
    intervals: list[list[int]] = []
    for index in sorted(members):
        if intervals and intervals[-1][1] == index - 1 and index not in cuts:
            intervals[-1][1] = index
        else:
            intervals.append([index, index])
    return IntervalSet((lo, hi) for lo, hi in intervals)


def assert_is(interval: IntervalSet, members) -> None:
    expected = sorted(members)
    assert interval.to_list() == expected
    assert list(interval) == expected
    assert len(interval) == len(expected)
    assert bool(interval) == bool(expected) != interval.empty
    if expected:
        assert (interval.min(), interval.max()) == (expected[0], expected[-1])
    assert all((index in interval) == (index in members)
               for index in range(-2, 47))


@settings(max_examples=300, deadline=None)
@given(_MEMBERS, _MEMBERS, _MEMBERS, _BOUND, _BOUND)
def test_interval_set_algebra_matches_python_sets(a_members, b_members, cuts,
                                                  bound, lower):
    a = interval_set(a_members, cuts)
    b = interval_set(b_members, cuts)
    full = IntervalSet.full(bound)
    full_members = set(range(0, bound + 1))
    assert_is(a, a_members)
    assert_is(full, full_members)
    assert_is(a.intersect(b), a_members & b_members)
    assert_is(b.intersect(a), a_members & b_members)
    assert_is(full.intersect(a), full_members & a_members)
    assert_is(a.intersect(full), full_members & a_members)
    assert_is(a.clamp_max(bound), {m for m in a_members if m <= bound})
    assert a.first_at_least(lower) == min(
        (m for m in a_members if m >= lower), default=None)
    # Results built from shared operands are used and combined further;
    # none of it may show through in an operand.
    chained = full.intersect(a).intersect(b).clamp_max(lower)
    assert_is(chained, {m for m in full_members & a_members & b_members
                        if m <= lower})
    assert_is(a.intersect(a), a_members)
    assert_is(a, a_members)
    assert_is(b, b_members)
    assert_is(full, full_members)
