"""Tests for the ordered key index."""

from repro.storage.predicate import OrderedKeyIndex


def _index(*keys):
    index = OrderedKeyIndex()
    for key in keys:
        index.add(key)
    return index


def test_empty_index():
    index = OrderedKeyIndex()
    assert len(index) == 0
    assert list(index) == []
    assert index.range() == []


def test_add_keeps_sorted_order():
    index = _index("c", "a", "b")
    assert list(index) == ["a", "b", "c"]


def test_add_is_idempotent():
    index = _index("a", "a", "a")
    assert list(index) == ["a"]


def test_contains():
    index = _index("a", "b")
    assert "a" in index
    assert "z" not in index


def test_range_inclusive():
    index = _index("a", "b", "c", "d")
    assert index.range("b", "c") == ["b", "c"]


def test_range_exclusive_hi():
    index = _index("a", "b", "c", "d")
    assert index.range("b", "d", inclusive_hi=False) == ["b", "c"]


def test_range_open_bounds():
    index = _index("a", "b", "c")
    assert index.range(None, "b") == ["a", "b"]
    assert index.range("b", None) == ["b", "c"]
    assert index.range() == ["a", "b", "c"]


def test_range_outside_universe():
    index = _index("m")
    assert index.range("x", "z") == []
    assert index.range("a", "c") == []


def test_prefix():
    index = _index("user:1", "user:2", "usual", "zebra")
    assert index.prefix("user:") == ["user:1", "user:2"]
    assert index.prefix("zzz") == []


def test_prefix_stops_at_first_nonmatch():
    index = _index("aa", "ab", "b")
    assert index.prefix("a") == ["aa", "ab"]


def test_copy_independent():
    index = _index("a")
    clone = index.copy()
    index.add("b")
    assert list(clone) == ["a"]
    assert list(index) == ["a", "b"]


def test_numeric_keys():
    index = _index(3, 1, 2)
    assert index.range(1, 2) == [1, 2]


def test_discard_removes_and_readd_restores_order():
    index = _index("a", "b", "c", "d")
    index.discard("b")
    index.discard("never-added")        # absent: a no-op, like set.discard
    assert list(index) == ["a", "c", "d"]
    assert "b" not in index and len(index) == 3
    assert index.range("a", "c") == ["a", "c"]
    index.add("b")
    assert list(index) == ["a", "b", "c", "d"]
