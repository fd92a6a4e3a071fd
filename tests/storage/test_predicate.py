"""Tests for the ordered key → item map."""

import pytest

from repro.errors import UnorderableKeyError
from repro.storage.predicate import OrderedKeyIndex


def _item(key):
    """What a key indexes in these tests (the engine stores its chain)."""
    return ("item", key)


def _index(*keys):
    index = OrderedKeyIndex()
    for key in keys:
        index.add(key, _item(key))
    return index


def _slice(*keys):
    """The ``(keys, items)`` a range over exactly ``keys`` returns."""
    return list(keys), [_item(key) for key in keys]


def _assert_parallel(index):
    keys, items = index.range()
    assert keys == list(index) == sorted(set(keys))
    assert items == [_item(key) for key in keys]


def test_empty_index():
    index = OrderedKeyIndex()
    assert len(index) == 0
    assert list(index) == []
    assert index.range() == ([], [])
    assert index.prefix("a") == ([], [])


def test_add_keeps_sorted_order():
    index = _index("c", "a", "b")
    assert list(index) == ["a", "b", "c"]
    _assert_parallel(index)


def test_add_is_idempotent():
    index = _index("a", "a", "a")
    assert list(index) == ["a"]
    _assert_parallel(index)


def test_add_of_a_present_key_replaces_its_item():
    index = _index("a", "b")
    index.add("a", "other")
    assert index.range() == (["a", "b"], ["other", _item("b")])


def test_contains():
    index = _index("a", "b")
    assert "a" in index
    assert "z" not in index
    assert "aa" not in index


def test_range_inclusive():
    index = _index("a", "b", "c", "d")
    assert index.range("b", "c") == _slice("b", "c")


def test_range_exclusive_hi():
    index = _index("a", "b", "c", "d")
    assert index.range("b", "d", inclusive_hi=False) == _slice("b", "c")


def test_range_open_bounds():
    index = _index("a", "b", "c")
    assert index.range(None, "b") == _slice("a", "b")
    assert index.range("b", None) == _slice("b", "c")
    assert index.range() == _slice("a", "b", "c")


def test_range_outside_universe():
    index = _index("m")
    assert index.range("x", "z") == ([], [])
    assert index.range("a", "c") == ([], [])


def test_range_returns_copies():
    index = _index("a", "b")
    keys, items = index.range()
    keys.clear()
    items.clear()
    assert index.range() == _slice("a", "b")


def test_prefix():
    index = _index("user:1", "user:2", "usual", "zebra")
    assert index.prefix("user:") == _slice("user:1", "user:2")
    assert index.prefix("zzz") == ([], [])


def test_prefix_stops_at_first_nonmatch():
    index = _index("aa", "ab", "b")
    assert index.prefix("a") == _slice("aa", "ab")


def test_prefix_on_nested_prefixes():
    index = _index("b", "abc", "a", "ab", "abd", "ac", "ba")
    assert index.prefix("") == index.range()
    assert index.prefix("a") == _slice("a", "ab", "abc", "abd", "ac")
    assert index.prefix("ab") == _slice("ab", "abc", "abd")
    assert index.prefix("abc") == _slice("abc")
    assert index.prefix("abcd") == ([], [])
    assert index.prefix("b") == _slice("b", "ba")


def test_prefix_past_the_last_key():
    index = _index("a", "ab", "b")
    assert index.prefix("c") == ([], [])
    assert index.prefix("bb") == ([], [])
    assert index.prefix("b") == _slice("b")     # the run ends the index


def test_copy_independent():
    index = _index("a")
    clone = index.copy()
    index.add("b", _item("b"))
    clone.add("0", _item("0"))
    assert list(clone) == ["0", "a"]
    assert list(index) == ["a", "b"]
    _assert_parallel(index)
    _assert_parallel(clone)


def test_numeric_keys():
    index = _index(3, 1, 2)
    assert index.range(1, 2) == _slice(1, 2)


def test_discard_removes_and_readd_restores_order():
    index = _index("a", "b", "c", "d")
    index.discard("b")
    index.discard("never-added")        # absent: a no-op, like set.discard
    assert list(index) == ["a", "c", "d"]
    assert "b" not in index and len(index) == 3
    assert index.range("a", "c") == _slice("a", "c")
    _assert_parallel(index)
    index.add("b", _item("b"))
    assert list(index) == ["a", "b", "c", "d"]
    _assert_parallel(index)


def test_load_into_an_empty_index_sorts_once():
    index = OrderedKeyIndex()
    index.load([(key, _item(key)) for key in ("d", "a", "c", "b")])
    assert list(index) == ["a", "b", "c", "d"]
    _assert_parallel(index)


def test_load_into_a_populated_index_inserts_in_order():
    index = _index("b", "d")
    index.load([(key, _item(key)) for key in ("e", "a", "c")])
    assert list(index) == ["a", "b", "c", "d", "e"]
    _assert_parallel(index)


@pytest.mark.parametrize("present", [(), ("a", "c")])
def test_load_of_an_unorderable_key_changes_nothing(present):
    index = _index(*present)
    with pytest.raises(UnorderableKeyError) as exc_info:
        index.load([("b", _item("b")), (5, _item(5)), ("d", _item("d"))])
    assert exc_info.value.key == 5
    assert index.range() == _slice(*present)
