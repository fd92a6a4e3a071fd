"""Ordered key map and range predicates.

SI is defined over *predicate* reads as well as point reads (phantoms, P3).
The engine keeps every key that still has a version in a sorted map from
key to version chain (a key leaves it when vacuum or truncation reclaims
its last version) so transactions can run range scans against their
snapshot; the phantom tests in ``tests/storage/test_phenomena.py``
exercise this path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Collection, Iterator, Optional

from repro.errors import UnorderableKeyError

_key_of = itemgetter(0)
_item_of = itemgetter(1)


class OrderedKeyIndex:
    """A sorted, duplicate-free map from key to the item it indexes.

    Two parallel lists — the sorted keys and, position for position, the
    item each key indexes (the engine stores the key's version chain) —
    so a range or a prefix is one ``[start, end)`` slice of both, found
    by binary search and copied without touching a key.
    """

    __slots__ = ("_keys", "_items")

    def __init__(self) -> None:
        self._keys: list[Any] = []
        self._items: list[Any] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)

    def __contains__(self, key: Any) -> bool:
        at = bisect_left(self._keys, key)
        return at < len(self._keys) and self._keys[at] == key

    def add(self, key: Any, item: Any) -> None:
        """Map ``key`` to ``item``, keeping sorted order."""
        keys = self._keys
        at = bisect_left(keys, key)
        if at < len(keys) and keys[at] == key:
            self._items[at] = item
        else:
            keys.insert(at, key)
            self._items.insert(at, item)

    def discard(self, key: Any) -> None:
        """Remove ``key`` if present (its last version was reclaimed)."""
        keys = self._keys
        at = bisect_left(keys, key)
        if at < len(keys) and keys[at] == key:
            del keys[at]
            del self._items[at]

    def load(self, pairs: Collection[tuple[Any, Any]]) -> None:
        """Add ``(key, item)`` pairs of distinct, absent keys, all or nothing.

        An empty index is loaded by sorting once — a bulk load through
        :meth:`add` pays two list insertions per key.  A key that cannot
        be ordered against the others raises
        :class:`~repro.errors.UnorderableKeyError` naming it, and the
        index is left as it was.
        """
        if not self._keys:
            try:
                pairs = sorted(pairs, key=_key_of)
            except TypeError:
                pass        # the per-key path below names the culprit
            else:
                self._keys = list(map(_key_of, pairs))
                self._items = list(map(_item_of, pairs))
                return
        placed = []
        try:
            for key, item in pairs:
                self.add(key, item)
                placed.append(key)
        except TypeError:
            for done in placed:
                self.discard(done)
            raise UnorderableKeyError(key) from None

    def range(self, lo: Optional[Any] = None, hi: Optional[Any] = None,
              *, inclusive_hi: bool = True) -> tuple[list[Any], list[Any]]:
        """``(keys, items)`` for the keys in ``[lo, hi]`` (or ``[lo, hi)``
        with ``inclusive_hi=False``), as two parallel lists.

        ``None`` bounds are open on that side.
        """
        keys = self._keys
        start = 0 if lo is None else bisect_left(keys, lo)
        if hi is None:
            end = len(keys)
        elif inclusive_hi:
            end = bisect_right(keys, hi)
        else:
            end = bisect_left(keys, hi)
        return keys[start:end], self._items[start:end]

    def prefix(self, prefix: str) -> tuple[list[Any], list[Any]]:
        """``(keys, items)`` for the string keys starting with ``prefix``
        (keys must be str), as two parallel lists.

        Sorted strings sharing a prefix are one run that starts where the
        prefix itself would sort; its end is the first key from there on
        that no longer starts with it, found by binary search.
        """
        keys = self._keys
        start = bisect_left(keys, prefix)
        end = bisect_left(keys, True, start,
                          key=lambda key: not key.startswith(prefix))
        return keys[start:end], self._items[start:end]

    def copy(self) -> "OrderedKeyIndex":
        clone = OrderedKeyIndex()
        clone._keys = list(self._keys)
        clone._items = list(self._items)
        return clone
