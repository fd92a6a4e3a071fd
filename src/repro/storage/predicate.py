"""Ordered key index and range predicates.

SI is defined over *predicate* reads as well as point reads (phantoms, P3).
The engine keeps every key that still has a version in a sorted index (a
key leaves it when vacuum or truncation reclaims its last version) so
transactions can run range scans against their snapshot; the phantom tests
in ``tests/storage/test_phenomena.py`` exercise this path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterator, Optional


class OrderedKeyIndex:
    """A sorted, duplicate-free index of keys.

    Insertion keeps order via binary search; membership is delegated to a
    set so hot-path probes stay O(1).
    """

    __slots__ = ("_keys", "_present")

    def __init__(self) -> None:
        self._keys: list[Any] = []
        self._present: set[Any] = set()

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)

    def __contains__(self, key: Any) -> bool:
        return key in self._present

    def add(self, key: Any) -> None:
        """Insert ``key`` if not present, keeping sorted order."""
        if key in self._present:
            return
        self._present.add(key)
        insort(self._keys, key)

    def discard(self, key: Any) -> None:
        """Remove ``key`` if present (its last version was reclaimed)."""
        if key in self._present:
            self._present.remove(key)
            del self._keys[bisect_left(self._keys, key)]

    def range(self, lo: Optional[Any] = None, hi: Optional[Any] = None,
              *, inclusive_hi: bool = True) -> list[Any]:
        """Keys in ``[lo, hi]`` (or ``[lo, hi)`` with ``inclusive_hi=False``).

        ``None`` bounds are open on that side.
        """
        start = 0 if lo is None else bisect_left(self._keys, lo)
        if hi is None:
            end = len(self._keys)
        elif inclusive_hi:
            end = bisect_right(self._keys, hi)
        else:
            end = bisect_left(self._keys, hi)
        return self._keys[start:end]

    def prefix(self, prefix: str) -> list[Any]:
        """All string keys starting with ``prefix`` (keys must be str)."""
        start = bisect_left(self._keys, prefix)
        out: list[Any] = []
        for idx in range(start, len(self._keys)):
            key = self._keys[idx]
            if not isinstance(key, str) or not key.startswith(prefix):
                break
            out.append(key)
        return out

    def copy(self) -> "OrderedKeyIndex":
        clone = OrderedKeyIndex()
        clone._keys = list(self._keys)
        clone._present = set(self._present)
        return clone
