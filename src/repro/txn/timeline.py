"""Per-key version timelines and interval arithmetic for the checkers.

The checkers never materialise the primary's database-state sequence
``S^0 .. S^n``: one ``dict`` per committed update transaction, with
every read tested against every prefix state, is O(commits²) time and
O(commits · keys) memory.  They work per key instead:

* :class:`KeyTimelines` is built **once** in O(total writes): for every
  key, the sorted list of ``(state_index, value, deleted)`` changes the
  primary's committed update transactions made to it.  The value of a
  key at any state ``S^i`` is then a single ``bisect``.
* A read constraint ``(key, value, present)`` admits a **union of
  index intervals** — the segments of the key's timeline whose value
  matches — and a transaction's candidate snapshot set is the
  *intersection* of its constraints' interval sets, never an explicit
  list of indices.

:class:`IntervalSet` keeps those candidate sets as sorted, disjoint,
inclusive ``(lo, hi)`` pairs with exactly the operations the checkers
need: intersection, clamping to an upper bound, min/max, and "smallest
member >= lower" (the greedy-minimum snapshot assignment).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Optional

_MISSING = object()


class IntervalSet:
    """A set of integers as sorted, disjoint, inclusive intervals."""

    __slots__ = ("_los", "_his")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        self._los: list[int] = []
        self._his: list[int] = []
        for lo, hi in intervals:
            if hi < lo:
                continue
            self._los.append(lo)
            self._his.append(hi)

    @classmethod
    def full(cls, hi: int) -> "IntervalSet":
        """All indices ``0..hi`` inclusive (empty when ``hi < 0``)."""
        return cls(((0, hi),))

    # -- queries ---------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self._los

    def __bool__(self) -> bool:
        return bool(self._los)

    def __len__(self) -> int:
        """Number of member indices (not intervals)."""
        return sum(hi - lo + 1 for lo, hi in zip(self._los, self._his))

    def min(self) -> int:
        return self._los[0]

    def max(self) -> int:
        return self._his[-1]

    def __contains__(self, index: int) -> bool:
        pos = bisect_right(self._los, index) - 1
        return pos >= 0 and index <= self._his[pos]

    def first_at_least(self, lower: int) -> Optional[int]:
        """Smallest member ``>= lower``, or ``None``."""
        pos = bisect_left(self._his, lower)
        if pos == len(self._his):
            return None
        return max(self._los[pos], lower)

    def to_list(self) -> list[int]:
        """Explicit ascending member list (violation messages only —
        this is the one operation that is O(members), so the checkers
        call it only on the rare error paths)."""
        out: list[int] = []
        for lo, hi in zip(self._los, self._his):
            out.extend(range(lo, hi + 1))
        return out

    def __iter__(self) -> Iterator[int]:
        for lo, hi in zip(self._los, self._his):
            yield from range(lo, hi + 1)

    # -- algebra ---------------------------------------------------------
    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Two-pointer intersection, O(intervals_self + intervals_other)."""
        result = IntervalSet()
        los, his = result._los, result._his
        a_lo, a_hi = self._los, self._his
        b_lo, b_hi = other._los, other._his
        i = j = 0
        while i < len(a_lo) and j < len(b_lo):
            lo = a_lo[i] if a_lo[i] > b_lo[j] else b_lo[j]
            hi = a_hi[i] if a_hi[i] < b_hi[j] else b_hi[j]
            if lo <= hi:
                los.append(lo)
                his.append(hi)
            if a_hi[i] < b_hi[j]:
                i += 1
            else:
                j += 1
        return result

    def clamp_max(self, upper: int) -> "IntervalSet":
        """Members ``<= upper`` (used for the begin-time upper bound)."""
        result = IntervalSet()
        for lo, hi in zip(self._los, self._his):
            if lo > upper:
                break
            result._los.append(lo)
            result._his.append(min(hi, upper))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{lo}..{hi}"
                          for lo, hi in zip(self._los, self._his))
        return f"<IntervalSet {pairs or 'empty'}>"


class KeyTimelines:
    """Per-key change history of one site's state sequence ``S^0..S^n``.

    Built from the ``final_writes`` of committed update transactions in
    commit order, storing one entry per (state, key) *change* instead of
    one full ``dict`` per state: O(total writes) memory.
    """

    def __init__(self) -> None:
        #: key -> ascending state indices at which the key changed.
        self._starts: dict[Any, list[int]] = {}
        #: key -> (value, deleted) in lockstep with ``_starts``.
        self._entries: dict[Any, list[tuple[Any, bool]]] = {}
        #: Number of committed update transactions (states are 0..n).
        self.num_commits = 0
        #: live_counts[i] == number of present keys in S^i.
        self.live_counts: list[int] = [0]
        #: write_keys[i] == keys written (incl. deletes) by commit i
        #: (index 0 is a placeholder for the initial state).
        self.write_keys: list[tuple[Any, ...]] = [()]
        #: Lazy per-key index: key -> value -> [segment positions], built
        #: on the first value-match query for the key (hashable values
        #: only; unhashable values fall back to a linear segment scan).
        self._by_value: dict[Any, Optional[dict[Any, list[int]]]] = {}

    # -- construction ----------------------------------------------------
    def append_commit(self, final_writes: dict[Any, tuple[Any, bool]]) -> None:
        """Record the next committed update transaction's effect."""
        self.num_commits += 1
        index = self.num_commits
        live = self.live_counts[-1]
        for key, (value, deleted) in final_writes.items():
            starts = self._starts.get(key)
            if starts is None:
                starts = self._starts[key] = []
                self._entries[key] = []
            entries = self._entries[key]
            was_present = bool(entries) and not entries[-1][1]
            if deleted:
                if was_present:
                    live -= 1
            elif not was_present:
                live += 1
            starts.append(index)
            entries.append((value, deleted))
        self.live_counts.append(live)
        self.write_keys.append(tuple(final_writes))

    # -- point queries ---------------------------------------------------
    def value_at(self, key: Any, index: int) -> tuple[bool, Any]:
        """``(present, value)`` of ``key`` in state ``S^index``."""
        starts = self._starts.get(key)
        if starts is None:
            return False, None
        pos = bisect_right(starts, index) - 1
        if pos < 0:
            return False, None
        value, deleted = self._entries[key][pos]
        if deleted:
            return False, None
        return True, value

    def state_at(self, index: int) -> dict[Any, Any]:
        """Materialise ``S^index`` with the exact key insertion order a
        dict replay of commits ``1..index`` would produce (error-message
        paths only; O(writes up to index))."""
        state: dict[Any, Any] = {}
        for i in range(1, index + 1):
            for key in self.write_keys[i]:
                pos = bisect_right(self._starts[key], i) - 1
                value, deleted = self._entries[key][pos]
                if deleted:
                    state.pop(key, None)
                else:
                    state[key] = value
        return state

    # -- interval queries ------------------------------------------------
    def _segments(self, key: Any) -> Iterator[tuple[int, int, Any, bool]]:
        """Yield ``(lo, hi, value, deleted)`` segments covering ``0..n``."""
        n = self.num_commits
        starts = self._starts.get(key)
        if starts is None:
            yield 0, n, None, True
            return
        if starts[0] > 0:
            yield 0, starts[0] - 1, None, True
        entries = self._entries[key]
        for pos, start in enumerate(starts):
            hi = starts[pos + 1] - 1 if pos + 1 < len(starts) else n
            value, deleted = entries[pos]
            if hi >= start:
                yield start, hi, value, deleted

    def _value_index(self, key: Any) -> Optional[dict[Any, list[int]]]:
        """Per-key ``value -> [segment position]`` map (lazy, hashable
        values only)."""
        if key in self._by_value:
            return self._by_value[key]
        index: Optional[dict[Any, list[int]]] = {}
        try:
            for pos, (value, deleted) in enumerate(self._entries[key]):
                if not deleted:
                    index.setdefault(value, []).append(pos)
        except TypeError:           # unhashable value somewhere
            index = None
        self._by_value[key] = index
        return index

    def intervals_present(self, key: Any, value: Any) -> IntervalSet:
        """States where ``key`` is present with exactly ``value``."""
        starts = self._starts.get(key)
        if starts is None:
            return IntervalSet()
        n = self.num_commits
        by_value = self._value_index(key)
        if by_value is not None:
            positions = by_value.get(value, ())
            if not positions:
                # Hash lookup can miss cross-type equalities (e.g. 1 vs
                # 1.0 hash equal, but a custom __eq__ without __hash__
                # parity cannot); fall back to scanning when the fast
                # path found nothing but a slow equality might not.
                positions = [pos for pos, (v, d)
                             in enumerate(self._entries[key])
                             if not d and v == value]
            intervals = []
            for pos in positions:
                hi = starts[pos + 1] - 1 if pos + 1 < len(starts) else n
                if hi >= starts[pos]:
                    intervals.append((starts[pos], hi))
            return IntervalSet(intervals)
        return IntervalSet(
            (lo, hi) for lo, hi, v, deleted in self._segments(key)
            if not deleted and v == value)

    def intervals_absent(self, key: Any) -> IntervalSet:
        """States where ``key`` is not present."""
        if key not in self._starts:
            return IntervalSet.full(self.num_commits)
        return IntervalSet(
            (lo, hi) for lo, hi, _v, deleted in self._segments(key)
            if deleted)

    def intervals_for(self, key: Any, value: Any,
                      present: bool) -> IntervalSet:
        """Interval set admitted by one read constraint."""
        if present:
            return self.intervals_present(key, value)
        return self.intervals_absent(key)
