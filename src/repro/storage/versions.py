"""Per-key committed version chains.

A :class:`VersionChain` holds the committed history of one key in commit-
timestamp order.  Chains are append-only: snapshot reads binary-search for
the newest version at or below a start timestamp, and the first-committer-
wins check only needs the newest version's timestamp.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, Optional

#: A tombstone's scan row: falsy, so ``all(rows)`` and ``filter(None,
#: rows)`` tell it from a live ``(key, value)`` row at C speed.
_TOMBSTONE_ROW = ()


@dataclass(slots=True)
class Version:
    """One committed version of a key.

    ``deleted`` marks a tombstone: the key was visible before this commit
    timestamp and invisible from it onward.

    One is built per written key per site, so it is slot-backed (no
    ``__dict__``) and built with plain attribute stores; it is immutable
    by contract — nothing writes to an installed version, which
    ``tests/storage/test_versions.py`` checks — not by a frozen
    ``__setattr__`` paid on every construction.
    """

    commit_ts: int
    value: Any
    txn_id: int
    deleted: bool = False


class VersionChain:
    """Committed versions of a single key, ordered by commit timestamp."""

    __slots__ = ("key", "_versions", "_commit_tss", "_row")

    def __init__(self, key: Any):
        self.key = key
        self._versions: list[Version] = []
        # Parallel array of timestamps for bisect (avoids a key= lambda on
        # every probe; chains are read far more often than written).
        self._commit_tss: list[int] = []
        # The newest version as a scan row: ``(key, value)``, the falsy
        # ``_TOMBSTONE_ROW``, or None for "not computed since the chain
        # last changed".  Writers reset it with one store; scans fill it.
        self._row: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._versions)

    def __iter__(self) -> Iterator[Version]:
        return iter(self._versions)

    @property
    def latest(self) -> Optional[Version]:
        """Newest committed version, or None for an empty chain."""
        return self._versions[-1] if self._versions else None

    @property
    def latest_commit_ts(self) -> int:
        """Commit timestamp of the newest version (0 if none)."""
        return self._commit_tss[-1] if self._commit_tss else 0

    def install(self, version: Version) -> None:
        """Append a committed version; timestamps must be increasing."""
        if self._commit_tss and version.commit_ts <= self._commit_tss[-1]:
            raise ValueError(
                f"version install out of order on key {self.key!r}: "
                f"{version.commit_ts} <= {self._commit_tss[-1]}"
            )
        self._versions.append(version)
        self._commit_tss.append(version.commit_ts)
        self._row = None

    def newest_row(self) -> tuple:
        """The newest version as a scan row, memoised: ``(key, value)``,
        or a falsy row for a tombstone (and for an empty chain)."""
        row = self._row
        if row is None:
            versions = self._versions
            if versions and not versions[-1].deleted:
                row = (self.key, versions[-1].value)
            else:
                row = _TOMBSTONE_ROW
            self._row = row
        return row

    def visible_at(self, start_ts: int) -> Optional[Version]:
        """Newest version with ``commit_ts <= start_ts`` (may be a tombstone).

        Returns None when the key had no committed version at that snapshot.
        """
        tss = self._commit_tss
        # Fast path: reads of the newest committed state (the common case
        # for strong-SI locals and refreshed secondaries) skip the bisect.
        if not tss:
            return None
        if tss[-1] <= start_ts:
            return self._versions[-1]
        idx = bisect_right(tss, start_ts)
        if idx == 0:
            return None
        return self._versions[idx - 1]

    def value_at(self, start_ts: int) -> tuple[bool, Any]:
        """(exists, value) of the key as of snapshot ``start_ts``."""
        version = self.visible_at(start_ts)
        if version is None or version.deleted:
            return False, None
        return True, version.value

    def prune_before(self, commit_ts: int) -> int:
        """Garbage-collect versions invisible to any snapshot >= commit_ts.

        Keeps the newest version with ``commit_ts <= commit_ts`` (it is
        still the visible version for snapshots at or after the horizon)
        and everything newer; returns the number of versions dropped.  A
        kept tombstone at the horizon is also dropped — a missing chain
        entry and a tombstone read identically.
        """
        idx = bisect_right(self._commit_tss, commit_ts)
        if idx == 0:
            return 0
        keep_from = idx - 1
        if self._versions[keep_from].deleted:
            keep_from = idx     # tombstone at horizon: drop it too
        if keep_from == 0:
            return 0
        del self._versions[:keep_from]
        del self._commit_tss[:keep_from]
        return keep_from

    def truncate_after(self, commit_ts: int) -> int:
        """Drop versions newer than ``commit_ts``; return how many were cut.

        Used by failure injection to model a secondary losing its tail
        state (Section 3.4 recovery scenarios).
        """
        idx = bisect_right(self._commit_tss, commit_ts)
        removed = len(self._versions) - idx
        del self._versions[idx:]
        del self._commit_tss[idx:]
        self._row = None
        return removed

    def copy(self) -> "VersionChain":
        """Deep-enough copy (installed versions are never written to)."""
        clone = VersionChain(self.key)
        clone._versions = list(self._versions)
        clone._commit_tss = list(self._commit_tss)
        clone._row = self._row
        return clone


def newest_rows(chains: list[VersionChain]) -> list[tuple[Any, Any]]:
    """The ``(key, value)`` rows of the newest version of each chain,
    tombstones left out — a scan of the newest state.

    Per chain whose row is memoised and live this is one slot load inside
    one list comprehension; a chain written since it was last scanned (or
    ending in a tombstone) costs one :meth:`VersionChain.newest_row`, and
    a tombstone in range one filter over the rows.
    """
    rows = [chain._row or chain.newest_row() for chain in chains]
    if not all(rows):
        rows = list(filter(None, rows))
    return rows
