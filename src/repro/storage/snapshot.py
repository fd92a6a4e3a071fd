"""Read-only snapshot views of an :class:`~repro.storage.engine.SIDatabase`.

A snapshot is the committed database state as of a commit timestamp.  Under
SI every transaction reads from one snapshot; :class:`SnapshotView` exposes
the same thing as a standalone object, used for state comparison in the
completeness checker (Theorem 3.1) and for Section 3.4's "copy of the
primary database after quiescing it".
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, TYPE_CHECKING

from repro.errors import KeyNotFound

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import SIDatabase

_RAISE = object()


class SnapshotView(Mapping):
    """An immutable mapping view of the database at ``commit_ts``.

    The view reads through to the engine's version chains, so it is cheap
    to create; it stays valid because chains are append-only.
    """

    def __init__(self, db: "SIDatabase", commit_ts: int):
        self._db = db
        self.commit_ts = commit_ts

    def get(self, key: Any, default: Any = None) -> Any:
        chain = self._db._chains.get(key)
        if chain is None:
            return default
        exists, value = chain.value_at(self.commit_ts)
        return value if exists else default

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, _RAISE)
        if value is _RAISE:
            raise KeyNotFound(key)
        return value

    def __contains__(self, key: Any) -> bool:
        return self.get(key, _RAISE) is not _RAISE

    def items(self) -> list[tuple[Any, Any]]:
        """``(key, value)`` of every visible key, in key order: one walk
        of the engine's ordered key → chain map.

        It neither reads nor fills the chains' memoised scan rows: a
        whole-database view would leave one row per key behind at a
        replica nobody scans (measured: +0.9 MB on the benchmark's
        4 000-key × 6-site ``update-fanout``).
        """
        commit_ts = self.commit_ts
        out = []
        for key, chain in zip(*self._db._index.range()):
            version = chain.visible_at(commit_ts)
            if version is not None and not version.deleted:
                out.append((key, version.value))
        return out

    def keys(self) -> list[Any]:
        """All keys visible in this snapshot, in sorted order."""
        return [key for key, _value in self.items()]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.items())

    def materialize(self) -> dict[Any, Any]:
        """A plain dict copy of the snapshot (for equality assertions)."""
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SnapshotView):
            return self.materialize() == other.materialize()
        if isinstance(other, dict):
            return self.materialize() == other
        return NotImplemented
