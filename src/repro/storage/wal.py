"""The logical log (write-ahead log of SQL-level update records).

Section 3 assumes "a logical log containing update records is available
... each update transaction's start timestamp is inserted into the log,
followed by the transaction's update records, and then the transaction's
commit record tagged with its commit timestamp or the abort record", with
start/commit timestamps consistent with the actual operation order at the
site.  :class:`LogicalLog` provides exactly that stream, plus subscription
hooks so Algorithm 3.1's propagator can sniff it without touching the local
concurrency control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.records import key_fingerprint


@dataclass(slots=True)
class LogRecord:
    """Base class for logical-log records.

    Records are slot-backed and built with plain attribute stores — one
    is appended per logged operation — and are read-only once appended:
    the propagator and WAL replay share the objects in ``LogicalLog``.
    """

    txn_id: int
    lsn: int = field(compare=False)


@dataclass(slots=True)
class StartRecord(LogRecord):
    """Transaction start: carries the start timestamp start_p(T)."""

    start_ts: int = 0


@dataclass(slots=True)
class UpdateRecord(LogRecord):
    """One logical update (a write or a delete) by an open transaction.

    ``key_fp`` caches the key's crc32
    :func:`~repro.core.records.key_fingerprint` at log-append time, so
    the propagator's per-commit dependency summary (and shard routing)
    reads it instead of recomputing the fingerprint per endpoint.
    """

    key: Any = None
    value: Any = None
    deleted: bool = False
    key_fp: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.key_fp < 0:
            self.key_fp = key_fingerprint(self.key)


@dataclass(slots=True)
class CommitRecord(LogRecord):
    """Transaction commit: carries the commit timestamp commit_p(T)."""

    commit_ts: int = 0


@dataclass(slots=True)
class AbortRecord(LogRecord):
    """Transaction abort (its update records must be discarded)."""


class LogicalLog:
    """Append-only logical log with observer callbacks.

    The engine appends records; observers (the propagator) are invoked
    synchronously on each append, in subscription order.  Records carry a
    log sequence number (LSN) so tests can assert total order.
    """

    def __init__(self, name: str = "log"):
        self.name = name
        self._records: list[LogRecord] = []
        self._observers: list[Callable[[LogRecord], None]] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def records(self, from_lsn: int = 0) -> list[LogRecord]:
        """All records with LSN >= ``from_lsn`` (for recovery replay)."""
        return self._records[from_lsn:]

    @property
    def next_lsn(self) -> int:
        return len(self._records)

    def subscribe(self, observer: Callable[[LogRecord], None]) -> None:
        """Register a callback invoked on every subsequent append."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[LogRecord], None]) -> None:
        self._observers.remove(observer)

    # -- append helpers (used by the engine) ----------------------------
    def append_start(self, txn_id: int, start_ts: int) -> StartRecord:
        record = StartRecord(txn_id, len(self._records), start_ts)
        self._append(record)
        return record

    def append_update(self, txn_id: int, key: Any, value: Any,
                      deleted: bool = False) -> UpdateRecord:
        record = UpdateRecord(txn_id, len(self._records), key, value,
                              deleted)
        self._append(record)
        return record

    def append_commit(self, txn_id: int, commit_ts: int) -> CommitRecord:
        record = CommitRecord(txn_id, len(self._records), commit_ts)
        self._append(record)
        return record

    def append_abort(self, txn_id: int) -> AbortRecord:
        record = AbortRecord(txn_id, len(self._records))
        self._append(record)
        return record

    def _append(self, record: LogRecord) -> None:
        self._records.append(record)
        for observer in self._observers:
            observer(record)

    def commit_records(self) -> list[CommitRecord]:
        """All commit records, in commit-timestamp (= log) order."""
        return [r for r in self._records if isinstance(r, CommitRecord)]

    def updates_for(self, txn_id: int) -> list[UpdateRecord]:
        """The update records of one transaction, in execution order."""
        return [r for r in self._records
                if isinstance(r, UpdateRecord) and r.txn_id == txn_id]

    def last_commit_ts(self) -> int:
        """Newest commit timestamp in the log (0 if none committed)."""
        for record in reversed(self._records):
            if isinstance(record, CommitRecord):
                return record.commit_ts
        return 0
