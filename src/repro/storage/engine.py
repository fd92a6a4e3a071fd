"""The snapshot-isolation storage engine (one per replication site).

:class:`SIDatabase` implements the local concurrency control the paper
assumes at every site (Section 3):

* **strong SI locally** — by default a transaction's ``start(T)`` is the
  newest commit timestamp, so it sees the latest committed snapshot;
* **weak SI on request** — callers may pin an older snapshot explicitly
  (``begin(snapshot_ts=...)``), which is how the definition in Section 2.1
  allows ``start(T)`` to be "any time less than or equal to the actual
  start time";
* **first-committer-wins** — a committing transaction aborts iff a
  transaction whose lifespan overlapped it already committed a write to one
  of its written keys;
* **deadlock freedom** — reads never block and writers never wait, so there
  is nothing to deadlock on;
* **read-your-own-writes** — a transaction sees its own uncommitted writes;
* a **logical log** of start / update / commit / abort records for update
  transactions, in timestamp order, for Algorithm 3.1's propagator.

Commit timestamps are dense integers 1, 2, 3, ...; timestamp ``i``
identifies the database state :math:`S^i` produced by the *i*-th committed
update transaction, matching the state-numbering of Theorem 3.1.
"""

from __future__ import annotations

import enum
import sys
from bisect import bisect_right
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional

from repro.errors import (
    FirstCommitterWinsError,
    InvalidScanError,
    KeyNotFound,
    SiteUnavailableError,
    TransactionStateError,
    UnorderableKeyError,
)
from repro.storage.predicate import OrderedKeyIndex
from repro.storage.snapshot import SnapshotView
from repro.storage.versions import Version, VersionChain, newest_rows
from repro.storage.wal import (
    AbortRecord,
    CommitRecord,
    LogicalLog,
    StartRecord,
    UpdateRecord,
)

#: ``read`` defaults: raise on a missing key / report it to ``exists``.
#: Neither is ever recorded — an absent read is recorded as ``None``.
_RAISE = object()
_ABSENT = object()

_key_of = itemgetter(0)


class TxnStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ACTIVE = TxnStatus.ACTIVE


class Transaction:
    """A transaction handle bound to one :class:`SIDatabase`.

    Obtained from :meth:`SIDatabase.begin`.  All reads are served from the
    snapshot fixed at begin time (plus the transaction's own writes); all
    writes are buffered until :meth:`commit`.
    """

    __slots__ = (
        "db",
        "txn_id",
        "start_ts",
        "is_update",
        "metadata",
        "status",
        "commit_ts",
        "_writes",
        "_reads",
        "recorded_ids",
    )

    def __init__(self, db: "SIDatabase", txn_id: int, start_ts: int,
                 is_update: bool, metadata: Optional[dict] = None):
        self.db = db
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.is_update = is_update
        self.metadata = metadata or {}
        self.status = _ACTIVE
        self.commit_ts: Optional[int] = None
        # key -> (value, deleted); insertion order preserved for replay.
        self._writes: dict[Any, tuple[Any, bool]] = {}
        # Point-read keys in first-read order (a dict as an ordered set):
        # long read-heavy transactions re-read hot keys, so it is bounded
        # by distinct keys.
        self._reads: dict[Any, None] = {}
        # ``(logical_id, session, refresh_of)`` as the history recorder
        # read them off ``metadata`` on this transaction's first event.
        self.recorded_ids: Optional[tuple] = None

    # -- queries ---------------------------------------------------------
    @property
    def read_set(self) -> set[Any]:
        """Keys this transaction has read (point reads)."""
        return set(self._reads)

    @property
    def _read_keys(self) -> list[Any]:
        """Point-read keys in first-read order, without duplicates."""
        return list(self._reads)

    @property
    def write_set(self) -> set[Any]:
        """Keys this transaction has written (including deletes)."""
        return set(self._writes)

    @property
    def writes(self) -> list[tuple[Any, Any, bool]]:
        """Buffered writes as ``(key, value, deleted)`` in write order."""
        return [(k, v, d) for k, (v, d) in self._writes.items()]

    def _check_active(self) -> None:
        if self.status is not _ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.status.value}")

    def _check_usable(self) -> None:
        """Raise the typed error for an ended transaction or a crashed
        site.  The operations below test the two flags inline and come
        here only to raise, so a healthy call pays no extra frame."""
        self._check_active()
        self.db._check_up()

    def read(self, key: Any, default: Any = _RAISE) -> Any:
        """Read ``key`` from the snapshot (own writes win).

        Raises :class:`~repro.errors.KeyNotFound` for a missing key unless
        ``default`` is given.  The history records what the snapshot held
        — an absent key as ``value=None, producer=None`` — never the
        caller's ``default``.
        """
        db = self.db
        if self.status is not _ACTIVE or db._crashed:
            self._check_usable()
        self._reads[key] = None
        own = self._writes.get(key)
        if own is not None:
            value, deleted = own
            if deleted:
                if default is _RAISE:
                    raise KeyNotFound(key)
                return default
            if db._records_ops:
                db.recorder.record("read", db._site, self, db.clock(), key,
                                   value, False, self.txn_id)
            return value
        chain = db._chains.get(key)
        version = None if chain is None else chain.visible_at(self.start_ts)
        if version is None or version.deleted:
            if default is _RAISE:
                raise KeyNotFound(key)
            if db._records_ops:
                db.recorder.record("read", db._site, self, db.clock(), key)
            return default
        if db._records_ops:
            db.recorder.record("read", db._site, self, db.clock(), key,
                               version.value, False, version.txn_id)
        return version.value

    def exists(self, key: Any) -> bool:
        """True if ``key`` is visible to this transaction."""
        return self.read(key, default=_ABSENT) is not _ABSENT

    def scan(self, lo: Optional[Any] = None, hi: Optional[Any] = None,
             *, prefix: Optional[str] = None) -> list[tuple[Any, Any]]:
        """Range/prefix scan over the snapshot, own writes merged in.

        The range or prefix is one slice of the ordered key → chain map.
        A transaction with no writes of its own whose snapshot is at or
        past everything installed — what a read-only transaction at a
        refreshed secondary and a strong-SI local is — reads each
        chain's memoised newest row, one slot load per key
        (:func:`~repro.storage.versions.newest_rows`).  Any other —
        an older snapshot, own writes, versions installed ahead of the
        counter by a parallel refresh — walks the slice: per key the
        newest version when it is inside the snapshot, else a bisect for
        the newest at or below ``start_ts``; tombstones are skipped, and
        the own-write overlay is one truthiness test per key until this
        transaction writes.
        """
        db = self.db
        if self.status is not _ACTIVE or db._crashed:
            self._check_usable()
        index = db._index
        if prefix is None:
            keys, chains = index.range(lo, hi)
        elif lo is None and hi is None:
            keys, chains = index.prefix(prefix)
        else:
            raise InvalidScanError(
                f"scan takes bounds or a prefix, not both: "
                f"({lo!r}, {hi!r}, prefix={prefix!r})")
        start_ts = self.start_ts
        writes = self._writes
        if not writes and start_ts >= db._installed_ts:
            out = newest_rows(chains)
            if db._records_ops:
                db.recorder.record("scan", db._site, self, db.clock(),
                                   (lo, hi, prefix),
                                   tuple(keys) if len(out) == len(keys)
                                   else tuple(map(_key_of, out)))
            return out
        out = []
        emit = out.append
        # Every indexed chain is non-empty (vacuum and truncation drop
        # the key with its last version).
        for key, chain in zip(keys, chains):
            if writes and key in writes:
                value, deleted = writes[key]
                if not deleted:
                    emit((key, value))
                continue
            commit_tss = chain._commit_tss
            if commit_tss[-1] <= start_ts:
                version = chain._versions[-1]
            else:
                at = bisect_right(commit_tss, start_ts)
                if not at:
                    continue            # created after this snapshot
                version = chain._versions[at - 1]
            if not version.deleted:
                emit((key, version.value))
        if writes:
            # Own-written keys with no committed version are not in the
            # index slice; append them, and only then is a sort needed.
            appended = False
            stored = db._chains
            for key, (value, deleted) in writes.items():
                if (not deleted and key not in stored
                        and db._in_range(key, lo, hi, prefix)):
                    emit((key, value))
                    appended = True
            if appended:
                out.sort(key=_key_of)
        if db._records_ops:
            db.recorder.record("scan", db._site, self, db.clock(),
                               (lo, hi, prefix), tuple(map(_key_of, out)))
        return out

    # -- mutations --------------------------------------------------------
    def write(self, key: Any, value: Any) -> None:
        """Buffer a write of ``key``; visible to own reads immediately."""
        db = self.db
        if self.status is not _ACTIVE or db._crashed:
            self._check_usable()
        self._writes[key] = (value, False)
        if db._records_ops:
            db.recorder.record("write", db._site, self, db.clock(), key,
                               value)
        if self.is_update and db.log is not None:
            db.log.append_update(self.txn_id, key, value, False)

    def delete(self, key: Any) -> None:
        """Buffer a delete (tombstone) of ``key``."""
        db = self.db
        if self.status is not _ACTIVE or db._crashed:
            self._check_usable()
        self._writes[key] = (None, True)
        if db._records_ops:
            db.recorder.record("write", db._site, self, db.clock(), key,
                               None, True)
        if self.is_update and db.log is not None:
            db.log.append_update(self.txn_id, key, None, True)

    def apply_update_records(
            self, updates: Iterable[tuple[Any, Any, bool]]) -> None:
        """Replay logged updates ``(key, value, deleted)`` in order.

        This is what an applicator thread does inside a refresh transaction
        (Algorithm 3.3, line 2).  One loop buffers the whole list, with
        the same effect — buffered writes, recorded write events, log
        records — as a :meth:`write` or :meth:`delete` call per update,
        and the same typed errors, checked once up front.
        """
        db = self.db
        if self.status is not _ACTIVE or db._crashed:
            self._check_usable()
        writes = self._writes
        recorder = db.recorder if db._records_ops else None
        log = db.log if self.is_update else None
        for key, value, deleted in updates:
            if deleted:
                value = None
            writes[key] = (value, deleted)
            if recorder is not None:
                recorder.record("write", db._site, self, db.clock(), key,
                                value, deleted)
            if log is not None:
                log.append_update(self.txn_id, key, value, deleted)

    # -- termination ------------------------------------------------------
    def commit(self) -> Optional[int]:
        """Commit under first-committer-wins; return the commit timestamp.

        Read-only, undeclared transactions return ``None`` (they do not
        advance the database state).

        Raises
        ------
        FirstCommitterWinsError
            On a write-write conflict with a concurrently committed
            transaction.  The transaction is aborted before raising.
        """
        db = self.db
        if self.status is not _ACTIVE or db._crashed:
            self._check_usable()
        return db._commit(self)

    def abort(self, reason: str = "explicit abort") -> None:
        """Abort, discarding buffered writes."""
        self._check_active()
        self.db._abort(self, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Txn {self.txn_id} start={self.start_ts} "
                f"{self.status.value} on {self.db.name!r}>")


class SIDatabase:
    """A multiversion database providing snapshot isolation at one site.

    Parameters
    ----------
    name:
        Site name, used in logs and histories.
    log:
        Optional :class:`LogicalLog`; update transactions' start, update
        and commit/abort records are appended to it (the primary has one,
        secondaries do not need one).
    recorder:
        Optional history recorder (see :mod:`repro.txn.history`) receiving
        begin/read/write/commit/abort events for correctness checking.
        Fixed at construction, together with its ``detail``.
    clock:
        Callable returning the current (virtual) time, recorded in
        histories; defaults to a constant 0.
    """

    def __init__(self, name: str = "db", log: Optional[LogicalLog] = None,
                 recorder: Any = None,
                 clock: Optional[Callable[[], float]] = None):
        self.name = name
        self.log = log
        self.recorder = recorder
        # The ``detail="commits"`` drop decision, taken once here: the
        # per-operation paths test this flag before they build an
        # argument or read the clock, so a dropped event costs nothing.
        self._records_ops = recorder is not None and recorder.detail == "ops"
        # The site stamp of every recorded event, interned once.
        self._site = sys.intern(name)
        self.clock = clock or (lambda: 0.0)
        self._chains: dict[Any, VersionChain] = {}
        # The same chains by sorted key; holds exactly the keys of
        # ``_chains``, each with a non-empty chain.
        self._index = OrderedKeyIndex()
        # Upper bound on every installed ``commit_ts``.  It runs ahead of
        # the commit counter only while a parallel refresh has installed
        # versions the counter has not been advanced to yet.
        self._installed_ts = 0
        self._commit_counter = 0
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        self._crashed = False
        self._vacuum_horizon = 0
        self.commits = 0
        self.aborts = 0

    # -- properties -------------------------------------------------------
    @property
    def latest_commit_ts(self) -> int:
        """Timestamp of the newest committed state (0 = initial state)."""
        return self._commit_counter

    @property
    def active_transactions(self) -> list[Transaction]:
        return list(self._active.values())

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _check_up(self) -> None:
        if self._crashed:
            raise SiteUnavailableError(f"site {self.name!r} has crashed")

    # -- transaction lifecycle ---------------------------------------------
    def begin(self, *, update: bool = False, snapshot_ts: Optional[int] = None,
              metadata: Optional[dict] = None) -> Transaction:
        """Start a transaction.

        ``update=True`` declares an update transaction: its start record is
        written to the logical log (Section 3's assumption) and its commit
        always produces a new database state.  ``snapshot_ts`` pins an older
        snapshot (weak SI / time travel); by default the latest snapshot is
        used (strong SI).
        """
        self._check_up()
        if snapshot_ts is None:
            start_ts = self._commit_counter
        else:
            if not 0 <= snapshot_ts <= self._commit_counter:
                raise TransactionStateError(
                    f"snapshot_ts {snapshot_ts} outside [0, "
                    f"{self._commit_counter}]")
            if snapshot_ts < self._vacuum_horizon:
                raise TransactionStateError(
                    f"snapshot_ts {snapshot_ts} predates the vacuum "
                    f"horizon {self._vacuum_horizon}; its versions have "
                    f"been garbage-collected")
            start_ts = snapshot_ts
        txn = Transaction(self, self._next_txn_id, start_ts, update, metadata)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        if update and self.log is not None:
            self.log.append_start(txn.txn_id, start_ts)
        if self.recorder is not None:
            self.recorder.record("begin", self._site, txn, self.clock())
        return txn

    def _commit(self, txn: Transaction) -> Optional[int]:
        # First-committer-wins: any written key whose newest committed
        # version postdates our snapshot means a concurrent committed writer.
        writes = txn._writes
        chains = self._chains
        start_ts = txn.start_ts
        for key in writes:
            chain = chains.get(key)
            if chain is not None and chain._commit_tss[-1] > start_ts:
                winner = chain.latest.txn_id
                self._abort(txn, f"FCW conflict on {key!r}")
                raise FirstCommitterWinsError(txn.txn_id, key, winner)
        if not writes and not txn.is_update:
            # Read-only: no state transition, no timestamp consumed.
            txn.status = TxnStatus.COMMITTED
            del self._active[txn.txn_id]
            self.commits += 1
            if self.recorder is not None:
                self.recorder.record("commit", self._site, txn, self.clock())
            return None
        commit_ts = self._commit_counter + 1
        try:
            self._install(writes, commit_ts, txn.txn_id)
        except UnorderableKeyError as exc:
            self._abort(txn, str(exc))
            raise
        self._commit_counter = commit_ts
        txn.status = TxnStatus.COMMITTED
        txn.commit_ts = commit_ts
        del self._active[txn.txn_id]
        self.commits += 1
        if txn.is_update and self.log is not None:
            self.log.append_commit(txn.txn_id, commit_ts)
        if self.recorder is not None:
            self.recorder.record("commit", self._site, txn, self.clock())
        return commit_ts

    def _install(self, writes: dict[Any, tuple[Any, bool]], commit_ts: int,
                 txn_id: int) -> None:
        """Install one committed transaction's writes as versions.

        Keys new to the database are placed in the index first, all or
        nothing: one that cannot be ordered against the stored keys
        raises :class:`~repro.errors.UnorderableKeyError` before any
        state has changed.
        """
        chains = self._chains
        if not writes.keys() <= chains.keys():
            fresh = [(key, VersionChain(key)) for key in writes
                     if key not in chains]
            self._index.load(fresh)
            chains.update(fresh)
        if commit_ts > self._installed_ts:
            self._installed_ts = commit_ts
        for key, (value, deleted) in writes.items():
            chains[key].install(Version(commit_ts, value, txn_id, deleted))

    def commit_refresh_at(self, txn: Transaction, commit_ts: int) -> int:
        """Commit a refresh transaction at an explicit primary timestamp.

        Every refresh transaction commits here rather than through
        :meth:`Transaction.commit`, whose two assumptions do not hold at
        a secondary:

        * **first-committer-wins does not apply** — the primary already
          serialised every conflicting pair, and under parallel refresh
          a conflicting predecessor legitimately commits *after* this
          refresh transaction's snapshot was taken (re-running
          concurrency control here would re-fight a settled conflict);
        * **the commit counter must not advance** — ``commit_ts`` is the
          primary's state number for this transaction, and the local
          counter (== ``seq(DBsec)``) moves only when the refresher
          publishes the commit via :meth:`advance_commit_counter`, so
          snapshots never expose a state with holes in it.

        Per-chain monotonicity still holds: the refresher orders
        conflicting predecessors first, so every written chain's newest
        version predates ``commit_ts`` (``VersionChain.install`` raises
        otherwise, turning a scheduler bug into a loud failure).
        """
        txn._check_active()
        self._check_up()
        if commit_ts <= self._vacuum_horizon:
            raise TransactionStateError(
                f"refresh commit ts {commit_ts} predates the vacuum "
                f"horizon {self._vacuum_horizon}")
        try:
            self._install(txn._writes, commit_ts, txn.txn_id)
        except UnorderableKeyError as exc:
            self._abort(txn, str(exc))
            raise
        txn.status = TxnStatus.COMMITTED
        txn.commit_ts = commit_ts
        del self._active[txn.txn_id]
        self.commits += 1
        if txn.is_update and self.log is not None:
            self.log.append_commit(txn.txn_id, commit_ts)
        if self.recorder is not None:
            self.recorder.record("commit", self._site, txn, self.clock())
        return commit_ts

    def advance_commit_counter(self, commit_ts: int) -> None:
        """Publish a refresh commit: move the latest-snapshot pointer to
        ``commit_ts`` (forward-only).  Versions installed beyond the old
        counter by :meth:`commit_refresh_at` become visible to new
        default-snapshot transactions exactly when the applied prefix
        reaches them."""
        if commit_ts > self._commit_counter:
            self._commit_counter = commit_ts

    def _abort(self, txn: Transaction, reason: str) -> None:
        txn.status = TxnStatus.ABORTED
        self._active.pop(txn.txn_id, None)
        self.aborts += 1
        if txn.is_update and self.log is not None:
            self.log.append_abort(txn.txn_id)
        if self.recorder is not None:
            self.recorder.record("abort", self._site, txn, self.clock(),
                                 reason=reason)

    # -- whole-database views ----------------------------------------------
    def snapshot(self, commit_ts: Optional[int] = None) -> SnapshotView:
        """A read-only view at ``commit_ts`` (default: latest)."""
        if commit_ts is None:
            commit_ts = self._commit_counter
        if not 0 <= commit_ts <= self._commit_counter:
            raise TransactionStateError(
                f"snapshot ts {commit_ts} outside [0, {self._commit_counter}]")
        if commit_ts < self._vacuum_horizon:
            raise TransactionStateError(
                f"snapshot ts {commit_ts} predates the vacuum horizon "
                f"{self._vacuum_horizon}")
        return SnapshotView(self, commit_ts)

    def state_at(self, commit_ts: Optional[int] = None) -> dict[Any, Any]:
        """Materialised key->value state at ``commit_ts`` (default latest)."""
        return self.snapshot(commit_ts).materialize()

    def get_committed(self, key: Any, default: Any = None) -> Any:
        """Convenience: latest committed value of ``key``."""
        return self.snapshot().get(key, default)

    # -- maintenance -----------------------------------------------------------
    def gc_horizon(self) -> int:
        """Oldest snapshot any active transaction may still read."""
        if self._active:
            return min(txn.start_ts for txn in self._active.values())
        return self._commit_counter

    def vacuum(self, before_ts: Optional[int] = None) -> int:
        """Garbage-collect versions no live snapshot can see.

        Prunes every chain up to ``before_ts`` (default: the GC horizon —
        the oldest start timestamp among active transactions, or the
        latest commit when idle).  Snapshots at or after the horizon are
        unaffected; explicit time-travel reads older than the horizon
        become invalid, which is the standard MVCC vacuum contract.
        Returns the number of versions reclaimed.
        """
        horizon = self.gc_horizon() if before_ts is None else before_ts
        if before_ts is not None and before_ts > self.gc_horizon():
            raise TransactionStateError(
                f"cannot vacuum past the GC horizon "
                f"{self.gc_horizon()} (active transactions would break)")
        self._vacuum_horizon = max(self._vacuum_horizon, horizon)
        reclaimed = 0
        empty_keys = []
        for key, chain in self._chains.items():
            reclaimed += chain.prune_before(horizon)
            if len(chain) == 0:
                empty_keys.append(key)
        self._drop_chains(empty_keys)
        return reclaimed

    def truncate_after(self, commit_ts: int) -> int:
        """Drop every version newer than ``commit_ts`` from all chains.

        Used at a cluster-epoch fence in parallel-refresh mode: commits
        applied out of order above the watermark were never visible to
        any read, and the new primary's regime (or the recovery replay)
        will re-deliver them — leaving them installed would collide with
        that re-delivery.  Returns the number of versions removed.
        """
        removed = 0
        empty_keys = []
        for key, chain in self._chains.items():
            removed += chain.truncate_after(commit_ts)
            if len(chain) == 0:
                empty_keys.append(key)
        self._drop_chains(empty_keys)
        if self._commit_counter > commit_ts:
            self._commit_counter = commit_ts
        if self._installed_ts > commit_ts:
            self._installed_ts = commit_ts
        return removed

    def _drop_chains(self, keys: list[Any]) -> None:
        """Forget keys whose last version is gone — chain *and* index
        entry, so no later scan walks a dead key."""
        for key in keys:
            del self._chains[key]
            self._index.discard(key)

    @property
    def version_count(self) -> int:
        """Total versions stored across all chains (for GC diagnostics)."""
        return sum(len(chain) for chain in self._chains.values())

    @property
    def max_chain_length(self) -> int:
        """Longest per-key version chain (worst-case read cost / memory)."""
        if not self._chains:
            return 0
        return max(len(chain) for chain in self._chains.values())

    # -- failure injection & recovery (Section 3.4) -------------------------
    def crash(self) -> None:
        """Simulate a site failure: active txns die, operations refuse."""
        self._crashed = True
        for txn in list(self._active.values()):
            txn.status = TxnStatus.ABORTED
            if self.recorder is not None:
                self.recorder.record("abort", self._site, txn, self.clock(),
                                     reason="site crash")
        self._active.clear()

    def restart_from_wal(self) -> int:
        """Recover a crashed database by replaying its own logical log.

        Models a primary restart: the in-memory multiversion state is
        discarded and rebuilt purely from the durable log.  Committed
        transactions are reinstalled at their original commit timestamps
        (rebuilding the full version history, so the recovered state is
        bit-identical to the pre-crash committed state); transactions
        with no commit record — aborted, or in flight at the crash — are
        discarded.  Returns the commit timestamp recovered to.
        """
        if self.log is None:
            raise TransactionStateError(
                f"database {self.name!r} has no logical log to replay")
        if not self._crashed:
            raise TransactionStateError(
                f"restart_from_wal on live database {self.name!r}; "
                "crash() it first")
        self._chains = {}
        self._index = OrderedKeyIndex()
        self._installed_ts = 0
        # key -> (value, deleted) per open txn: last write per key wins,
        # in first-write order — the same dedup _commit applies.
        open_writes: dict[int, dict[Any, tuple[Any, bool]]] = {}
        last_commit_ts = 0
        for record in self.log:
            if isinstance(record, StartRecord):
                open_writes[record.txn_id] = {}
            elif isinstance(record, UpdateRecord):
                writes = open_writes.get(record.txn_id)
                if writes is not None:
                    writes[record.key] = (record.value, record.deleted)
            elif isinstance(record, CommitRecord):
                self._install(open_writes.pop(record.txn_id, {}),
                              record.commit_ts, record.txn_id)
                last_commit_ts = record.commit_ts
            elif isinstance(record, AbortRecord):
                open_writes.pop(record.txn_id, None)
        self._commit_counter = last_commit_ts
        self._crashed = False
        return last_commit_ts

    def recover_from(self, source_state: dict[Any, Any],
                     source_commit_ts: int) -> None:
        """Reinstall a quiesced copy of the primary (Section 3.4).

        The whole local multiversion state is replaced by a single-version
        image of ``source_state``; the local commit counter restarts at the
        source's commit timestamp so subsequent refresh transactions line
        up with primary state numbering.
        """
        chains = self._chains = {}
        for key, value in source_state.items():
            chain = chains[key] = VersionChain(key)
            chain.install(Version(source_commit_ts, value, 0))
        self._index = OrderedKeyIndex()
        self._index.load(chains.items())
        self._installed_ts = source_commit_ts
        self._commit_counter = source_commit_ts
        self._vacuum_horizon = source_commit_ts
        self._crashed = False

    # -- helpers -------------------------------------------------------------
    def _in_range(self, key: Any, lo: Any, hi: Any,
                  prefix: Optional[str]) -> bool:
        if prefix is not None:
            return isinstance(key, str) and key.startswith(prefix)
        if lo is not None and key < lo:
            return False
        if hi is not None and key > hi:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SIDatabase {self.name!r} ts={self._commit_counter} "
                f"keys={len(self._chains)}>")
