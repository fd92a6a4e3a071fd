"""Global transaction-execution histories.

A single :class:`HistoryRecorder` is shared by every site's engine; each
begin / read / write / scan / commit / abort is appended with a global
sequence number, producing the totally-ordered history H over which the
paper's definitions are stated.  :class:`TxnView` aggregates the events of
one transaction for the checkers.

Transactions carry optional metadata set by the replication layer:

``logical_id``
    Stable identity of the client transaction (shared by an update
    transaction at the primary and nothing else; refresh copies get their
    own local ids but point back via ``refresh_of``).
``session``
    The session label L_H(T).
``refresh_of``
    For refresh transactions: the logical id of the replayed primary
    transaction.

Long runs record millions of events, so the recorder is built to be
lean in memory and in time: events are ``slots`` dataclasses built with
plain attribute stores (read-only by contract, not frozen — a frozen
``__init__`` costs sixteen ``object.__setattr__`` calls per event), a
transaction's identity triple is worked out once and kept on the
transaction, the strings that repeat across transactions (site, session)
are interned so every event shares one copy — logical ids are unique per
transaction and already shared by its events, so interning them would
only grow the interpreter's table — and throughput-oriented sweeps can
opt out of per-operation recording entirely with ``detail="commits"``
(begin/commit/abort only — enough for latency/staleness accounting, not
for the SI checkers, which refuse such histories rather than vacuously
pass).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigurationError

#: Event kinds dropped by ``detail="commits"`` recording.
_OP_KINDS = frozenset({"read", "write", "scan"})

HISTORY_DETAILS = ("ops", "commits")


class _InternedStrings(dict):
    """``self[s]`` is the interned copy of ``s``, interned on first use."""

    def __missing__(self, value: str) -> str:
        interned = self[value] = sys.intern(value)
        return interned


@dataclass(slots=True)
class HistoryEvent:
    """One operation in the global history.

    Treat as read-only once recorded: checkers and caches share the
    event objects (``tests/txn/test_recording_oracle.py`` checks that no
    checker writes to one).
    """

    seq: int
    time: float
    kind: str                 # begin | read | write | scan | commit | abort
    site: str
    txn_id: int               # engine-local id
    logical_id: Optional[str]
    session: Optional[str]
    refresh_of: Optional[str]
    start_ts: Optional[int] = None
    commit_ts: Optional[int] = None
    key: Any = None
    value: Any = None
    deleted: bool = False
    producer: Optional[int] = None   # local txn id that wrote the value read
    reason: Optional[str] = None
    update_declared: bool = False    # begun with update=True


@dataclass(slots=True)
class TxnView:
    """All recorded facts about one transaction (one site's execution)."""

    site: str
    txn_id: int
    logical_id: Optional[str]
    session: Optional[str]
    refresh_of: Optional[str]
    is_update: bool = False
    begin_seq: int = -1
    begin_time: float = 0.0
    end_seq: int = -1
    end_time: float = 0.0
    start_ts: Optional[int] = None
    commit_ts: Optional[int] = None
    status: str = "active"           # active | committed | aborted
    reads: list[HistoryEvent] = field(default_factory=list)
    writes: list[HistoryEvent] = field(default_factory=list)
    scans: list[HistoryEvent] = field(default_factory=list)
    #: Memoised :attr:`final_writes` (the checkers read it once per site
    #: per pass; recomputing the dict dominated their profiles).
    _final_writes: Optional[dict] = field(default=None, repr=False,
                                          compare=False)

    @property
    def key(self) -> tuple[str, int]:
        return (self.site, self.txn_id)

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    @property
    def is_refresh(self) -> bool:
        return self.refresh_of is not None

    @property
    def read_set(self) -> set[Any]:
        return {event.key for event in self.reads}

    @property
    def write_set(self) -> set[Any]:
        return {event.key for event in self.writes}

    @property
    def final_writes(self) -> dict[Any, tuple[Any, bool]]:
        """Last-write-wins view of the write set: key -> (value, deleted).

        Memoised after the transaction completes — callers must not
        mutate the returned dict (checkers treat it as read-only).
        """
        out = self._final_writes
        if out is None:
            out = {}
            for event in self.writes:
                out[event.key] = (event.value, event.deleted)
            if self.status != "active":
                self._final_writes = out
        return out


class HistoryRecorder:
    """Collects a totally-ordered, multi-site execution history.

    ``detail`` selects the recording mode:

    ``"ops"`` (default)
        Full fidelity: every begin/read/write/scan/commit/abort.  Required
        by the SI and completeness checkers.
    ``"commits"``
        Transaction boundaries only (begin/commit/abort and recovery
        jumps); read/write/scan calls are dropped at the source.  Orders
        of magnitude lighter for throughput sweeps — but the checkers
        raise :class:`~repro.errors.CheckerError` on such histories
        instead of passing vacuously.
    """

    def __init__(self, detail: str = "ops") -> None:
        if detail not in HISTORY_DETAILS:
            raise ConfigurationError(
                f"unknown history detail {detail!r}; expected one of "
                f"{HISTORY_DETAILS}")
        self.detail = detail
        self.events: list[HistoryEvent] = []
        self._seq = 0
        # The identity strings many transactions share: site names and
        # session labels.
        self._interned = _InternedStrings()
        self._views_cache: Optional[dict[tuple[str, int], TxnView]] = None
        self._views_cache_len = -1
        self._site_events: list[HistoryEvent] = []
        self._committed_cache: dict[Optional[str], list[TxnView]] = {}
        self._committed_cache_len = -1

    def __len__(self) -> int:
        return len(self.events)

    def nbytes(self) -> int:
        """Approximate resident size of the recorded history in bytes
        (shallow per-event footprint plus the event list itself; shared
        interned strings and payload values are not traversed)."""
        return (sys.getsizeof(self.events)
                + sum(map(sys.getsizeof, self.events)))

    def record(self, kind: str, site: str, txn: Any, time: float,
               key: Any = None, value: Any = None, deleted: bool = False,
               producer: Optional[int] = None,
               reason: Optional[str] = None) -> Optional[HistoryEvent]:
        """Append one event; called by :class:`~repro.storage.SIDatabase`.

        Returns ``None`` (and records nothing) for read/write/scan events
        when the recorder was built with ``detail="commits"`` — the
        engine does not even call in that case (``SIDatabase._record``).
        """
        if self.detail == "commits" and kind in _OP_KINDS:
            return None
        logical_id, session, refresh_of = \
            getattr(txn, "recorded_ids", None) or self._identify(txn)
        seq = self._seq
        event = HistoryEvent(
            seq, time, kind, self._interned[site], txn.txn_id, logical_id,
            session, refresh_of, txn.start_ts,
            getattr(txn, "commit_ts", None), key, value, deleted, producer,
            reason, getattr(txn, "is_update", False))
        self._seq = seq + 1
        self.events.append(event)
        return event

    def _identify(self, txn: Any) -> tuple:
        """``(logical_id, session, refresh_of)`` from ``txn.metadata``,
        worked out on a transaction's first event and kept in its
        ``recorded_ids`` slot; a duck-typed transaction without the slot
        is identified afresh on each event."""
        meta = getattr(txn, "metadata", None) or {}
        session = meta.get("session")
        if type(session) is str:
            session = self._interned[session]
        ids = (meta.get("logical_id"), session, meta.get("refresh_of"))
        if hasattr(txn, "recorded_ids"):
            txn.recorded_ids = ids
        return ids

    def _record_site_event(self, kind: str, site: str, time: float,
                           commit_ts: int, value: Any) -> HistoryEvent:
        """Append a site-level (non-transaction) event."""
        event = HistoryEvent(self._seq, time, kind, self._interned[site], 0,
                             None, None, None, commit_ts=commit_ts,
                             value=value)
        self._seq += 1
        self.events.append(event)
        return event

    def record_recovery(self, site: str, time: float,
                        state: dict[Any, Any], commit_ts: int) -> HistoryEvent:
        """Append a site-recovery event (Section 3.4).

        A recovering secondary reinstalls a quiesced copy of the primary
        rather than replaying every commit it missed, so its state
        sequence legitimately *jumps* to the copy's commit timestamp.
        Recording the copy itself (``value``) lets the completeness
        checker verify the jump landed on a real primary state instead of
        trusting the recovery machinery.
        """
        return self._record_site_event("recover", site, time, commit_ts,
                                       dict(state))

    def record_subscription(self, site: str, shards: frozenset,
                            num_shards: int, time: float) -> HistoryEvent:
        """Append a shard-subscription event (partial replication).

        Declares, at topology-build time, which keyspace shards ``site``
        subscribes to out of ``num_shards``.  The checkers project the
        primary's history onto this subscription when auditing the site:
        its expected refresh stream is the subsequence of commits whose
        write sets intersect the subscribed shards, and its states are
        compared against the primary's states projected onto them.
        """
        return self._record_site_event("subscribe", site, time, num_shards,
                                       frozenset(shards))

    def record_promotion(self, old_site: str, new_site: str, time: float,
                         truncation_ts: int) -> HistoryEvent:
        """Append a primary-promotion event (the cluster-epoch boundary).

        ``truncation_ts`` is the promoted secondary's last applied primary
        commit: states S^0..S^truncation_ts survive into the new era as a
        shared prefix, while anything the old primary committed beyond it
        is truncated.  Checkers split the history into eras at these
        events and re-anchor the axis of comparison on the new primary's
        timeline (``site`` is the new primary, ``value`` the old one).
        """
        return self._record_site_event("promote", new_site, time,
                                       truncation_ts, self._interned[old_site])

    # -- aggregation -----------------------------------------------------
    def transactions(self) -> dict[tuple[str, int], TxnView]:
        """Aggregate events into per-transaction views, keyed (site, id).

        The aggregation is cached and rebuilt only when new events have
        been recorded since the last call — checkers call this many times
        over a finished history.  Treat the returned mapping and views as
        read-only.
        """
        if (self._views_cache is not None
                and self._views_cache_len == len(self.events)):
            return self._views_cache
        views: dict[tuple[str, int], TxnView] = {}
        site_events = self._site_events = []
        for event in self.events:
            if event.kind in ("recover", "promote", "subscribe"):
                site_events.append(event)   # site-level, no transaction
                continue
            key = (event.site, event.txn_id)
            view = views.get(key)
            if view is None:
                view = TxnView(site=event.site, txn_id=event.txn_id,
                               logical_id=event.logical_id,
                               session=event.session,
                               refresh_of=event.refresh_of)
                views[key] = view
            if event.kind == "begin":
                view.begin_seq = event.seq
                view.begin_time = event.time
                view.start_ts = event.start_ts
                view.is_update = event.update_declared
            elif event.kind == "read":
                view.reads.append(event)
            elif event.kind == "write":
                view.writes.append(event)
            elif event.kind == "scan":
                view.scans.append(event)
            elif event.kind == "commit":
                view.end_seq = event.seq
                view.end_time = event.time
                view.commit_ts = event.commit_ts
                view.status = "committed"
            elif event.kind == "abort":
                view.end_seq = event.seq
                view.end_time = event.time
                view.status = "aborted"
        for view in views.values():
            if view.writes:
                view.is_update = True   # writers are update txns regardless
        self._views_cache = views
        self._views_cache_len = len(self.events)
        return views

    def site_events(self) -> list[HistoryEvent]:
        """Site-level events (recover / promote / subscribe) in history
        order, set aside by the :meth:`transactions` pass and cached with
        it — the checkers ask for these few events several times per
        check, and each ask used to walk the whole history."""
        self.transactions()
        return self._site_events

    def committed(self, site: Optional[str] = None) -> list[TxnView]:
        """Committed transactions (optionally one site), in commit order.

        Cached per site until new events are recorded — the checkers walk
        these lists once per site per pass, and re-filtering every
        transaction view each time dominated their profiles.  Treat the
        returned list as read-only.
        """
        if self._committed_cache_len != len(self.events):
            self._committed_cache = {}
            self._committed_cache_len = len(self.events)
        views = self._committed_cache.get(site)
        if views is None:
            views = [v for v in self.transactions().values()
                     if v.committed and (site is None or v.site == site)]
            views.sort(key=lambda v: v.end_seq)
            self._committed_cache[site] = views
        return views

    def client_transactions(self) -> list[TxnView]:
        """Committed client transactions (refresh copies excluded)."""
        return [v for v in self.committed() if not v.is_refresh]

    def sites(self) -> list[str]:
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.site, None)
        return list(seen)
