"""Executable correctness criteria: weak SI, strong SI, strong session SI.

The checkers work purely from a recorded multi-site history — they do not
trust any middleware bookkeeping — and each reads the events once, in
``seq`` order, through a monitor.  The paper's guarantees are properties
of history prefixes (Raad, Lahav and Vafeiadis state SI as axioms over
prefixes), so a transaction's verdict is final when it commits:

1. The primary's states ``S^0 .. S^n`` are numbered by its committed
   update transactions (Theorem 3.1) and kept as per-key timelines
   (:mod:`repro.txn.timeline`), one axis per promotion era, appended at
   each primary commit and never materialised.
2. A client transaction's candidate snapshots are the states committed
   before it began, intersected with the admissible intervals of its
   reads (:class:`_SIMonitor`); none means it is not even weak SI.
3. The Definition 2.1 / 2.2 ordering constraints are lower bounds that
   propagate forward, so the running maxima a transaction saw at its
   begin bound its snapshot (:meth:`_SIMonitor._order`).
4. Completeness is one per-key induction along each secondary's refresh
   stream (:class:`_CompletenessMonitor`).

Of the settled transactions a monitor keeps only the violating ones,
classified and rendered when the stream ends.  O(total writes) memory
and near-linear time, on plain, promoted and sharded histories alike.
``tests/txn/reference_checkers.py`` is a slow, state-materialising
reference; ``tests/txn/test_reference_differential.py`` requires
identical verdicts from both.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Optional

from repro.core.sharding import shard_of
from repro.errors import CheckerError
from repro.txn.history import HistoryRecorder
from repro.txn.timeline import IntervalSet, KeyTimelines

_MISSING = object()

#: The shard set of every transaction in an unsharded history: one
#: shard, which everything reads and writes.
_ONE_SHARD = (0,)

#: Site-level event kinds, which belong to no transaction.
_SITE_KINDS = frozenset({"recover", "promote", "subscribe"})

#: An ordering pool nothing has been admitted to (never mutated).
_EMPTY_POOL: dict = {}

#: Begin order; ties (transactions recorded without a begin) by commit.
_begin_order = attrgetter("begin_seq", "order")


@dataclass(frozen=True)
class Violation:
    """One detected violation of a correctness criterion."""

    kind: str
    message: str
    txns: tuple = ()


@dataclass
class CheckResult:
    """Outcome of a checker run."""

    criterion: str
    ok: bool
    violations: list[Violation] = field(default_factory=list)
    checked_transactions: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (f"{self.criterion}: {status} over "
                f"{self.checked_transactions} committed transaction(s)")


def _final_writes(writes: list) -> dict[Any, tuple[Any, bool]]:
    """Last-write-wins view of write events: key -> (value, deleted)."""
    return {event.key: (event.value, event.deleted) for event in writes}


def _verbatim(mine: list, theirs: list) -> bool:
    """True when a refresh's write events replay the primary commit's
    exactly: same keys, values and delete flags, in the same order."""
    return len(mine) == len(theirs) and all(
        a.key == b.key and a.value == b.value and a.deleted == b.deleted
        for a, b in zip(mine, theirs))


@dataclass(frozen=True)
class _Era:
    """One primary regime: ``site`` is the primary after history sequence
    ``start_seq``, and its axis inherits the previous axis' first
    ``base_ts`` commits — the states that survived the truncation."""

    index: int
    site: str
    start_seq: int
    base_ts: int


def _shared_prefix_bound(eras: list[_Era], from_era: int,
                         to_era: int) -> int:
    """Highest state index comparable between two eras' axes: the
    smallest truncation point in between (beyond it the old regime's
    states no longer exist on the new axis)."""
    return min(eras[e].base_ts for e in range(from_era + 1, to_era + 1))


class _ShardMemo(dict):
    """key -> shard, hashed once per check (``shard_of`` is a
    ``crc32(repr(key))``; a check asks for the same few hundred keys
    hundreds of thousands of times)."""

    def __init__(self, num_shards: int):
        self.num_shards = num_shards

    def __missing__(self, key: Any) -> int:
        shard = self[key] = shard_of(key, self.num_shards)
        return shard


class _Axis:
    """One era's primary timeline: axis 0 is the original primary's
    committed updates; axis e starts as the first ``base_ts`` commits of
    axis e-1 and goes on with the new primary's own.  Old-primary commits
    past the truncation point stay on the old axis only."""

    __slots__ = ("commits", "touching", "own", "key_timelines")

    def __init__(self, commits: list, touching: dict):
        #: The write events of each commit, in commit order.
        self.commits = commits
        #: Sharded histories: a shard (or a subscription's shard set) ->
        #: ascending numbers of the commits touching it — where a shard's
        #: projection of S^s changes, and what a subscriber is sent.
        self.touching = touching
        #: Commits the era's own primary appended (density check).
        self.own = 0
        #: The per-key change history of the commits, built lazily.
        self.key_timelines = KeyTimelines()

    def timelines(self) -> KeyTimelines:
        """:attr:`key_timelines`, brought up to date (a clean unsharded
        completeness audit never asks for it)."""
        timelines = self.key_timelines
        commits = self.commits
        while timelines.num_commits < len(commits):
            timelines.append_commit(
                _final_writes(commits[timelines.num_commits]))
        return timelines

    def prefix(self, base: int) -> "_Axis":
        """A new axis holding this one's first ``base`` commits."""
        return _Axis(self.commits[:base],
                     {label: commits[:bisect_right(commits, base)]
                      for label, commits in self.touching.items()})


class _Monitor:
    """What every check keeps while it replays a history: the promotion
    eras, one primary axis per era, and the shard subscriptions.  An
    unsharded history is the one-shard case and a history without
    promotions the one-era case, so each check has a single shape."""

    def __init__(self, recorder: HistoryRecorder, primary_site: str):
        detail = getattr(recorder, "detail", "ops")
        if detail != "ops":
            raise CheckerError(
                f"history was recorded with detail={detail!r}: read/write "
                f"events are missing, so the SI checkers cannot run; record "
                f"with detail='ops' for checked runs")
        self.recorder = recorder
        self.primary_site = primary_site
        self.eras = [_Era(0, primary_site, -1, 0)]
        self.axes = [_Axis([], {})]
        #: site -> the eras it is the primary of.
        self.primary_of: dict[str, list[int]] = {primary_site: [0]}
        #: site -> (subscribed shards, num_shards) from "subscribe" events
        #: (only partial-replication histories record them).
        self.subs: dict[str, tuple[frozenset, int]] = {}
        self.num_shards: Optional[int] = None
        self.shard_of = _ShardMemo(1)
        self.started = False
        #: era -> first density error; era -> promotion base error.
        self.dense_errors: dict[int, tuple] = {}
        self.base_errors: dict[int, str] = {}

    def _site_event(self, event: Any) -> None:
        kind = event.kind
        if kind == "subscribe":
            if self.started:
                raise CheckerError(
                    f"subscription of {event.site!r} recorded after the "
                    f"first commit: shard subscriptions are declared "
                    f"before any transaction commits")
            self.subs[event.site] = (frozenset(event.value or ()),
                                     event.commit_ts or 0)
            self.num_shards = next(iter(self.subs.values()))[1]
            self.shard_of = _ShardMemo(self.num_shards)
        elif kind == "promote":
            self._fence()
            era = _Era(len(self.eras), event.site, event.seq,
                       event.commit_ts or 0)
            previous = self.axes[-1]
            if era.base_ts > len(previous.commits):
                self.base_errors[era.index] = (
                    f"promotion base S^{era.base_ts} exceeds the previous "
                    f"primary's last state S^{len(previous.commits)}")
            self.eras.append(era)
            self.axes.append(previous.prefix(era.base_ts))
            self.primary_of.setdefault(era.site, []).append(era.index)
            self._promoted(era.site)
        else:
            self.started = True
            self._recover(event)

    def _fence(self) -> None:
        """Hook: a promotion is about to open a new era."""

    def _promoted(self, site: str) -> None:
        """Hook: ``site`` has just become the primary."""

    def _recover(self, event: Any) -> None:
        """Hook: a recovery copy was installed at ``event.site``."""

    def _primary_commit(self, site: str, writes: list, name: Any,
                        commit_ts: Optional[int]) -> None:
        """An update committed at ``site``: the next commit of the axis
        of every era ``site`` is the primary of."""
        for era in self.primary_of.get(site, ()):
            axis = self.axes[era]
            axis.commits.append(writes)
            if self.num_shards is not None:
                self._index(axis, self._shards([event.key
                                                for event in writes]))
            axis.own += 1
            expected = self.eras[era].base_ts + axis.own
            if commit_ts is not None and commit_ts != expected \
                    and era not in self.dense_errors:
                self.dense_errors[era] = (name, commit_ts, expected)

    def _index(self, axis: _Axis, shards: frozenset) -> None:
        """Sharded histories: file the axis' newest commit, which wrote
        to ``shards``, under the labels of :attr:`_Axis.touching`."""

    def _raise_axis_errors(self, dense: bool, named: bool) -> None:
        """Refuse, era by era, a history whose states cannot be numbered:
        a promotion base past the previous primary's last state, or (when
        ``dense``) skipping primary commit timestamps."""
        for era in range(len(self.eras)):
            error = self.dense_errors.get(era)
            if dense and error is not None:
                name, commit_ts, expected = error
                where = f" in era {era}" if named else ""
                raise CheckerError(
                    f"primary commit timestamps not dense{where}: txn "
                    f"{name} has commit_ts {commit_ts}, expected "
                    f"{expected}")
            if era in self.base_errors:
                raise CheckerError(self.base_errors[era])

    def _shards(self, keys: Any) -> frozenset:
        """The shard set a group of keys lives on (sharded histories)."""
        shard_of = self.shard_of
        return frozenset([shard_of[key] for key in keys])


class _Txn:
    """An open client transaction, kept from its first event to its
    commit — and past it only if it violates the criterion.  Its
    ``constraints`` are the (key, value, present) of its first reads of
    keys it had not yet read or written (``blocked``)."""

    __slots__ = ("site", "txn_id", "logical_id", "session", "is_update",
                 "begin_seq", "start_ts", "era", "upper", "pool", "writes",
                 "constraints", "blocked", "order", "snapshot",
                 "admissible", "lower", "read_shards", "source")

    @property
    def key(self) -> tuple[str, int]:
        return (self.site, self.txn_id)

    @property
    def name(self) -> Any:
        return self.logical_id or self.txn_id


class _SIMonitor(_Monitor):
    """Weak SI (Theorem 3.2), plus the ordering constraints of strong SI
    (``same_session`` False) or strong session SI (True).

    A client transaction is settled at its commit: ``upper`` is the
    number of axis commits before its begin, its candidates are ``[0,
    upper]`` intersected with the admissible intervals of its first reads
    (those before any own write), and its ordering bound is the pool it
    captured at its begin.  Refresh transactions and scans are skipped.
    ``sources`` makes it a second replay, on the violation path only.
    """

    def __init__(self, recorder: HistoryRecorder, primary_site: str,
                 same_session: Optional[bool] = None,
                 sources: Optional[tuple] = None):
        super().__init__(recorder, primary_site)
        self.same_session = same_session
        self.sources = sources
        #: Ordering pools: label -> max obligation while the history has
        #: one shard and one era (``scalar``), else label -> era -> shard
        #: -> max.  A label nothing joined yet binds with 0.
        self.pools: dict = {}
        self.scalar = True
        self.checked = 0
        #: Sequence number of the commit being settled.
        self.end_seq = -1
        #: (transaction, Violation) of the weak-SI analysis.
        self.analysis: list[tuple] = []
        #: Client transactions whose reads admit no snapshot.
        self.unsnapshotted: list[_Txn] = []
        #: Transactions that fell behind their ordering bound.
        self.inverted: list[_Txn] = []

    def replay(self) -> "_SIMonitor":
        open_txns: dict[tuple[str, int], _Txn] = {}
        txn: Optional[_Txn] = None
        for event in self.recorder.events:
            kind = event.kind
            if kind == "begin":
                if event.refresh_of is None:
                    txn = open_txns[event.site, event.txn_id] = \
                        self._begin(event, True)
                continue
            if kind == "scan" or event.refresh_of is not None:
                continue
            if kind in _SITE_KINDS:
                self._site_event(event)
                continue
            # Most events belong to the transaction of the one before.
            if txn is None or txn.txn_id != event.txn_id \
                    or txn.site != event.site:
                txn = open_txns.get((event.site, event.txn_id))
                if txn is None:
                    txn = open_txns[event.site, event.txn_id] = \
                        self._begin(event, False)
            if kind == "read":
                key = event.key
                if key not in txn.blocked:
                    txn.blocked.add(key)
                    txn.constraints.append(
                        (key, event.value, event.producer is not None))
            elif kind == "write":
                txn.writes.append(event)
                txn.is_update = True    # writers are update txns regardless
                txn.blocked.add(event.key)
            elif kind == "commit":
                del open_txns[txn.site, txn.txn_id]
                self.started = True
                if txn.is_update:
                    self._primary_commit(txn.site, txn.writes, txn.name,
                                         event.commit_ts)
                self.end_seq = event.seq
                self._settle(txn, event.commit_ts)
                txn = None
            elif kind == "abort":
                del open_txns[txn.site, txn.txn_id]
                txn = None
        self._raise_axis_errors(True, len(self.eras) > 1)
        return self

    def _begin(self, event: Any, began: bool) -> _Txn:
        """Open a client transaction at its begin — or, recorded without
        one, at its first event, as if it began before anything else."""
        txn = _Txn()
        txn.site, txn.txn_id = event.site, event.txn_id
        txn.logical_id = event.logical_id
        session = txn.session = event.session
        txn.writes, txn.constraints, txn.blocked = [], [], set()
        if not began:
            txn.is_update, txn.begin_seq, txn.start_ts = False, -1, None
            txn.era = txn.upper = txn.pool = 0
            return txn
        txn.is_update = event.update_declared
        txn.begin_seq, txn.start_ts = event.seq, event.start_ts
        era = txn.era = len(self.eras) - 1
        txn.upper = len(self.axes[era].commits)
        same = self.same_session
        if same is not None:
            # A session-less transaction binds and is bound by nothing.
            txn.pool = 0 if same and session is None else self.pools.get(
                session if same else None, 0)
        return txn

    def _promoted(self, site: str) -> None:
        if self.scalar and self.num_shards is None:
            self.pools = {label: {0: {0: ts}}
                          for label, ts in self.pools.items()}
        self.scalar = False

    def _index(self, axis: _Axis, shards: frozenset) -> None:
        number = len(axis.commits)
        for shard in shards:
            axis.touching.setdefault(shard, []).append(number)

    # -- weak SI -----------------------------------------------------------
    def _settle(self, txn: _Txn, commit_ts: Optional[int]) -> None:
        """Infer the snapshots a committed client transaction's reads are
        consistent with; order it if the check asks for ordering."""
        self.checked += 1
        era = txn.era
        constraints = txn.constraints
        if txn.is_update and txn.site == self.eras[era].site:
            snapshot = txn.start_ts or 0
            if not _holds(self.axes[era].timelines(), snapshot, constraints):
                txn.order = self.checked
                self.analysis.append((txn, Violation(
                    kind="inconsistent-update-read",
                    message=(f"update txn {txn.name} reads do not match "
                             f"primary state S^{snapshot}"),
                    txns=(txn.key,))))
                return
            if self.same_session is not None:
                self._order(txn, (snapshot, snapshot), commit_ts)
            return
        if not constraints:
            # Any state before its begin will do: no interval set.
            if self.same_session is not None:
                self._order(txn, (0, txn.upper), None)
            return
        admissible = _candidates(self.axes[era].timelines(), constraints,
                                 txn.upper)
        if not admissible:
            txn.order = self.checked
            self.unsnapshotted.append(txn)
            return
        if self.same_session is not None:
            self._order(txn, admissible, None)

    def analysis_violations(self) -> list[Violation]:
        """The weak-SI violations, in begin order.  Telling a future
        snapshot from none at all needs the whole axis, so the
        transactions whose reads admitted no snapshot are classified
        here, at the end of the stream."""
        found = list(self.analysis)
        for txn in self.unsnapshotted:
            axis = self.axes[txn.era]
            candidates = _candidates(axis.timelines(), txn.constraints,
                                     len(axis.commits))
            if candidates:
                kind, message = "future-snapshot", (
                    f"txn {txn.name} saw a state (index in "
                    f"{candidates.to_list()}) newer than any committed "
                    f"before it began (<= {txn.upper})")
            else:
                kind, message = "no-consistent-snapshot", (
                    f"txn {txn.name} reads match no transaction-consistent "
                    f"primary state")
            found.append((txn, Violation(kind, message, (txn.key,))))
        found.sort(key=lambda entry: _begin_order(entry[0]))
        return [violation for _, violation in found]

    # -- ordering ----------------------------------------------------------
    def _order(self, txn: _Txn, admissible: Any,
               commit_index: Optional[int]) -> None:
        """Definition 2.1/2.2 pair constraints, settled at the commit.
        ``admissible`` holds ``txn``'s candidates: an :class:`IntervalSet`
        or a ``(lo, hi)`` range; an update at its era's primary is pinned
        to one snapshot and has a ``commit_index``.

        A history satisfies the criterion iff *some* assignment of
        candidate snapshots satisfies every ordering constraint.  The
        constraints are lower bounds that propagate forward, so assigning
        each read-only transaction its **smallest** feasible candidate is
        optimal (a greedy maximum invents phantom obligations).  Every Ti
        that constrains Tj committed before Tj began, so Tj's bound is
        the pool of running maxima (one globally, or one per session
        label) it captured at its begin, and Ti joins the pools at its
        commit.

        Under partial replication a read observing shards R inherits from
        Ti only the obligations Ti left on the shards in R (NMSI), so
        each transaction publishes an obligation vector
        (:meth:`_obligation`) and a pool keeps ``shard -> max`` per era
        of the admitted transaction.  An obligation carried into a later
        era clamps to the two axes' shared prefix; the clamp depends only
        on the era pair, so clamping the per-era maximum equals the
        maximum of the clamped obligations.  With one shard and one era a
        pool is a single running maximum.
        """
        same = self.same_session
        if self.num_shards is None:
            txn.read_shards = _ONE_SHARD
        else:
            # Only reads that precede an own write of the same key
            # constrain the snapshot, so only those keys' shards carry
            # obligations.
            shard_of = self.shard_of
            txn.read_shards = {shard_of[key] for key, _, _ in txn.constraints}
        pool = txn.pool
        lower = pool if type(pool) is int else _bound(
            pool, txn.read_shards, txn.era, self.eras)
        if type(admissible) is tuple:
            lo, hi = admissible
            snapshot = max(lo, lower) if lower <= hi else None
        else:
            snapshot = admissible.first_at_least(lower)
        feasible = snapshot is not None
        if not feasible:
            if type(admissible) is tuple:
                admissible = IntervalSet((admissible,))
            snapshot = admissible.max()
            txn.order = self.checked
            txn.snapshot = snapshot
            txn.admissible = admissible
            txn.lower = lower
            txn.source = None
            self.inverted.append(txn)
        if same and txn.session is None:
            return
        label = txn.session if same else None
        if self.scalar and self.num_shards is None:
            ts = snapshot if commit_index is None else commit_index
            if ts > self.pools.get(label, 0):
                self.pools[label] = ts
            if self.sources is not None:
                self._offer(txn, {0: ts})
            return
        vector = self._obligation(txn, snapshot, commit_index)
        if self.sources is not None:
            self._offer(txn, vector)
        pool = self.pools.get(label, _EMPTY_POOL)
        maxima = pool.get(txn.era, _EMPTY_POOL)
        raised = None
        for shard, ts in vector.items():
            if ts > maxima.get(shard, 0):
                if raised is None:
                    raised = dict(maxima)
                raised[shard] = ts
        if raised is not None:
            # Pools are copied on write: a transaction keeps the one it
            # captured at its begin.
            pool = dict(pool)
            pool[txn.era] = raised
            self.pools[label] = pool

    def _obligation(self, txn: _Txn, snapshot: int,
                    commit_index: Optional[int]) -> dict[int, int]:
        """What ``txn`` obliges a later reader of each shard to have
        seen: an update, its commit number on the shards it wrote; a
        read-only transaction assigned snapshot ``s``, the newest commit
        <= ``s`` touching each shard it read — exactly what it observed
        of that shard."""
        if self.num_shards is None:
            if commit_index is not None:
                return {0: commit_index}
            return {0: snapshot} if snapshot else {}
        if commit_index is not None:
            return dict.fromkeys(
                self._shards([event.key for event in txn.writes]),
                commit_index)
        touching = self.axes[txn.era].touching
        vector: dict[int, int] = {}
        for shard in txn.read_shards:
            commits = touching.get(shard)
            if commits:
                pos = bisect_right(commits, snapshot)
                if pos:
                    vector[shard] = commits[pos - 1]
        return vector

    def _offer(self, ti: _Txn, vector: dict[int, int]) -> None:
        """Source replay: is ``ti`` the earliest-begun transaction that
        sets an inverted transaction's bound?  (A running maximum forgets
        which Ti set it; the message names that one, an all-pairs loop's
        tie-break.)"""
        end = self.end_seq
        same = self.same_session
        eras, targets = self.sources
        for tj in targets:
            if end < tj.begin_seq and (not same or ti.session == tj.session) \
                    and (tj.source is None
                         or ti.begin_seq < tj.source.begin_seq) \
                    and _bound({ti.era: vector}, tj.read_shards, tj.era,
                               eras) == tj.lower:
                tj.source = ti

    def ordering_violations(self) -> list[Violation]:
        """The inversions, in begin order, each naming its source — found
        by one more replay, on this violation path only."""
        inverted = sorted(self.inverted, key=_begin_order)
        if not inverted:
            return []
        _SIMonitor(self.recorder, self.primary_site, self.same_session,
                   sources=(self.eras, inverted)).replay()
        scope = " in the same session" if self.same_session else ""
        return [Violation(
            kind="transaction-inversion",
            message=(f"txn {tj.name} saw state S^{tj.snapshot} (candidates "
                     f"{tj.admissible.to_list()}) but {tj.source.name} "
                     f"(committed earlier{scope}) requires at least "
                     f"S^{tj.lower}"),
            txns=(tj.source.key, tj.key)) for tj in inverted]


class _Replica:
    """The completeness cursor of one secondary.  Invariant: before each
    audited item the site's state *is* ``S^at`` of axis ``at_era``,
    projected onto its subscription (``held`` when partial).  ``prev`` is
    the last commit of the numbering it must follow without a gap, and
    ``pending`` the run's commits that arrived above the next one due.
    A ``divergence`` (label, index, seq, expected state) waits for the
    ``state`` the site held, which only a rendering replay keeps."""

    __slots__ = ("site", "subscription", "held", "at_era", "at", "prev",
                 "checked", "stopped", "pending", "violation", "divergence",
                 "state")

    def __init__(self, site: str, subscription: Optional[frozenset],
                 held: Optional[frozenset], stopped: bool,
                 state: Optional[dict]):
        self.site, self.subscription, self.held = site, subscription, held
        self.at_era = self.at = self.prev = self.checked = 0
        self.stopped, self.state = stopped, state
        self.pending: list = []
        self.violation: Optional[Violation] = None
        self.divergence: Optional[tuple] = None


class _CompletenessMonitor(_Monitor):
    """Theorem 3.1 as one per-key induction per secondary, along its
    refresh stream (:meth:`_arrive`).  Reads, scans and read-only
    transactions play no part and are skipped.

    ``render`` (site -> sequence number of a divergent item) makes the
    monitor a second replay on the violation path, which folds those
    sites' items into full states exactly as the replicas applied them,
    up to that item (:attr:`rendered`).
    """

    def __init__(self, recorder: HistoryRecorder, primary_site: str,
                 render: Optional[dict] = None):
        super().__init__(recorder, primary_site)
        self.render = render or {}
        self.rendered: dict[str, dict] = {}
        #: Every site, in order of first appearance.
        self.sites: dict[str, None] = {}
        self.replicas: dict[str, _Replica] = {}
        #: The distinct shard sets sites hold (sharded histories).
        self.subscriptions: Optional[set[frozenset]] = None

    def replay(self) -> "_CompletenessMonitor":
        #: (site, txn id) -> write events of an open update transaction.
        open_writes: dict[tuple[str, int], list] = {}
        sites = self.sites
        for event in self.recorder.events:
            kind = event.kind
            if kind == "begin":
                sites.setdefault(event.site)
                if event.update_declared:
                    open_writes[event.site, event.txn_id] = []
            elif kind == "write":
                writes = open_writes.get((event.site, event.txn_id))
                if writes is None:      # undeclared writer, or no begin
                    sites.setdefault(event.site)
                    writes = open_writes[event.site, event.txn_id] = []
                writes.append(event)
            elif kind == "commit":
                writes = open_writes.pop((event.site, event.txn_id), None)
                if writes is not None:
                    self._commit(event, writes)
            elif kind == "abort":
                open_writes.pop((event.site, event.txn_id), None)
            elif kind in _SITE_KINDS:
                sites.setdefault(event.site)
                self._site_event(event)
        self._fence()
        # The plain audit takes the primary's numbering as recorded.
        self._raise_axis_errors(len(self.eras) > 1 or bool(self.subs), True)
        return self

    def _commit(self, event: Any, writes: list) -> None:
        self.started = True
        site = event.site
        if event.refresh_of is None:
            self._primary_commit(site, writes, event.logical_id
                                 or event.txn_id, event.commit_ts)
        if site != self.primary_site:
            replica = self.replicas.get(site) or self._replica(site)
            if not replica.stopped:
                ts = event.commit_ts
                self._arrive(replica, -1 if ts is None else ts, event.seq,
                             writes)

    def _index(self, axis: _Axis, shards: frozenset) -> None:
        if self.subscriptions is None:
            # Every site holds every shard unless it subscribed to fewer.
            self.subscriptions = {shards for shards, _ in self.subs.values()}
            self.subscriptions.add(frozenset(range(self.num_shards)))
        number = len(axis.commits)
        for subscription in self.subscriptions:
            if not shards.isdisjoint(subscription):
                axis.touching.setdefault(subscription, []).append(number)

    def _fence(self) -> None:
        # A promotion fence (or the end of the history) ends every run.
        for replica in self.replicas.values():
            self._drain(replica, end_run=True)

    def _promoted(self, site: str) -> None:
        # A promoted site is audited as a secondary only up to its
        # promotion; afterwards its own commits define the axis.
        if site in self.replicas:
            self.replicas[site].stopped = True

    def _recover(self, event: Any) -> None:
        replica = self.replicas.get(event.site) or self._replica(event.site)
        if not replica.stopped:
            self._drain(replica, end_run=True)
            replica.prev = event.commit_ts or 0
            self._audit(replica, replica.prev, event.seq, None, event.value)

    def _replica(self, site: str) -> _Replica:
        subscription = held = None
        if self.num_shards is not None:
            subscription = self.subs.get(
                site, (frozenset(range(self.num_shards)),))[0]
            if len(subscription) < self.num_shards:
                held = subscription
        replica = self.replicas[site] = _Replica(
            site, subscription, held, site in self.primary_of,
            {} if site in self.render else None)
        return replica

    def _due(self, replica: _Replica) -> Optional[int]:
        """The next commit the site must apply: ``prev + 1`` when
        unsharded, else the next axis commit touching a subscribed shard
        (None when the axis holds none yet)."""
        if replica.subscription is None:
            return replica.prev + 1
        sent = self.axes[-1].touching.get(replica.subscription, ())
        pos = bisect_right(sent, replica.prev)
        return sent[pos] if pos < len(sent) else None

    def _arrive(self, replica: _Replica, ts: int, seq: int,
                writes: list) -> None:
        """A refresh commit reaches the site's cursor.

        With ``parallel_refresh`` a secondary commits out of primary
        order, but only the contiguous watermark prefix ever becomes
        visible, and what it applied above the watermark is truncated by
        a crash or an epoch fence.  So each *run* (between recoveries and
        promotion fences) is audited in commit-number order: a commit
        above the one due waits in ``pending`` until the gap closes, and
        what still waits when the run ends is dropped (:meth:`_drain`).
        Strict-FIFO histories arrive in order and nothing waits.  A
        subscriber is sent only the commits touching its shards, so the
        numbering it follows is that subsequence of the axis; a commit
        that should never have arrived is audited, and flagged.
        """
        due = self._due(replica)
        if due is not None and ts > due:
            heappush(replica.pending, (ts, seq, writes))
            return
        self._audit(replica, ts, seq, writes)
        if ts == due:
            replica.prev = ts
            self._drain(replica)

    def _drain(self, replica: _Replica, end_run: bool = False) -> None:
        """Audit the waiting commits that are due.  A recovery or a
        promotion fence ends the site's run (``end_run``): what it
        applied above a gap then was truncated."""
        pending = replica.pending
        while pending and not replica.stopped:
            due = self._due(replica)
            if due is not None and pending[0][0] > due:
                break
            ts, seq, writes = heappop(pending)
            self._audit(replica, ts, seq, writes)
            if ts == due:
                replica.prev = ts
        if end_run:
            replica.pending = []

    def _audit(self, replica: _Replica, index: int, seq: int,
               writes: Optional[list], copy: Any = None) -> None:
        """One step of the induction: a refresh commit (``writes``) or a
        recovery copy (``copy``) claims to leave the site in ``S^index``
        of the current era's axis — so a replica that carried the old
        primary's truncated tail across a promotion is flagged.  A
        recovery copy (Section 3.4's one legitimate discontinuity) is
        compared in full and restarts the induction.

        Fast path: an in-order refresh at a site holding every key whose
        write events replay the primary commit's verbatim takes ``S^at``
        to ``S^index`` by construction.  It is the common case and reads
        only raw events, so a clean unsharded audit never builds the
        :class:`KeyTimelines` index.
        """
        replica.checked += 1
        era = len(self.eras) - 1
        axis = self.axes[era]
        if replica.state is not None:
            if writes is None:
                replica.state = dict(copy or {})
            for key, (value, deleted) in _final_writes(writes or ()).items():
                if deleted:
                    replica.state.pop(key, None)
                else:
                    replica.state[key] = value
            if self.render[replica.site] == seq:
                self.rendered[replica.site] = dict(replica.state)
        if not 0 <= index <= len(axis.commits):
            replica.violation = Violation(
                kind="secondary-ahead",
                message=(f"site {replica.site!r} produced state S^{index}, "
                         f"but the primary only reached "
                         f"S^{len(axis.commits)}"))
            replica.stopped = True
            return
        if writes is None:
            diverged = (dict(copy or {})
                        != self._projected(era, index, replica.held))
        elif (replica.held is None and era == replica.at_era
              and index == replica.at + 1
              and _verbatim(writes, axis.commits[replica.at])):
            diverged = False            # fast path
        else:
            diverged = self._diverges(replica.held, replica.at_era,
                                      replica.at, era, index,
                                      _final_writes(writes))
        if diverged:
            label = "recovery copy" if writes is None else "state"
            replica.divergence = (label, index, seq,
                                  self._projected(era, index, replica.held))
            replica.stopped = True
            return
        replica.at_era, replica.at = era, index

    def _projected(self, era: int, index: int,
                   held: Optional[frozenset]) -> dict[Any, Any]:
        """``S^index`` of one axis restricted to the keys on ``held``
        shards (everything when ``held`` is None), materialised."""
        state = self.axes[era].timelines().state_at(index)
        if held is None:
            return state
        shard_of = self.shard_of
        return {key: value for key, value in state.items()
                if shard_of[key] in held}

    def _diverges(self, held: Optional[frozenset], at_era: int, at: int,
                  era: int, index: int,
                  final_writes: dict[Any, tuple[Any, bool]]) -> bool:
        """Does applying ``final_writes`` to the (projected) ``S^at`` of
        axis ``at_era`` fail to produce the (projected) ``S^index`` of
        axis ``era``?  Only the refresh's own keys and the axis writes
        above the two states' common ancestor can differ.  ``held`` is a
        partial subscriber's shard set: a key elsewhere must be absent.
        """
        before = self.axes[at_era].timelines()
        after = self.axes[era].timelines()
        common = min(at, index)
        if at_era != era:
            common = min(common, _shared_prefix_bound(self.eras, at_era, era))
        suspects = set(final_writes)
        for i in range(common + 1, at + 1):
            suspects.update(before.write_keys[i])
        for i in range(common + 1, index + 1):
            suspects.update(after.write_keys[i])
        shard_of = self.shard_of
        for key in suspects:
            subscribed = held is None or shard_of[key] in held
            own = final_writes.get(key)
            if own is not None:
                actual = _MISSING if own[1] else own[0]
            elif subscribed:
                was_present, value = before.value_at(key, at)
                actual = value if was_present else _MISSING
            else:
                continue        # untouched and unsubscribed: absent both sides
            present, expected = (after.value_at(key, index) if subscribed
                                 else (False, None))
            if present:
                if actual is _MISSING or actual != expected:
                    return True
            elif actual is not _MISSING:
                return True
        return False

    def completeness_result(self) -> CheckResult:
        """Per site in order of first appearance: its audited items and
        its violation, if any.  A divergence message shows the state the
        site held, rendered by one more replay, on this violation path
        only."""
        replicas = [self.replicas[site] for site in self.sites
                    if site in self.replicas]
        divergent = {replica.site: replica.divergence[2]
                     for replica in replicas if replica.divergence}
        if divergent:
            held = _CompletenessMonitor(self.recorder, self.primary_site,
                                        render=divergent).replay().rendered
            for replica in replicas:
                if replica.divergence:
                    label, index, _, expected = replica.divergence
                    replica.violation = Violation(
                        kind="state-divergence",
                        message=(f"site {replica.site!r} {label} S^{index} "
                                 f"diverges from primary: "
                                 f"{held[replica.site]!r} != {expected!r}"))
        violations = [replica.violation for replica in replicas
                      if replica.violation is not None]
        return CheckResult(criterion="completeness", ok=not violations,
                           violations=violations,
                           checked_transactions=sum(
                               replica.checked for replica in replicas))


def _bound(pool: dict, read_shards: Any, era: int, eras: list[_Era]) -> int:
    """Lower bound a pool (era -> shard -> max obligation) puts on a
    transaction of ``era`` reading ``read_shards``."""
    lower = 0
    for from_era, maxima in pool.items():
        clamp = (None if from_era == era
                 else _shared_prefix_bound(eras, from_era, era))
        for shard in read_shards:
            ts = maxima.get(shard, 0)
            if clamp is not None and ts > clamp:
                ts = clamp
            if ts > lower:
                lower = ts
    return lower


def _holds(timelines: KeyTimelines, snapshot: int,
           constraints: list[tuple[Any, Any, bool]]) -> bool:
    """Do the reads hold in ``S^snapshot`` of the axis?"""
    if snapshot > timelines.num_commits:
        return False
    value_at = timelines.value_at
    for key, value, present in constraints:
        actual_present, actual = value_at(key, snapshot)
        if actual_present != present or (present and actual != value):
            return False
    return True


def _candidates(timelines: KeyTimelines,
                constraints: list[tuple[Any, Any, bool]],
                upper: int) -> IntervalSet:
    """The axis states no newer than ``upper`` that satisfy every read
    constraint: ``[0, upper]`` intersected with each constraint's
    admissible intervals."""
    candidates = IntervalSet.full(upper)
    intervals_for = timelines.intervals_for
    for key, value, present in constraints:
        if not candidates:
            break       # intersection can only shrink further
        candidates = candidates.intersect(intervals_for(key, value, present))
    return candidates


def _check_si(recorder: HistoryRecorder, primary_site: str,
              same_session: Optional[bool], criterion: str) -> CheckResult:
    monitor = _SIMonitor(recorder, primary_site, same_session).replay()
    violations = monitor.analysis_violations()
    violations.extend(monitor.ordering_violations())
    return CheckResult(criterion=criterion, ok=not violations,
                       violations=violations,
                       checked_transactions=monitor.checked)


def check_weak_si(recorder: HistoryRecorder,
                  primary_site: str = "primary") -> CheckResult:
    """Global weak SI (Theorem 3.2): every committed client transaction
    observed *some* transaction-consistent primary snapshot no newer than
    its begin."""
    return _check_si(recorder, primary_site, None, "weak SI")


def check_strong_si(recorder: HistoryRecorder,
                    primary_site: str = "primary") -> CheckResult:
    """Strong SI (Definition 2.1): weak SI plus no transaction inversions
    between *any* pair of committed transactions."""
    return _check_si(recorder, primary_site, False, "strong SI")


def check_strong_session_si(recorder: HistoryRecorder,
                            primary_site: str = "primary") -> CheckResult:
    """Strong session SI (Definition 2.2): weak SI plus no transaction
    inversions between pairs with the same session label."""
    return _check_si(recorder, primary_site, True, "strong session SI")


def count_transaction_inversions(recorder: HistoryRecorder,
                                 primary_site: str = "primary",
                                 within_sessions: bool = True) -> int:
    """Count inverted transactions (for demonstrating weak SI's staleness).

    Returns the number of transactions Tj that began after some Ti
    committed — a Ti of the same session when ``within_sessions`` — yet
    observed an older state than Ti installed (or saw).  Each such Tj
    counts once, however many earlier transactions it falls behind.
    """
    monitor = _SIMonitor(recorder, primary_site, within_sessions).replay()
    return len(monitor.inverted)


def check_completeness(recorder: HistoryRecorder,
                       primary_site: str = "primary") -> CheckResult:
    """Theorem 3.1: every state a secondary produces is a primary state.

    Refresh commits mirror primary commit numbering, so each committed
    refresh must leave the secondary in exactly the primary state of the
    same number.  Section 3.4 recovery is the one legitimate
    discontinuity: the site *jumps* to a quiesced copy of the primary,
    recorded with the copy itself, which is verified rather than
    trusted.  Parallel refresh, partial replication and promotions are
    handled as :meth:`_CompletenessMonitor._arrive` describes.
    """
    return _CompletenessMonitor(recorder,
                                primary_site).replay().completeness_result()
