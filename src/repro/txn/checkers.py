"""Executable correctness criteria: weak SI, strong SI, strong session SI.

The checkers work purely from a recorded multi-site history — they do not
trust any middleware bookkeeping.  The method:

1. Number the primary's database states ``S^0 .. S^n`` by the committed
   update transactions (Theorem 3.1 numbering), kept as per-key
   timelines (:mod:`repro.txn.timeline`), never as materialised states.
2. For every committed client transaction, infer which state(s) its reads
   are consistent with (its *candidate snapshot indices*): the
   intersection of per-key admissible intervals, each resolved by
   ``bisect``.  A transaction whose reads match no prefix state is not
   even weak SI.
3. Test the Definition 2.1 / 2.2 ordering constraints in one streaming
   pass that assigns each read-only transaction its smallest feasible
   candidate (:func:`_streaming_ordering`).

Completeness (Theorem 3.1) is one per-key induction along each
secondary's audit walk (:func:`_completeness`).  O(total writes) memory
and near-linear time, on plain, promoted and sharded histories alike.

``tests/txn/reference_checkers.py`` is a slow, state-materialising
reference for every history shape; ``tests/txn/test_reference_differential.py``
requires identical verdicts — violation kinds, messages, and order —
from both over fault-storm histories and seeded mutations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Iterator, Optional

from repro.core.sharding import shard_of
from repro.errors import CheckerError
from repro.txn.history import HistoryRecorder, TxnView
from repro.txn.timeline import IntervalSet, KeyTimelines

_MISSING = object()

#: The shard set of every transaction in an unsharded history: one
#: shard, which everything reads and writes.
_ONE_SHARD = (0,)


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


def _check_detail(recorder: HistoryRecorder) -> None:
    detail = getattr(recorder, "detail", "ops")
    if detail != "ops":
        raise CheckerError(
            f"history was recorded with detail={detail!r}: read/write "
            f"events are missing, so the SI checkers cannot run; record "
            f"with detail='ops' for checked runs")


@dataclass(slots=True)
class _Analyzed:
    """A committed client transaction with its inferred snapshot(s).

    For update transactions the snapshot is pinned (the engine's
    ``start_ts``); for read-only transactions the reads admit a *set* of
    candidate snapshot indices, expanded only on violation messages, and
    which one to assume is decided per criterion by
    :func:`_streaming_ordering` (choosing minimally, so no
    phantom constraints are invented for later transactions).
    """

    view: TxnView
    admissible: IntervalSet
    commit_index: Optional[int]  # state index its commit produced (updates)
    upper: int                   # commits before its begin
    era: int = 0                 # promotion era the txn began in
    #: Its (key, value, present) snapshot-read constraints — kept only
    #: in a sharded history, where the ordering pass derives the read
    #: shards from them (8 000 retained lists are a megabyte of peak RSS).
    constraints: Any = ()
    #: Filled in by the streaming ordering pass when it reaches the txn:
    #: the shards those reads touch (in a sharded history) and the
    #: snapshot it was assigned.
    read_shards: Any = _ONE_SHARD
    snapshot: Optional[int] = None

    @property
    def pinned(self) -> bool:
        """True when the snapshot is uniquely determined."""
        return self.commit_index is not None


def _read_constraints(view: TxnView) -> list[tuple[Any, Any, bool]]:
    """(key, value, present) constraints from first pre-own-write reads.

    A transaction that wrote nothing has no own-writes to skip, so its
    reads are walked as recorded, without a merge."""
    events = view.reads
    if not events:
        return []
    if view.writes:
        events = sorted(events + view.writes, key=attrgetter("seq"))
    constraints: list[tuple[Any, Any, bool]] = []
    seen: set[Any] = set()
    written: set[Any] = set()
    for event in events:
        key = event.key
        if event.kind == "write":
            written.add(key)
        elif key not in seen and key not in written:
            seen.add(key)
            constraints.append((key, event.value, event.producer is not None))
    return constraints


def _primary_updates(recorder: HistoryRecorder, primary_site: str,
                     dense: bool = True) -> list[TxnView]:
    """Committed primary update transactions in commit order, with the
    dense-timestamp sanity check (the SI analyses need it; the
    completeness audit of a plain history does not)."""
    updates = [v for v in recorder.committed(site=primary_site)
               if v.is_update]
    if dense:
        for index, view in enumerate(updates, start=1):
            if view.commit_ts is not None and view.commit_ts != index:
                raise CheckerError(
                    f"primary commit timestamps not dense: txn "
                    f"{view.logical_id or view.txn_id} has commit_ts "
                    f"{view.commit_ts}, expected {index}")
    return updates


@dataclass(frozen=True)
class _Era:
    """One primary regime delimited by promotion events.

    ``site`` is the primary from history sequence ``start_seq``
    (exclusive) onward; its timeline ("axis") inherits the first
    ``base_ts`` commits of the previous era's axis as a shared prefix —
    the states that survived the truncation.
    """

    index: int
    site: str
    start_seq: int
    base_ts: int


def _promotion_eras(recorder: HistoryRecorder,
                    primary_site: str) -> list[_Era]:
    """Split the history into eras at its promotion events (usually one
    era: a history without promotions has no clamps and no splices)."""
    eras = [_Era(0, primary_site, -1, 0)]
    for event in recorder.site_events():
        if event.kind == "promote":
            eras.append(_Era(len(eras), event.site, event.seq,
                             event.commit_ts or 0))
    return eras


def _era_axes(recorder: HistoryRecorder,
              eras: list[_Era]) -> list[list[TxnView]]:
    """Per-era primary timelines (the axes of comparison).

    Axis 0 is the original primary's committed update sequence; axis e
    splices the first ``base_ts`` commits of axis e-1 (the prefix that
    survived the promotion) with the new primary's own commits.  The
    promoted engine keeps the shared commit numbering, so each era's
    commits must be dense from its base.  Old-primary commits past the
    truncation point stay on axis 0 only: they were acknowledged but
    lost, and later eras must never observe them.
    """
    axes: list[list[TxnView]] = []
    for era in eras:
        commits = [v for v in recorder.committed(site=era.site)
                   if v.is_update and not v.is_refresh
                   and v.end_seq > era.start_seq]
        expected = era.base_ts
        for view in commits:
            expected += 1
            if view.commit_ts is not None and view.commit_ts != expected:
                raise CheckerError(
                    f"primary commit timestamps not dense in era "
                    f"{era.index}: txn {view.logical_id or view.txn_id} "
                    f"has commit_ts {view.commit_ts}, expected {expected}")
        if era.index == 0:
            axes.append(commits)
        else:
            prefix = axes[era.index - 1]
            if era.base_ts > len(prefix):
                raise CheckerError(
                    f"promotion base S^{era.base_ts} exceeds the previous "
                    f"primary's last state S^{len(prefix)}")
            axes.append(prefix[:era.base_ts] + commits)
    return axes


def _apply_writes(state: dict[Any, Any],
                  final_writes: dict[Any, tuple[Any, bool]]) -> None:
    for key, (value, deleted) in final_writes.items():
        if deleted:
            state.pop(key, None)
        else:
            state[key] = value


def _shared_prefix_bound(eras: list[_Era], from_era: int,
                         to_era: int) -> int:
    """Highest state index comparable between two eras' axes.

    The axes agree exactly on the commits below every intervening
    truncation point, so a freshness obligation carried from an earlier
    era clamps to the smallest base in between — beyond it the old
    regime's states no longer exist on the new axis.
    """
    return min(eras[e].base_ts for e in range(from_era + 1, to_era + 1))


def _subscriptions(recorder: HistoryRecorder
                   ) -> dict[str, tuple[frozenset, int]]:
    """site -> (subscribed shards, num_shards) from "subscribe" events.

    Subscription events exist only in partial-replication histories; a
    history without them is the one-shard case, in which every site
    holds everything.
    """
    subs: dict[str, tuple[frozenset, int]] = {}
    for event in recorder.site_events():
        if event.kind == "subscribe":
            subs[event.site] = (frozenset(event.value or ()),
                                event.commit_ts or 0)
    return subs


class _ShardMemo(dict):
    """key -> shard, hashed once per check (``shard_of`` is a
    ``crc32(repr(key))``; the passes ask for the same few hundred keys
    hundreds of thousands of times)."""

    def __init__(self, num_shards: int):
        self.num_shards = num_shards

    def __missing__(self, key: Any) -> int:
        shard = self[key] = shard_of(key, self.num_shards)
        return shard


class _HistoryAxes:
    """What every pass over one history shares, built once per check:
    its promotion eras, the per-era primary timelines (axes), the shard
    subscriptions and the key -> shard memo.

    An unsharded history is the one-shard case (:data:`_ONE_SHARD`) and
    a history without promotions the one-era case, so the ordering and
    completeness passes below have a single shape.
    """

    def __init__(self, recorder: HistoryRecorder, primary_site: str,
                 completeness: bool = False):
        _check_detail(recorder)
        self.recorder = recorder
        self.primary_site = primary_site
        self.eras = eras = _promotion_eras(recorder, primary_site)
        self.subs = subs = _subscriptions(recorder)
        self.num_shards: Optional[int] = (
            next(iter(subs.values()))[1] if subs else None)
        self.shard_of = _ShardMemo(self.num_shards or 1)
        if len(eras) > 1 or (completeness and subs):
            self.axes = _era_axes(recorder, eras)
        else:
            # The completeness audit of a plain history takes the
            # primary's numbering as recorded; the SI analyses refuse a
            # sparse one (they would mis-number states silently).
            self.axes = [_primary_updates(recorder, primary_site,
                                          dense=not completeness)]
        self._timelines: list[Optional[KeyTimelines]] = [None] * len(eras)
        self._shard_commits: Optional[list[dict]] = None
        self._sent: dict[frozenset, list[list[int]]] = {}

    def timelines(self, era: int) -> KeyTimelines:
        """Per-key change history of one axis (built on first use: a
        clean unsharded completeness audit never needs it)."""
        timelines = self._timelines[era]
        if timelines is None:
            timelines = self._timelines[era] = KeyTimelines()
            for view in self.axes[era]:
                timelines.append_commit(view.final_writes)
        return timelines

    def shards(self, keys: Iterable) -> frozenset:
        """The shard set a group of keys lives on (sharded histories)."""
        return frozenset(map(self.shard_of.__getitem__, keys))

    def write_shards(self, view: TxnView) -> Any:
        """Shards an update's write set touched."""
        if self.num_shards is None:
            return _ONE_SHARD
        return self.shards(view.final_writes)

    def shard_commits(self) -> list[dict]:
        """Per axis: shard -> ascending numbers of the commits touching
        it.  The projection of S^s onto a shard only changes at those
        commits, so one ``bisect`` answers both "what did a snapshot
        observe of this shard" and "which commit is this subscriber sent
        next"."""
        if self._shard_commits is None:
            if self.num_shards is None:
                self._shard_commits = [{0: range(1, len(axis) + 1)}
                                       for axis in self.axes]
            else:
                self._shard_commits = []
                for axis in self.axes:
                    per: dict[int, list[int]] = {}
                    for ts, view in enumerate(axis, start=1):
                        for shard in self.write_shards(view):
                            per.setdefault(shard, []).append(ts)
                    self._shard_commits.append(per)
        return self._shard_commits

    def _subscription(self, site: str) -> frozenset:
        full = frozenset(range(self.num_shards))
        return self.subs.get(site, (full,))[0]

    def partial_subscription(self, site: str) -> Optional[frozenset]:
        """The shard set ``site`` subscribes to, or ``None`` when it
        holds every key (always, in an unsharded history)."""
        if self.num_shards is None:
            return None
        subscription = self._subscription(site)
        return None if len(subscription) >= self.num_shards else subscription

    def commits_sent_to(self, site: str) -> Optional[list[list[int]]]:
        """Per axis, the ascending numbers of the commits ``site`` is
        sent — those touching a shard it subscribes to — or ``None`` in
        an unsharded history (every commit, whatever the axis holds)."""
        if self.num_shards is None:
            return None
        subscription = self._subscription(site)
        sent = self._sent.get(subscription)
        if sent is None:
            sent = self._sent[subscription] = [
                sorted(set().union(*(touching.get(shard, ())
                                     for shard in subscription)))
                for touching in self.shard_commits()]
        return sent

    def projected_state(self, era: int, index: int,
                        held: Optional[frozenset]) -> dict[Any, Any]:
        """``S^index`` of one axis restricted to the keys on ``held``
        shards (everything when ``held`` is None), materialised."""
        state = self.timelines(era).state_at(index)
        if held is None:
            return state
        shard_of = self.shard_of
        return {key: value for key, value in state.items()
                if shard_of[key] in held}


class _Analysis(_HistoryAxes):
    """Shared preprocessing of the SI checkers: infer, for every
    committed client transaction, the primary snapshots its reads are
    consistent with.  Only :meth:`_pinned_satisfied` and
    :meth:`_candidates` consult the axis states, through each axis'
    :class:`KeyTimelines`; the test-only reference overrides just those
    two with materialised states."""

    def __init__(self, recorder: HistoryRecorder, primary_site: str):
        super().__init__(recorder, primary_site)
        self.axis_commit_seqs = [[v.end_seq for v in axis]
                                 for axis in self.axes]
        self.client_views = recorder.client_transactions()
        self.axis_timelines = [self.timelines(era.index)
                               for era in self.eras]

    def commits_before(self, era: int, seq: int) -> int:
        """Number of era-axis commits whose commit precedes ``seq``."""
        return bisect_left(self.axis_commit_seqs[era], seq)

    def analyze(self) -> tuple[list[_Analyzed], list[Violation]]:
        """Infer candidate snapshots for all committed client txns,
        listed in begin order."""
        analyzed: list[_Analyzed] = []
        violations: list[Violation] = []
        eras = self.eras
        era_starts = [era.start_seq for era in eras]
        sharded = self.num_shards is not None
        for view in sorted(self.client_views, key=attrgetter("begin_seq")):
            # The era the transaction began in: the last one started
            # before its first operation.
            era = bisect_left(era_starts, view.begin_seq, 1) - 1
            upper = self.commits_before(era, view.begin_seq)
            constraints = _read_constraints(view)
            if view.site == eras[era].site and view.is_update:
                snapshot = view.start_ts or 0
                if not self._pinned_satisfied(era, snapshot, constraints):
                    violations.append(Violation(
                        kind="inconsistent-update-read",
                        message=(f"update txn {view.logical_id or view.txn_id}"
                                 f" reads do not match primary state "
                                 f"S^{snapshot}"),
                        txns=(view.key,)))
                    continue
                analyzed.append(_Analyzed(
                    view, IntervalSet(((snapshot, snapshot),)),
                    view.commit_ts, upper, era,
                    constraints if sharded else ()))
                continue
            admissible = self._candidates(era, constraints, upper)
            if not admissible:
                candidates = self._candidates(era, constraints,
                                              len(self.axes[era]))
                if candidates:
                    message = (
                        f"txn {view.logical_id or view.txn_id} saw a state "
                        f"(index in {candidates.to_list()}) newer than "
                        f"any committed before it began (<= {upper})")
                    kind = "future-snapshot"
                else:
                    message = (
                        f"txn {view.logical_id or view.txn_id} reads match "
                        f"no transaction-consistent primary state")
                    kind = "no-consistent-snapshot"
                violations.append(Violation(kind=kind, message=message,
                                            txns=(view.key,)))
                continue
            analyzed.append(_Analyzed(view, admissible, None, upper, era,
                                      constraints if sharded else ()))
        return analyzed, violations

    def _pinned_satisfied(self, era: int, snapshot: int,
                          constraints: list[tuple[Any, Any, bool]]) -> bool:
        """Do the reads hold in ``S^snapshot`` of the era's axis?"""
        timelines = self.axis_timelines[era]
        if snapshot > timelines.num_commits:
            return False
        value_at = timelines.value_at
        for key, value, present in constraints:
            actual_present, actual = value_at(key, snapshot)
            if present:
                if not actual_present or actual != value:
                    return False
            elif actual_present:
                return False
        return True

    def _candidates(self, era: int, constraints: list[tuple[Any, Any, bool]],
                    upper: int) -> IntervalSet:
        """The era-axis states no newer than ``upper`` that satisfy every
        read constraint: ``[0, upper]`` intersected with each
        constraint's admissible intervals."""
        timelines = self.axis_timelines[era]
        candidates = IntervalSet.full(min(upper, timelines.num_commits))
        intervals_for = timelines.intervals_for
        for key, value, present in constraints:
            if not candidates:
                break       # intersection can only shrink further
            candidates = candidates.intersect(
                intervals_for(key, value, present))
        return candidates


def check_weak_si(recorder: HistoryRecorder,
                  primary_site: str = "primary") -> CheckResult:
    """Global weak SI (Theorem 3.2): every committed client transaction
    observed *some* transaction-consistent primary snapshot no newer than
    its begin."""
    analysis = _Analysis(recorder, primary_site)
    analyzed, violations = analysis.analyze()
    return CheckResult(criterion="weak SI", ok=not violations,
                       violations=violations,
                       checked_transactions=len(analysis.client_views))


def _inversion_violation(tj: _Analyzed, snapshot: int, lower: int,
                         lower_source: _Analyzed,
                         same_session_only: bool) -> Violation:
    scope = " in the same session" if same_session_only else ""
    source = (lower_source.view.logical_id
              or lower_source.view.txn_id)
    return Violation(
        kind="transaction-inversion",
        message=(
            f"txn {tj.view.logical_id or tj.view.txn_id} saw "
            f"state S^{snapshot} (candidates {tj.admissible.to_list()}) but "
            f"{source} (committed earlier{scope}) requires at "
            f"least S^{lower}"),
        txns=(lower_source.view.key, tj.view.key))


def _streaming_ordering(analyzed: list[_Analyzed], same_session_only: bool,
                        history: _HistoryAxes) -> list[Violation]:
    """Definition 2.1/2.2 pair constraints in one streaming pass.

    A history satisfies the criterion iff *some* assignment of snapshot
    indices (within each transaction's candidate set) satisfies every
    ordering constraint.  All constraints are lower bounds that propagate
    forward in begin order, so assigning each read-only transaction the
    **smallest** feasible candidate is optimal: it can only relax the
    constraints on later transactions.  (A greedy *maximum* assignment is
    wrong — it invents phantom freshness obligations for later reads of
    the same session.)

    Processing transactions in begin order, every Ti that constrains Tj
    satisfies ``Ti.end_seq < Tj.begin_seq`` — so a single pointer over
    the transactions sorted by end_seq admits each Ti exactly once into
    a pool of running maxima (one pool globally, or one per session
    label), and Tj's lower bound is read off its pool.

    With per-shard propagation streams a replica's freshness is a vector
    of shard frontiers, and the guarantee weakens accordingly (NMSI): a
    read observing shards R inherits from an earlier Ti only the
    obligations Ti left *on the shards in R*.  Each transaction
    therefore publishes a per-shard obligation vector — an update pins
    its commit number on the shards its write set touched; a read-only
    transaction assigned snapshot ``s`` pins, for each shard it read,
    the newest axis commit <= ``s`` touching that shard (the projection
    of S^s onto a shard only changes at commits touching it, so that
    floor is exactly what the reader observed).  Every obligation is
    the number of a commit touching the shard, so ``snapshot >=
    obligation`` is both necessary and sufficient for the projected
    states to be ordered.  A pool keeps ``shard -> max obligation`` per
    era of the admitted transaction: an obligation carried into a later
    era clamps to the shared prefix of the two axes
    (:func:`_shared_prefix_bound` — beyond the truncation point the old
    regime's tail no longer exists), and because the clamp depends only
    on the era pair, clamping the per-era maximum equals the maximum of
    the clamped obligations.  An unsharded history is the one-shard
    case and a history without promotions has no clamps; when both
    hold, a pool is a single running maximum.

    The running maxima do not remember *which* Ti set them.  The
    violation message names the earliest-begun Ti reaching the bound
    (an all-pairs loop's tie-break), so that Ti is found by a pair scan
    on the violation path only, for that one Tj.
    """
    eras = history.eras
    sharded = history.num_shards is not None
    shard_commits = history.shard_commits()

    def obligations(ti: _Analyzed) -> dict[int, int]:
        """What ``ti`` obliges a later reader of each shard to have seen."""
        if ti.pinned:
            return dict.fromkeys(history.write_shards(ti.view),
                                 ti.commit_index)
        snapshot = ti.snapshot
        touching = shard_commits[ti.era]
        vector: dict[int, int] = {}
        for shard in ti.read_shards:
            commits = touching.get(shard)
            if commits:
                pos = bisect_right(commits, snapshot)
                if pos:
                    vector[shard] = commits[pos - 1]
        return vector

    def bound_on(tj: _Analyzed, vector: dict[int, int], era: int) -> int:
        """Lower bound an era-``era`` obligation vector puts on ``tj``."""
        bound = 0
        for shard in tj.read_shards:
            ts = vector.get(shard, 0)
            if ts > bound:
                bound = ts
        if era != tj.era:
            bound = min(bound, _shared_prefix_bound(eras, era, tj.era))
        return bound

    violations: list[Violation] = []
    ordered = analyzed          # analyze() lists them in begin order
    by_end = sorted(analyzed, key=attrgetter("view.end_seq"))
    # One shard and one era: an obligation is the scalar ``obligations``
    # would put on shard 0 — an update's commit number, a reader's
    # snapshot — and a pool is one running maximum per label.
    scalar = not sharded and len(eras) == 1
    #: pool label -> max obligation admitted so far, or else
    #: pool label -> era -> shard -> max obligation.
    pools: Any = {} if scalar else defaultdict(lambda: defaultdict(dict))
    admit_pos = 0
    for tj in ordered:
        begin = tj.view.begin_seq
        while admit_pos < len(by_end) and \
                by_end[admit_pos].view.end_seq < begin:
            ti = by_end[admit_pos]
            admit_pos += 1
            label = ti.view.session if same_session_only else None
            if ti.snapshot is None or (same_session_only and label is None):
                continue   # (an end before its own begin cannot occur)
            if scalar:
                ts = ti.snapshot if ti.commit_index is None \
                    else ti.commit_index
                if ts > pools.get(label, 0):
                    pools[label] = ts
                continue
            maxima = pools[label][ti.era]
            for shard, ts in obligations(ti).items():
                if ts > maxima.get(shard, 0):
                    maxima[shard] = ts
        if sharded:
            # Only reads that precede an own write of the same key
            # constrain the snapshot, so only those keys' shards carry
            # obligations.
            tj.read_shards = history.shards(
                map(itemgetter(0), tj.constraints))
        label = tj.view.session if same_session_only else None
        if scalar:
            lower = pools.get(label, 0)
        else:
            lower = 0
            for era, maxima in pools.get(label, {}).items():
                bound = bound_on(tj, maxima, era)
                if bound > lower:
                    lower = bound
        if tj.pinned:
            snapshot = tj.admissible.min()
            feasible = snapshot >= lower
        else:
            option = tj.admissible.first_at_least(lower)
            feasible = option is not None
            snapshot = option if feasible else tj.admissible.max()
        tj.snapshot = snapshot
        if not feasible:
            source = next(
                ti for ti in ordered
                if 0 <= ti.view.end_seq < begin
                and (ti.view.session == label or not same_session_only)
                and bound_on(tj, obligations(ti), ti.era) == lower)
            violations.append(_inversion_violation(
                tj, snapshot, lower, source, same_session_only))
    return violations


def _check_ordering(recorder: HistoryRecorder, primary_site: str,
                    same_session_only: bool, criterion: str) -> CheckResult:
    analysis = _Analysis(recorder, primary_site)
    analyzed, violations = analysis.analyze()
    violations.extend(_streaming_ordering(analyzed, same_session_only,
                                          analysis))
    return CheckResult(criterion=criterion, ok=not violations,
                       violations=violations,
                       checked_transactions=len(analysis.client_views))


def check_strong_si(recorder: HistoryRecorder,
                    primary_site: str = "primary") -> CheckResult:
    """Strong SI (Definition 2.1): weak SI plus no transaction inversions
    between *any* pair of committed transactions."""
    return _check_ordering(recorder, primary_site, False, "strong SI")


def check_strong_session_si(recorder: HistoryRecorder,
                            primary_site: str = "primary") -> CheckResult:
    """Strong session SI (Definition 2.2): weak SI plus no transaction
    inversions between pairs with the same session label."""
    return _check_ordering(recorder, primary_site, True, "strong session SI")


def count_transaction_inversions(recorder: HistoryRecorder,
                                 primary_site: str = "primary",
                                 within_sessions: bool = True) -> int:
    """Count inverted transactions (for demonstrating weak SI's staleness).

    Returns the number of transactions Tj that began after some Ti
    committed — a Ti of the same session when ``within_sessions`` — yet
    observed an older state than Ti installed (or saw).  Each such Tj
    counts once, however many earlier transactions it falls behind.
    """
    analysis = _Analysis(recorder, primary_site)
    analyzed, _ = analysis.analyze()
    return len(_streaming_ordering(analyzed, within_sessions, analysis))


def _secondary_timeline(recorder: HistoryRecorder,
                        site: str) -> list[tuple[int, str, Any]]:
    """Committed refresh transactions interleaved with recovery jumps at
    ``site``, in history order."""
    timeline: list[tuple[int, str, Any]] = []
    for view in recorder.committed(site=site):
        if view.is_update:
            timeline.append((view.end_seq, "commit", view))
    for event in recorder.site_events():
        if event.kind == "recover" and event.site == site:
            timeline.append((event.seq, "recover", event))
    timeline.sort(key=lambda entry: entry[0])
    return timeline


def _commit_number(view: TxnView) -> int:
    return view.commit_ts if view.commit_ts is not None else -1


def _site_walk(history: _HistoryAxes,
               site: str) -> Iterator[tuple[str, Any, int, int]]:
    """``(what, item, index, era)`` for each timeline item of ``site``
    the completeness audit visits, in the order it visits them: a
    recovery copy or a refresh commit, the number of the primary state
    it claims to produce, and the era it committed in.

    With ``parallel_refresh`` a secondary commits refresh transactions out
    of primary order; only the contiguous watermark prefix ever becomes
    externally visible (``seq(DBsec)`` advances at watermark boundaries),
    and commits applied above the watermark are truncated by a crash or an
    epoch fence.  The audit therefore verifies each *run* — the stretch
    between recovery jumps and promotion fences — in commit-number order,
    and stops a run at the first gap in the numbering: commits past a gap
    never joined a visible snapshot (the watermark cannot pass the gap)
    and were discarded by whatever ended the run, so replaying them would
    audit a state the replica never served.  Strict-FIFO histories have
    dense, in-order runs, so this normalisation is the identity there.

    A subscribing secondary is sent only the commits whose write sets
    touch its shards, so the numbering it must follow without a gap is
    that *subsequence* of the axis: a skipped commit is legitimate
    exactly when it touches no subscribed shard.  A commit that should
    never have arrived is deliberately kept in the walk, so the state
    comparison flags it.  A promoted site is audited as a secondary only
    up to its promotion; afterwards its own commits *define* the axis.
    """
    eras = history.eras
    # Fences bound the runs, so a run lies within one era — and on one
    # side of the site's own promotion, if it has one.
    promoted_in = max((era.index for era in eras[1:] if era.site == site),
                      default=len(eras))
    runs: list[tuple[int, list[tuple[int, str, Any]]]] = [(0, [])]
    era = 0
    for entry in _secondary_timeline(history.recorder, site):
        while era + 1 < len(eras) and entry[0] > eras[era + 1].start_seq:
            era += 1
            runs.append((era, []))
        if entry[1] == "recover":
            runs.append((era, []))
        runs[-1][1].append(entry)
    sent = history.commits_sent_to(site)
    prev = 0
    for era, run in runs:
        if era >= promoted_in:
            return
        if run and run[0][1] == "recover":
            prev = run[0][2].commit_ts or 0
            yield "recover", run[0][2], prev, era
            run = run[1:]
        for view in sorted((entry[2] for entry in run), key=_commit_number):
            ts = _commit_number(view)
            if sent is None:
                due = prev + 1
            else:
                pos = bisect_right(sent[era], prev)
                due = sent[era][pos] if pos < len(sent[era]) else None
            if due is not None and ts > due:
                break          # gap: the truncated tail was never visible
            yield "commit", view, ts, era
            if ts == due:
                prev = ts


def _verbatim(mine: list, theirs: list) -> bool:
    """True when a refresh's write events replay the primary commit's
    exactly: same keys, values and delete flags, in the same order."""
    if len(mine) != len(theirs):
        return False
    for a, b in zip(mine, theirs):
        if a.key != b.key or a.value != b.value or a.deleted != b.deleted:
            return False
    return True


def _refresh_diverges(history: _HistoryAxes, held: Optional[frozenset],
                      at_era: int, at: int, era: int, index: int,
                      final_writes: dict[Any, tuple[Any, bool]]) -> bool:
    """One step of the completeness induction: does applying
    ``final_writes`` to the (projected) state ``S^at`` of axis ``at_era``
    fail to produce the (projected) ``S^index`` of axis ``era``?

    The two states agree on every key outside the refresh's own writes
    and the axis writes above their common ancestor — the smaller index
    on one axis, clamped to the shared prefix across an era boundary —
    so only those keys are looked up.  ``held`` is the site's shard set
    when it subscribes to part of the keyspace: a key on an unsubscribed
    shard must be absent, whatever the primary holds.
    """
    before, after = history.timelines(at_era), history.timelines(era)
    common = min(at, index)
    if at_era != era:
        common = min(common, _shared_prefix_bound(history.eras, at_era, era))
    suspects = set(final_writes)
    for i in range(common + 1, at + 1):
        suspects.update(before.write_keys[i])
    for i in range(common + 1, index + 1):
        suspects.update(after.write_keys[i])
    shard_of = history.shard_of
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


def _completeness(history: _HistoryAxes) -> CheckResult:
    """Theorem 3.1 as one per-key induction per site.

    Invariant: before each item of a site's audit walk
    (:func:`_site_walk`) the site's state *is* the primary state
    ``S^at`` of axis ``at_era``, projected onto the site's subscription
    (verified inductively) — so that state never needs to be
    materialised or maintained.  A refresh commit to ``S^index`` is
    verified on the keys that can differ (:func:`_refresh_diverges`);
    the axis is the one of the era the item committed in, so a replica
    that carried the old primary's truncated tail across a promotion is
    flagged as divergent, not excused.  The induction restarts at a
    recovery copy — Section 3.4's one legitimate discontinuity — which
    is compared in full against the projected ``S^ts`` it claims to be.
    Apart from that, full states are materialised only to render a
    divergence message.

    Fast path: an in-order refresh (``index == at + 1``) at a site
    holding every key, whose write events replay the primary commit's
    write events verbatim — same keys, values and delete flags in the
    same order — needs no per-key verification at all: the state was
    ``S^at`` by the induction hypothesis and the exact primary writes
    take it to ``S^index`` by construction.  This is the overwhelmingly
    common case, and it touches nothing but the raw write events, so on
    a clean unsharded history the :class:`KeyTimelines` index is never
    even built.
    """
    violations: list[Violation] = []
    checked = 0
    for site in history.recorder.sites():
        if site == history.primary_site:
            continue
        held = history.partial_subscription(site)
        at_era = at = 0
        for what, item, index, era in _site_walk(history, site):
            checked += 1
            axis = history.axes[era]
            if not 0 <= index <= len(axis):
                violations.append(Violation(
                    kind="secondary-ahead",
                    message=(f"site {site!r} produced state S^{index}, but "
                             f"the primary only reached S^{len(axis)}")))
                break
            if what == "recover":
                diverged = (dict(item.value or {})
                            != history.projected_state(era, index, held))
            elif (held is None and era == at_era and index == at + 1
                  and _verbatim(item.writes, axis[at].writes)):
                diverged = False        # fast path
            else:
                diverged = _refresh_diverges(history, held, at_era, at,
                                             era, index, item.final_writes)
            if diverged:
                # Render the state the site held by replaying its walk.
                current: dict[Any, Any] = {}
                for seen, earlier, _index, _era in _site_walk(history, site):
                    if seen == "recover":
                        current = dict(earlier.value or {})
                    else:
                        _apply_writes(current, earlier.final_writes)
                    if earlier is item:
                        break
                label = "recovery copy" if what == "recover" else "state"
                expected = history.projected_state(era, index, held)
                violations.append(Violation(
                    kind="state-divergence",
                    message=(f"site {site!r} {label} S^{index} diverges "
                             f"from primary: {current!r} != {expected!r}")))
                break
            at_era, at = era, index
    return CheckResult(criterion="completeness", ok=not violations,
                       violations=violations,
                       checked_transactions=checked)


def check_completeness(recorder: HistoryRecorder,
                       primary_site: str = "primary") -> CheckResult:
    """Theorem 3.1: every state a secondary produces is a primary state.

    Refresh commits at a secondary mirror primary commit numbering, so
    each committed refresh must leave the secondary in exactly the
    primary state of the same number.  Section 3.4 recovery is the one
    legitimate discontinuity: the site *jumps* to a quiesced copy of the
    primary instead of replaying the commits it missed.  Such jumps are
    recorded in the history (with the copy itself), so the checker
    verifies that the copy equals the primary state it claims to be,
    then resumes tracking from there — a recovery handed a corrupt or
    mistimed copy is flagged, not trusted.

    Histories from dependency-tracked parallel refresh commit out of
    primary order at the secondaries; see :func:`_site_walk` for how the
    audit re-orders each run by commit number (the watermark invariant
    guarantees only such prefixes were ever visible) while remaining
    byte-identical on strict-FIFO histories.  Under partial replication
    (histories with "subscribe" events) each secondary is audited
    against the sub-history projected onto its subscription, and across
    promotions against the axis of the era each item committed in.
    """
    return _completeness(_HistoryAxes(recorder, primary_site,
                                      completeness=True))
