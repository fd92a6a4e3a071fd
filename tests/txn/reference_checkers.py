"""Reference checkers: slow, obviously right, and independent of the
per-key timelines, for every history shape.

``src/repro/txn/checkers.py`` replays the history once through a
monitor: per-key timelines for snapshot inference, running maxima for
ordering and a per-key induction per replica for completeness.  The
reference here does each the direct way, over the recorder's aggregated
transaction views and with its own copy of the preprocessing (eras,
axes, subscriptions, read constraints):

* snapshot inference tests every read against every materialised prefix
  state ``S^0..S^n`` of its era's axis (:func:`_analyse`);
* ordering is an explicit O(n²) pair scan — per promotion era, or per
  shard obligation vector under partial replication — and a plain
  history is its one-era case;
* completeness replays each secondary's walk and compares full
  (projected) states against the materialised axis states.

It imports only the public names of ``repro.txn.checkers``.
``tests/txn/test_reference_differential.py`` and
``tests/txn/test_incremental_checkers.py`` require
``(ok, checked_transactions, [(kind, message, txns)])`` equality between
it and the production checkers over hand-built histories, seeded chaos
corpora and seeded history mutations.  The next independent oracle (the
axiomatic one of ROADMAP item 1) is validated against the same module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.records import key_fingerprint
from repro.errors import CheckerError
from repro.txn.checkers import (
    CheckResult,
    Violation,
    check_completeness,
    check_strong_session_si,
    check_strong_si,
    check_weak_si,
    count_transaction_inversions,
)
from repro.txn.history import HistoryRecorder, TxnView
from repro.txn.timeline import IntervalSet


# ---------------------------------------------------------------------------
# Preprocessing: eras, axes, subscriptions, read constraints
# ---------------------------------------------------------------------------

def _check_detail(recorder: HistoryRecorder) -> None:
    detail = getattr(recorder, "detail", "ops")
    if detail != "ops":
        raise CheckerError(
            f"history was recorded with detail={detail!r}: read/write "
            f"events are missing, so the SI checkers cannot run; record "
            f"with detail='ops' for checked runs")


@dataclass(frozen=True)
class _Era:
    """A primary regime: ``site`` is the primary after history sequence
    ``start_seq``, and its axis inherits the previous axis' first
    ``base_ts`` commits."""

    index: int
    site: str
    start_seq: int
    base_ts: int


def _promotion_eras(recorder: HistoryRecorder,
                    primary_site: str) -> list[_Era]:
    eras = [_Era(0, primary_site, -1, 0)]
    for event in recorder.site_events():
        if event.kind == "promote":
            eras.append(_Era(len(eras), event.site, event.seq,
                             event.commit_ts or 0))
    return eras


def _subscriptions(recorder: HistoryRecorder
                   ) -> dict[str, tuple[frozenset, int]]:
    """site -> (subscribed shards, num_shards) from "subscribe" events."""
    subs: dict[str, tuple[frozenset, int]] = {}
    for event in recorder.site_events():
        if event.kind == "subscribe":
            subs[event.site] = (frozenset(event.value or ()),
                                event.commit_ts or 0)
    return subs


def _era_axes(recorder: HistoryRecorder, eras: list[_Era], dense: bool,
              named: bool) -> list[list[TxnView]]:
    """Per-era primary timelines: axis 0 is the original primary's
    committed non-refresh updates, axis e the first ``base_ts`` commits
    of axis e-1 followed by the new primary's own.  ``dense`` refuses
    commit timestamps that do not number the axis densely, in a message
    that names the era when ``named``."""
    axes: list[list[TxnView]] = []
    for era in eras:
        commits = [v for v in recorder.committed(site=era.site)
                   if v.is_update and not v.is_refresh
                   and v.end_seq > era.start_seq]
        if dense:
            where = f" in era {era.index}" if named else ""
            for expected, view in enumerate(commits, start=era.base_ts + 1):
                if view.commit_ts is not None and view.commit_ts != expected:
                    raise CheckerError(
                        f"primary commit timestamps not dense{where}: txn "
                        f"{view.logical_id or view.txn_id} has commit_ts "
                        f"{view.commit_ts}, expected {expected}")
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


def _shared_prefix_bound(eras: list[_Era], from_era: int,
                         to_era: int) -> int:
    """The smallest truncation point between two eras: the highest state
    their axes share."""
    return min(eras[e].base_ts for e in range(from_era + 1, to_era + 1))


def _read_constraints(view: TxnView) -> list[tuple[Any, Any, bool]]:
    """(key, value, present) of the first reads before an own write."""
    constraints: list[tuple[Any, Any, bool]] = []
    seen: set[Any] = set()
    for event in sorted(view.reads + view.writes, key=lambda e: e.seq):
        if event.key in seen:
            continue
        seen.add(event.key)
        if event.kind == "read":
            constraints.append((event.key, event.value,
                                event.producer is not None))
    return constraints


def _materialise_states(axis: list[TxnView]) -> list[dict[Any, Any]]:
    """``S^0..S^n`` of one axis as full dicts, replayed from its commits."""
    states: list[dict[Any, Any]] = [{}]
    current: dict[Any, Any] = {}
    for view in axis:
        for key, (value, deleted) in view.final_writes.items():
            if deleted:
                current.pop(key, None)
            else:
                current[key] = value
        states.append(dict(current))
    return states


def _satisfied(state: dict[Any, Any],
               constraints: list[tuple[Any, Any, bool]]) -> bool:
    """Do ``(key, value, present)`` read constraints hold in ``state``?"""
    for key, value, present in constraints:
        if present:
            if key not in state or state[key] != value:
                return False
        elif key in state:
            return False
    return True


# ---------------------------------------------------------------------------
# Snapshot inference against materialised states
# ---------------------------------------------------------------------------

@dataclass
class _Analyzed:
    """A committed client transaction with its candidate snapshots (one
    pinned snapshot for an update at its era's primary)."""

    view: TxnView
    admissible: IntervalSet
    commit_index: Optional[int]
    era: int

    @property
    def pinned(self) -> bool:
        return self.commit_index is not None


@dataclass
class _Analysis:
    eras: list[_Era]
    axes: list[list[TxnView]]
    subs: dict[str, tuple[frozenset, int]]
    analyzed: list[_Analyzed]
    violations: list[Violation]
    checked: int


def _analyse(recorder: HistoryRecorder, primary_site: str) -> _Analysis:
    """Test every committed client transaction's reads against every
    materialised state of its era's axis, in begin order."""
    _check_detail(recorder)
    eras = _promotion_eras(recorder, primary_site)
    axes = _era_axes(recorder, eras, dense=True, named=len(eras) > 1)
    axis_states = [_materialise_states(axis) for axis in axes]
    axis_seqs = [[view.end_seq for view in axis] for axis in axes]
    client_views = recorder.client_transactions()
    analyzed: list[_Analyzed] = []
    violations: list[Violation] = []
    for view in sorted(client_views, key=lambda v: v.begin_seq):
        era = _era_of(eras, view.begin_seq)
        states = axis_states[era]
        upper = bisect_left(axis_seqs[era], view.begin_seq)
        constraints = _read_constraints(view)
        name = view.logical_id or view.txn_id
        if view.site == eras[era].site and view.is_update:
            snapshot = view.start_ts or 0
            if snapshot < len(states) and _satisfied(states[snapshot],
                                                     constraints):
                analyzed.append(_Analyzed(
                    view, IntervalSet(((snapshot, snapshot),)),
                    view.commit_ts, era))
            else:
                violations.append(Violation(
                    kind="inconsistent-update-read",
                    message=(f"update txn {name} reads do not match "
                             f"primary state S^{snapshot}"),
                    txns=(view.key,)))
            continue
        matching = [i for i, state in enumerate(states)
                    if _satisfied(state, constraints)]
        admissible = IntervalSet((i, i) for i in matching if i <= upper)
        if admissible:
            analyzed.append(_Analyzed(view, admissible, None, era))
        elif matching:
            violations.append(Violation(
                kind="future-snapshot",
                message=(f"txn {name} saw a state (index in {matching}) "
                         f"newer than any committed before it began "
                         f"(<= {upper})"),
                txns=(view.key,)))
        else:
            violations.append(Violation(
                kind="no-consistent-snapshot",
                message=(f"txn {name} reads match no "
                         f"transaction-consistent primary state"),
                txns=(view.key,)))
    return _Analysis(eras, axes, _subscriptions(recorder), analyzed,
                     violations, len(client_views))


def _inversion_violation(tj: _Analyzed, snapshot: int, lower: int,
                         source: _Analyzed,
                         same_session_only: bool) -> Violation:
    scope = " in the same session" if same_session_only else ""
    return Violation(
        kind="transaction-inversion",
        message=(
            f"txn {tj.view.logical_id or tj.view.txn_id} saw state "
            f"S^{snapshot} (candidates {tj.admissible.to_list()}) but "
            f"{source.view.logical_id or source.view.txn_id} (committed "
            f"earlier{scope}) requires at least S^{lower}"),
        txns=(source.view.key, tj.view.key))


def _secondary_timeline(recorder: HistoryRecorder,
                        site: str) -> list[tuple[int, str, Any]]:
    """Committed update transactions interleaved with recovery jumps at
    ``site``, in history order."""
    timeline: list[tuple[int, str, Any]] = [
        (view.end_seq, "commit", view)
        for view in recorder.committed(site=site) if view.is_update]
    timeline.extend((event.seq, "recover", event)
                    for event in recorder.site_events()
                    if event.kind == "recover" and event.site == site)
    timeline.sort(key=lambda entry: entry[0])
    return timeline


def _era_of(eras: list[_Era], seq: int) -> int:
    """Index of the era a history sequence number falls in."""
    era = 0
    for candidate in eras[1:]:
        if candidate.start_seq < seq:
            era = candidate.index
        else:
            break
    return era


def _project(state: dict[Any, Any], subscription: frozenset,
             num_shards: int) -> dict[Any, Any]:
    """``state`` restricted to the keys living on subscribed shards."""
    return {key: value for key, value in state.items()
            if key_fingerprint(key) % num_shards in subscription}


def _read_shard_set(view: TxnView, num_shards: int) -> frozenset:
    """Shards touched by the transaction's snapshot reads.

    Mirrors :func:`_read_constraints`' event walk: only reads that
    precede an own write of the same key constrain the snapshot, so only
    those keys' shards carry freshness obligations.
    """
    shards: set[int] = set()
    written: set[Any] = set()
    events = sorted(view.reads + view.writes, key=lambda e: e.seq)
    for event in events:
        if event.kind == "write":
            written.add(event.key)
        elif event.key not in written:
            shards.add(key_fingerprint(event.key) % num_shards)
    return frozenset(shards)


def _era_ordering_violations(analyzed: list[_Analyzed],
                             same_session_only: bool,
                             eras: list[_Era]) -> list[Violation]:
    """Definition 2.1/2.2 pair constraints, as constraint satisfaction.

    A history satisfies the criterion iff *some* assignment of snapshot
    indices (within each transaction's candidate set) satisfies every
    ordering constraint; assigning each read-only transaction the
    smallest feasible candidate is optimal, because every constraint is
    a lower bound propagating forward in begin order.  A constraint
    carried from an earlier era is clamped to the shared prefix of the
    two transactions' axes (:func:`_shared_prefix_bound`): beyond the
    truncation point the axes are incomparable — the old regime's tail
    was discarded — so the only freshness obligation that survives a
    promotion is "at least the surviving prefix state".  A plain history
    is the one-era case, with no clamps.
    """
    violations: list[Violation] = []
    ordered = sorted(analyzed, key=lambda a: a.view.begin_seq)
    assigned: dict[tuple, int] = {}
    for j, tj in enumerate(ordered):
        lower = 0
        lower_source = None
        for ti in ordered[:j]:
            if ti.view.end_seq < 0:
                continue
            if ti.view.end_seq >= tj.view.begin_seq:
                continue
            if same_session_only and (
                    ti.view.session is None
                    or ti.view.session != tj.view.session):
                continue
            effective = (ti.commit_index if ti.pinned
                         else assigned[ti.view.key])
            if ti.era != tj.era:
                effective = min(
                    effective, _shared_prefix_bound(eras, ti.era, tj.era))
            if effective > lower:
                lower = effective
                lower_source = ti
        if tj.pinned:
            snapshot = tj.admissible.min()
            assigned[tj.view.key] = snapshot
            feasible = snapshot >= lower
        else:
            option = tj.admissible.first_at_least(lower)
            feasible = option is not None
            snapshot = option if feasible else tj.admissible.max()
            assigned[tj.view.key] = snapshot
        if not feasible:
            violations.append(_inversion_violation(
                tj, snapshot, lower, lower_source, same_session_only))
    return violations


def _sharded_ordering_violations(analyzed: list[_Analyzed],
                                 same_session_only: bool,
                                 eras: list[_Era],
                                 axes: list[list[TxnView]],
                                 num_shards: int) -> list[Violation]:
    """Definition 2.1/2.2 pair constraints under partial replication.

    With per-shard propagation streams a replica's freshness is a vector
    of shard frontiers, and the session guarantee weakens accordingly: a
    read observing shards R inherits from an earlier transaction Ti only
    the obligations Ti left *on the shards in R*.  Each transaction
    therefore publishes a per-shard obligation vector instead of a
    scalar — an update pins commit_ts on the shards its write set
    touched; a read-only transaction assigned snapshot ``s`` pins, for
    each shard it read, the newest axis commit <= ``s`` touching that
    shard (the projection of S^s onto a shard only changes at commits
    touching it, so that floor is exactly what the session observed).
    Every obligation is the timestamp of a commit touching the shard, so
    requiring ``snapshot >= obligation`` is both necessary and
    sufficient for the projected states to be ordered.  Cross-era
    obligations clamp to the shared axis prefix exactly as in
    :func:`_era_ordering_violations`.
    """
    axis_shard_commits: list[dict[int, list[int]]] = []
    for axis in axes:
        per: dict[int, list[int]] = {}
        for ts, view in enumerate(axis, start=1):
            for shard in {key_fingerprint(key) % num_shards
                          for key in view.final_writes}:
                per.setdefault(shard, []).append(ts)
        axis_shard_commits.append(per)

    def shard_floor(era: int, shard: int, snapshot: int) -> int:
        commits = axis_shard_commits[era].get(shard)
        if not commits:
            return 0
        pos = bisect_right(commits, snapshot)
        return commits[pos - 1] if pos else 0

    violations: list[Violation] = []
    ordered = sorted(analyzed, key=lambda a: a.view.begin_seq)
    obligations: dict[tuple, dict[int, int]] = {}
    for j, tj in enumerate(ordered):
        read_shards = _read_shard_set(tj.view, num_shards)
        lower = 0
        lower_source = None
        for ti in ordered[:j]:
            if ti.view.end_seq < 0:
                continue
            if ti.view.end_seq >= tj.view.begin_seq:
                continue
            if same_session_only and (
                    ti.view.session is None
                    or ti.view.session != tj.view.session):
                continue
            vector = obligations[ti.view.key]
            effective = 0
            for shard in read_shards:
                floor = vector.get(shard, 0)
                if floor > effective:
                    effective = floor
            if ti.era != tj.era:
                effective = min(
                    effective, _shared_prefix_bound(eras, ti.era, tj.era))
            if effective > lower:
                lower = effective
                lower_source = ti
        if tj.pinned:
            snapshot = tj.admissible.min()
            feasible = snapshot >= lower
            obligations[tj.view.key] = {
                key_fingerprint(key) % num_shards: tj.commit_index
                for key in tj.view.final_writes}
        else:
            option = tj.admissible.first_at_least(lower)
            feasible = option is not None
            snapshot = option if feasible else tj.admissible.max()
            vector = {}
            for shard in read_shards:
                floor = shard_floor(tj.era, shard, snapshot)
                if floor:
                    vector[shard] = floor
            obligations[tj.view.key] = vector
        if not feasible:
            violations.append(_inversion_violation(
                tj, snapshot, lower, lower_source, same_session_only))
    return violations


def _normalized_timeline(recorder: HistoryRecorder, site: str,
                         boundaries: tuple = ()
                         ) -> list[tuple[int, str, Any]]:
    """Timeline runs re-ordered for dependency-tracked parallel refresh.

    With ``parallel_refresh`` a secondary commits refresh transactions out
    of primary order; only the contiguous watermark prefix ever becomes
    externally visible (``seq(DBsec)`` advances at watermark boundaries),
    and commits applied above the watermark are truncated by a crash or an
    epoch fence.  The completeness audit therefore verifies each *run* —
    the stretch between recovery jumps (and promotion fences, passed in as
    ``boundaries``) — in commit-number order, and stops a run at the first
    gap in the numbering: commits past a gap never joined a visible
    snapshot (the watermark cannot pass the gap) and were discarded by
    whatever ended the run, so replaying them would audit a state the
    replica never served.  Strict-FIFO histories have dense, in-order
    runs, so this normalisation is the identity there and the verdicts
    stay byte-identical.
    """
    entries = _secondary_timeline(recorder, site)
    bounds = sorted(boundaries)
    runs: list[list[tuple[int, str, Any]]] = [[]]
    cut = 0
    for entry in entries:
        while cut < len(bounds) and entry[0] > bounds[cut]:
            cut += 1
            runs.append([])
        if entry[1] == "recover":
            runs.append([])
        runs[-1].append(entry)
    normalized: list[tuple[int, str, Any]] = []
    prev = 0
    for run in runs:
        start = 0
        if run and run[0][1] == "recover":
            normalized.append(run[0])
            prev = run[0][2].commit_ts or 0
            start = 1
        commits = sorted(
            run[start:],
            key=lambda e: e[2].commit_ts
            if e[2].commit_ts is not None else -1)
        for entry in commits:
            ts = entry[2].commit_ts
            if ts is not None and ts > prev + 1:
                break          # gap: the truncated tail was never visible
            normalized.append(entry)
            if ts is not None and ts == prev + 1:
                prev = ts
    return normalized


def _era_completeness(recorder: HistoryRecorder, eras: list[_Era],
                      axes: list[list[TxnView]]) -> CheckResult:
    """Theorem 3.1 across promotion eras, by full-state comparison.

    Every timeline item at a secondary is audited against the axis of
    the era it committed in — the truncation point becomes the new axis
    of comparison, so a replica that applied the old primary's truncated
    tail and carried it into the new era is flagged as divergent, not
    excused.  A promoted site is audited as a secondary only up to its
    promotion; afterwards its own commits *define* the axis.  A plain
    history is the one-era case.
    """
    axis_states = [_materialise_states(axis) for axis in axes]
    promoted_at: dict[str, int] = {}
    for era in eras[1:]:
        promoted_at.setdefault(era.site, era.start_seq)
    # Promotion fences truncate out-of-order applied commits exactly like
    # crashes do, so each era boundary also bounds a normalisation run.
    boundaries = tuple(era.start_seq for era in eras[1:])
    violations: list[Violation] = []
    checked = 0
    for site in recorder.sites():
        if site == eras[0].site:
            continue
        cutoff = promoted_at.get(site)
        current: dict[Any, Any] = {}
        for seq, what, item in _normalized_timeline(recorder, site,
                                                    boundaries):
            if cutoff is not None and seq > cutoff:
                break   # promoted: from here on its commits are the axis
            checked += 1
            era = _era_of(eras, seq)
            if what == "recover":
                index = item.commit_ts or 0
                current = dict(item.value or {})
            else:
                for key, (value, deleted) in item.final_writes.items():
                    if deleted:
                        current.pop(key, None)
                    else:
                        current[key] = value
                index = item.commit_ts if item.commit_ts is not None else -1
            n = len(axis_states[era]) - 1
            if not 0 <= index <= n:
                violations.append(Violation(
                    kind="secondary-ahead",
                    message=(f"site {site!r} produced state S^{index}, but "
                             f"the primary only reached S^{n}")))
                break
            if current != axis_states[era][index]:
                what_label = ("recovery copy" if what == "recover"
                              else "state")
                violations.append(Violation(
                    kind="state-divergence",
                    message=(f"site {site!r} {what_label} S^{index} diverges "
                             f"from primary: {current!r} != "
                             f"{axis_states[era][index]!r}")))
                break
    return CheckResult(criterion="completeness", ok=not violations,
                       violations=violations,
                       checked_transactions=checked)


def _sharded_completeness(recorder: HistoryRecorder,
                          subs: dict[str, tuple[frozenset, int]],
                          eras: list[_Era]) -> CheckResult:
    """Theorem 3.1 under partial replication (era-aware).

    A subscribing secondary receives only the primary commits whose
    write sets touch its shards, so its expected timeline is a
    *subsequence* of the axis, and its state after applying subscribed
    commit ``c`` is the primary state S^c **projected** onto its
    subscription.  The audit walks each site's runs along that
    subscribed subsequence: a gap is legitimate exactly when every
    skipped commit touches no subscribed shard (the replica was never
    sent it), while a missing *subscribed* commit still truncates the
    run — as in :func:`_normalized_timeline`, commits past such a gap
    never joined a visible snapshot.  A commit that should never have
    arrived (one touching no subscribed shard) is deliberately kept in
    the walk so the projected state comparison flags it.  Recovery
    copies are projected at the source, so they are compared against the
    projected axis state; promotion fences and the promoted-site cutoff
    behave exactly as in :func:`_era_completeness`.
    """
    axes = _era_axes(recorder, eras, dense=True, named=True)
    axis_states = [_materialise_states(axis) for axis in axes]
    num_shards = next(iter(subs.values()))[1]
    # Per-axis, per-commit shard sets (index 0 unused), shared by every
    # site's projection walk.
    axis_commit_shards: list[list[frozenset]] = []
    for axis in axes:
        shard_sets = [frozenset()]
        for view in axis:
            shard_sets.append(frozenset(
                key_fingerprint(key) % num_shards
                for key in view.final_writes))
        axis_commit_shards.append(shard_sets)
    promoted_at: dict[str, int] = {}
    for era in eras[1:]:
        promoted_at.setdefault(era.site, era.start_seq)
    boundaries = sorted(era.start_seq for era in eras[1:])
    full = frozenset(range(num_shards))
    violations: list[Violation] = []
    checked = 0
    for site in recorder.sites():
        if site == eras[0].site:
            continue
        subscription = subs.get(site, (full, num_shards))[0]
        # Ascending subscribed commit timestamps per axis: the expected
        # refresh subsequence for this site.
        projected = [
            [ts for ts in range(1, len(shard_sets))
             if shard_sets[ts] & subscription]
            for shard_sets in axis_commit_shards]
        cutoff = promoted_at.get(site)
        entries = _secondary_timeline(recorder, site)
        runs: list[list[tuple[int, str, Any]]] = [[]]
        cut = 0
        for entry in entries:
            while cut < len(boundaries) and entry[0] > boundaries[cut]:
                cut += 1
                runs.append([])
            if entry[1] == "recover":
                runs.append([])
            runs[-1].append(entry)
        current: dict[Any, Any] = {}
        prev = 0
        done = False
        for run in runs:
            if done:
                break
            start = 0
            if run and run[0][1] == "recover":
                seq, _, event = run[0]
                if cutoff is not None and seq > cutoff:
                    break
                checked += 1
                era = _era_of(eras, seq)
                index = event.commit_ts or 0
                n = len(axis_states[era]) - 1
                if not 0 <= index <= n:
                    violations.append(Violation(
                        kind="secondary-ahead",
                        message=(f"site {site!r} produced state S^{index}, "
                                 f"but the primary only reached S^{n}")))
                    done = True
                    break
                current = dict(event.value or {})
                expected = _project(axis_states[era][index], subscription,
                                    num_shards)
                if current != expected:
                    violations.append(Violation(
                        kind="state-divergence",
                        message=(f"site {site!r} recovery copy S^{index} "
                                 f"diverges from primary: {current!r} != "
                                 f"{expected!r}")))
                    done = True
                    break
                prev = index
                start = 1
            commits = sorted(
                run[start:],
                key=lambda e: e[2].commit_ts
                if e[2].commit_ts is not None else -1)
            for seq, _, view in commits:
                if cutoff is not None and seq > cutoff:
                    done = True   # promoted: its own commits are the axis
                    break
                era = _era_of(eras, seq)
                ts = view.commit_ts if view.commit_ts is not None else -1
                proj = projected[era]
                pos = bisect_right(proj, prev)
                expected_next = proj[pos] if pos < len(proj) else None
                if expected_next is not None and ts > expected_next:
                    break   # gap in the subscribed subsequence: truncated
                checked += 1
                n = len(axis_states[era]) - 1
                if not 0 <= ts <= n:
                    violations.append(Violation(
                        kind="secondary-ahead",
                        message=(f"site {site!r} produced state S^{ts}, but "
                                 f"the primary only reached S^{n}")))
                    done = True
                    break
                for key, (value, deleted) in view.final_writes.items():
                    if deleted:
                        current.pop(key, None)
                    else:
                        current[key] = value
                expected = _project(axis_states[era][ts], subscription,
                                    num_shards)
                if current != expected:
                    violations.append(Violation(
                        kind="state-divergence",
                        message=(f"site {site!r} state S^{ts} diverges "
                                 f"from primary: {current!r} != "
                                 f"{expected!r}")))
                    done = True
                    break
                if ts == expected_next:
                    prev = ts
    return CheckResult(criterion="completeness", ok=not violations,
                       violations=violations,
                       checked_transactions=checked)


# ---------------------------------------------------------------------------
# The public checkers, reference edition
# ---------------------------------------------------------------------------

def reference_ordering(same_session_only: bool,
                       analysis: _Analysis) -> list[Violation]:
    """The pair-scan verdict for histories of any shape."""
    eras = analysis.eras
    if analysis.subs:
        num_shards = next(iter(analysis.subs.values()))[1]
        return _sharded_ordering_violations(
            analysis.analyzed, same_session_only, eras, analysis.axes,
            num_shards)
    return _era_ordering_violations(analysis.analyzed, same_session_only,
                                    eras)


def _reference_si(recorder: HistoryRecorder, primary_site: str,
                  criterion: str,
                  same_session_only: bool | None = None) -> CheckResult:
    """Weak SI, plus the ordering scan unless ``same_session_only`` is
    None."""
    analysis = _analyse(recorder, primary_site)
    violations = list(analysis.violations)
    if same_session_only is not None:
        violations.extend(reference_ordering(same_session_only, analysis))
    return CheckResult(criterion=criterion, ok=not violations,
                       violations=violations,
                       checked_transactions=analysis.checked)


def reference_check_weak_si(recorder: HistoryRecorder,
                            primary_site: str = "primary") -> CheckResult:
    """``check_weak_si`` over materialised states."""
    return _reference_si(recorder, primary_site, "weak SI")


def reference_check_strong(recorder: HistoryRecorder,
                           same_session_only: bool,
                           primary_site: str = "primary") -> CheckResult:
    """``check_strong_session_si`` / ``check_strong_si`` by pair scan."""
    criterion = "strong session SI" if same_session_only else "strong SI"
    return _reference_si(recorder, primary_site, criterion,
                         same_session_only)


def reference_count_inversions(recorder: HistoryRecorder,
                               primary_site: str = "primary",
                               within_sessions: bool = True) -> int:
    """``count_transaction_inversions`` by pair scan."""
    return len(reference_ordering(within_sessions,
                                  _analyse(recorder, primary_site)))


def reference_check_completeness(recorder: HistoryRecorder,
                                 primary_site: str = "primary"
                                 ) -> CheckResult:
    """``check_completeness`` by full-state comparison."""
    _check_detail(recorder)
    eras = _promotion_eras(recorder, primary_site)
    subs = _subscriptions(recorder)
    if subs:
        return _sharded_completeness(recorder, subs, eras)
    # Like production, the plain audit takes the primary's numbering as
    # recorded: it does not insist on dense commit timestamps.
    multi_era = len(eras) > 1
    return _era_completeness(recorder, eras, _era_axes(
        recorder, eras, dense=multi_era, named=multi_era))


def verdict(result: CheckResult) -> tuple:
    """What two checkers must agree on, byte for byte."""
    return (result.ok, result.checked_transactions,
            [(v.kind, v.message, v.txns) for v in result.violations])


def assert_matches_reference(recorder: HistoryRecorder,
                             primary_site: str = "primary"
                             ) -> list[CheckResult]:
    """Every public checker and both inversion counts must equal the
    reference's exactly.  Returns production's completeness, weak SI,
    strong SI and strong session SI results, in that order."""
    results = [check_completeness(recorder, primary_site),
               check_weak_si(recorder, primary_site),
               check_strong_si(recorder, primary_site),
               check_strong_session_si(recorder, primary_site)]
    references = [reference_check_completeness(recorder, primary_site),
                  reference_check_weak_si(recorder, primary_site),
                  reference_check_strong(recorder, False, primary_site),
                  reference_check_strong(recorder, True, primary_site)]
    for result, reference in zip(results, references):
        assert verdict(result) == verdict(reference), result.criterion
    for within_sessions in (True, False):
        assert count_transaction_inversions(
            recorder, primary_site, within_sessions) \
            == reference_count_inversions(recorder, primary_site,
                                          within_sessions), within_sessions
    return results
