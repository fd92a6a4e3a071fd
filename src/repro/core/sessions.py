"""Session sequence numbers — the state behind ALG-STRONG-SESSION-SI.

Section 4 in three sentences: every client session ``c`` has a sequence
number ``seq(c)``, set to ``commit_p(T)`` whenever an update transaction T
from ``c`` commits at the primary.  Every secondary maintains
``seq(DBsec)``, the primary commit timestamp of the last refresh
transaction it applied.  A read-only transaction from ``c`` waits while
``seq(c) > seq(DBsec)``; once it runs, local strong SI guarantees it sees a
state at least as fresh as the session's last update.

ALG-STRONG-SI is the same machinery with a single label for the whole
system; ALG-WEAK-SI never consults the tracker.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.guarantees import GLOBAL_SESSION_LABEL, Guarantee


#: The per-axis sequences of a label that never committed an update.
_NO_UPDATES: dict = {}


class SequenceTracker:
    """Tracks seq(c) for every session label plus the global sequence,
    each on every freshness axis.

    An *axis* names what a sequence number is compared against: ``None``
    is the whole database — the paper's ``seq(DBsec)`` — and under
    partial replication each shard id is an axis of its own, because a
    partial subscriber only ever reaches the commits that touched its
    shards.  Every commit lies on the whole-database axis and on the
    axis of each shard it wrote, so every number stored for an axis is
    the timestamp of a commit that touched it, which a replica holding
    the axis provably reaches.
    """

    def __init__(self) -> None:
        #: label -> axis -> commit_ts of the session's newest update on it.
        self._seq: dict[str, dict] = {}
        #: axis -> newest commit_ts on it (ALG-STRONG-SI's sequence).
        self._newest: dict = {}
        #: Per-label acknowledged-but-truncated commit windows ``(kept,
        #: lost]`` recorded by :meth:`truncate` across primary promotions.
        self.lost_windows: dict[str, tuple[int, int]] = {}

    def newest(self, axis=None) -> int:
        """Newest commit timestamp on ``axis`` (0 if none)."""
        return self._newest.get(axis, 0)

    def seq(self, label: str, axis=None) -> int:
        """Current seq(c) for session label ``c`` on ``axis``."""
        return self._seq.get(label, _NO_UPDATES).get(axis, 0)

    def on_primary_commit(self, label: Optional[str], commit_ts: int,
                          shards: tuple = ()) -> None:
        """Record that an update transaction from ``label`` committed.

        ``shards`` names the shards its write set touched (partial
        replication; empty otherwise): a later read then blocks only on
        the axes it reads, instead of the whole-database one a partial
        replica may never reach.
        """
        newest = self._newest
        own = None if label is None else self._seq.setdefault(label, {})
        for axis in (None, *shards):
            if commit_ts > newest.get(axis, 0):
                newest[axis] = commit_ts
            if own is not None and commit_ts > own.get(axis, 0):
                own[axis] = commit_ts

    def required_sequence(self, guarantee: Guarantee, label: str,
                          axis=None) -> int:
        """The frontier on ``axis`` a read-only transaction from this
        session must wait for under the given guarantee (captured at
        submission time) — ``seq(DBsec)`` on the whole-database axis.

        Both STRONG_SESSION_SI and PCSI wait for the session's own last
        update here; the extra ordering between read-only transactions
        that distinguishes strong session SI is enforced by the client
        session itself (it remembers the freshest snapshot it observed).
        """
        if guarantee is Guarantee.WEAK_SI:
            return 0
        if guarantee is Guarantee.STRONG_SI:
            return self._newest.get(axis, 0)
        return self._seq.get(label, _NO_UPDATES).get(axis, 0)

    def truncate(self, truncation_ts: int,
                 surviving: Optional[Callable] = None
                 ) -> dict[str, tuple[int, int]]:
        """Reconcile every seq(c) across a primary promotion.

        The new primary's history ends at ``truncation_ts``; any session
        whose seq(c) points past it committed updates the promoted
        replica never received — those are the *lost-update windows*.
        Each such label's window ``(truncation_ts, old seq(c)]`` is
        recorded in :attr:`lost_windows` and returned (the promotion
        machinery turns them into :class:`~repro.errors.LostUpdatesError`
        for the affected sessions); all sequence numbers, including the
        global ALG-STRONG-SI ones, are clamped so surviving sessions
        wait for states that can actually appear: on each axis to
        ``surviving(axis)``, the newest surviving commit that touched it
        (the truncation point need not have), or to ``truncation_ts``
        when the caller knows no better.
        """
        if surviving is None:
            def surviving(axis):
                return truncation_ts
        truncated: dict[str, tuple[int, int]] = {}
        vectors = [self._newest]
        for label, own in self._seq.items():
            seq = own.get(None, 0)
            if seq > truncation_ts:
                window = (truncation_ts, seq)
                truncated[label] = window
                self.lost_windows[label] = window
            vectors.append(own)
        for vector in vectors:
            for axis, seq in vector.items():
                if seq > surviving(axis):
                    vector[axis] = surviving(axis)
        return truncated

    def forget(self, label: str) -> None:
        """Drop a retired session label's sequence entry.

        Simulation clients retire each session label permanently when the
        session ends; without this, a long run accumulates one entry per
        session ever created.  Forgetting a label is observationally
        identical for retired labels — they are never queried again — and
        a forgotten label that *does* reappear starts back at 0, exactly
        like a label never seen.
        """
        self._seq.pop(label, None)

    def labels(self) -> list[str]:
        return [label for label in self._seq if label != GLOBAL_SESSION_LABEL]
