"""Wire-format records broadcast by the propagator to secondaries.

These mirror what Algorithm 3.1 puts on the wire: start timestamps are
propagated as soon as they appear in the log (for liveness), a committed
transaction's updates travel together with its commit timestamp, and
aborts of already-started transactions are announced so secondaries can
discard the corresponding refresh transaction.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Tuple

#: One logical update: (key, value, deleted).
UpdateTuple = Tuple[Any, Any, bool]


def key_fingerprint(key: Any) -> int:
    """Stable 32-bit fingerprint of a written key.

    CRC-32 over ``repr(key)`` — deliberately *not* Python's ``hash()``,
    whose per-process ``PYTHONHASHSEED`` randomisation for strings would
    make fingerprints (and therefore the parallel-refresh conflict
    relation and every downstream artifact) differ between the sweep
    subprocesses and across runs.  Collisions are safe: a collision can
    only *add* an ordering edge (over-serialise), never drop one.
    """
    return zlib.crc32(repr(key).encode("utf-8", "backslashreplace"))


@dataclass(frozen=True)
class PropagatedStart:
    """start_p(T): T began at the primary with the given start timestamp."""

    txn_id: int
    start_ts: int


@dataclass(frozen=True)
class PropagatedCommit:
    """commit_p(T) plus T's full update list, shipped only after commit.

    ``write_fps`` and ``dep_ts`` are the dependency summary used by the
    parallel-refresh scheduler (C5-style out-of-order apply):

    ``write_fps``
        One stable 32-bit fingerprint per written key, in write order.
        Fingerprints are computed by :func:`key_fingerprint` at the
        propagator so every site derives the same conflict relation
        without shipping the (arbitrarily large) keys twice.
    ``dep_ts``
        Commit timestamp of the latest prior committed transaction that
        wrote any of the same keys (0 when none) — an upper bound on
        every true per-key predecessor, letting secondaries prune
        fingerprint-collision false dependencies: any fingerprint match
        newer than ``dep_ts`` cannot be a real conflict.

    The propagator fills both for every commit, whether the secondaries
    apply in order or in parallel; an in-order refresher ignores them.
    The empty defaults serve only records built by hand (tests, tools).

    The sharded wire extension (partial replication; all empty when
    sharding is off, leaving classic records unchanged):

    ``update_fps``
        One fingerprint per entry of ``updates`` (first-write-wins
        deduplication makes ``write_fps`` shorter, so projection by
        shard needs the undeduplicated list).
    ``shard_deps``
        ``(shard, dep_ts)`` pairs in shard order, one per shard this
        commit touches: the per-shard dependency bound, the commit
        timestamp of the latest prior committed transaction that wrote
        any of the same keys *in that shard*.  A projection onto a
        subscription keeps the subscribed pairs and recomputes
        ``dep_ts`` as their max, so a filtered commit never waits on a
        commit the subscriber will not receive; the subscriber advances
        its frontier on each shard named here when the commit becomes
        visible.
    """

    txn_id: int
    commit_ts: int
    updates: tuple[UpdateTuple, ...]
    write_fps: tuple[int, ...] = ()
    dep_ts: int = 0
    update_fps: tuple[int, ...] = ()
    shard_deps: tuple[tuple[int, int], ...] = ()

    @property
    def update_count(self) -> int:
        return len(self.updates)


@dataclass(frozen=True)
class PropagatedAbort:
    """abort_p(T): discard T's refresh transaction."""

    txn_id: int


PropagationRecord = PropagatedStart | PropagatedCommit | PropagatedAbort


@dataclass(frozen=True)
class PropagatedBatch:
    """One flush's records, shipped as a single link frame.

    When the propagator batches (``batch_interval`` set), every flush
    wraps the buffered records — still in log order — into one of these,
    so a whole flush costs one sequence number and one ack per linked
    endpoint, and one arrival event shared by every directly attached
    endpoint, instead of one per record.  The refresher unpacks
    the frame and processes the contained records exactly as if they had
    arrived individually.
    """

    records: tuple[PropagationRecord, ...]

    @property
    def count(self) -> int:
        return len(self.records)
