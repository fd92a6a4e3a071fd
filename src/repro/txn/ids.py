"""Identifiers for logical transactions and client sessions.

Engines assign *local* transaction ids per site; the replication layer
needs stable *logical* identities that survive the primary-execution /
secondary-refresh split.  A refresh transaction at a secondary carries the
logical id of the primary update transaction it replays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SessionLabel:
    """A session label L_H(T) in the sense of Definition 2.2.

    Labels compare and hash by their string form; the replicated system
    mints one per client session under strong *session* SI, a single shared
    label under strong SI, and a unique-per-transaction label under weak SI
    (Section 2.3's two degenerate cases).
    """

    value: str

    def __str__(self) -> str:
        return self.value


class IdAllocator:
    """Monotonic id factory with a prefix, e.g. ``txn-1``, ``txn-2``..."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._counter = itertools.count(1)

    def next(self) -> str:
        return f"{self.prefix}-{next(self._counter)}"
