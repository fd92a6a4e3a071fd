"""Transactional guarantees selectable per client session.

Section 2 defines the spectrum; Section 6 evaluates one algorithm per
point on it.  All three are the *same* mechanism — per-label sequence
numbers — instantiated with different labelings (Section 2.3):

* one label per client session  -> strong session SI (the contribution),
* one label for the whole system -> strong SI,
* a fresh label per transaction  -> weak SI (no ordering constraints, so
  the implementation simply never blocks).
"""

from __future__ import annotations

import enum


class Guarantee(enum.Enum):
    """Global transactional guarantee enforced for a client session."""

    WEAK_SI = "weak-si"
    """Global weak SI only (ALG-WEAK-SI): reads run immediately against
    the local secondary snapshot; transaction inversions are possible."""

    STRONG_SESSION_SI = "strong-session-si"
    """Strong session SI (ALG-STRONG-SESSION-SI): no transaction
    inversions within this client session (Definition 2.2)."""

    STRONG_SI = "strong-si"
    """Strong SI (ALG-STRONG-SI): no transaction inversions at all
    (Definition 2.1) — one system-wide session label."""

    PCSI = "prefix-consistent-si"
    """Prefix-consistent SI (Elnikety et al., discussed in Section 7):
    a read-only transaction sees the effects of the session's earlier
    *update* transactions, but — unlike strong session SI — two read-only
    transactions in one session are not ordered against each other, so a
    session that moves between replicas may observe time going backwards.
    Implemented as a comparison baseline."""

    @property
    def orders_reads_within_session(self) -> bool:
        """Whether two read-only txns in one session are mutually ordered
        (the property separating strong session SI from PCSI)."""
        return self in (Guarantee.STRONG_SESSION_SI, Guarantee.STRONG_SI)

    def __str__(self) -> str:
        return self.value


#: Label used for every transaction under ALG-STRONG-SI (Section 6: "there
#: is a single session for the system").
GLOBAL_SESSION_LABEL = "__global__"
