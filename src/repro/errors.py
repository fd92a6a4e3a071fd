"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one base class.  Transaction-level outcomes that a client is
expected to handle (first-committer-wins aborts, explicit aborts) derive from
:class:`TransactionAborted`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class KernelError(ReproError):
    """Base class for cooperative-kernel errors."""


class DeadlockError(KernelError):
    """The kernel ran out of runnable work while a caller was still waiting.

    Raised when :meth:`repro.kernel.Kernel.run` is asked to drive a process
    to completion but every process in the system is blocked and no timed
    event remains — the virtual-time equivalent of a deadlock.
    """


class StorageError(ReproError):
    """Base class for storage-engine errors."""


class TransactionAborted(StorageError):
    """Base class for all transaction aborts."""


class FirstCommitterWinsError(TransactionAborted):
    """A write-write conflict with a concurrently-committed transaction.

    Under snapshot isolation the *first committer wins* (FCW) rule aborts a
    committing transaction if any transaction whose lifespan overlapped it
    already committed a write to one of its written items (Berenson et al.,
    and Section 2.1 of the paper).
    """

    def __init__(self, txn_id: int, key: object, winner_txn_id: int):
        self.txn_id = txn_id
        self.key = key
        self.winner_txn_id = winner_txn_id
        super().__init__(
            f"transaction {txn_id} aborted by first-committer-wins on key "
            f"{key!r}: transaction {winner_txn_id} committed first"
        )


class ExplicitAbort(TransactionAborted):
    """The client (or a failure-injection hook) asked for the abort."""


class TransactionStateError(StorageError):
    """An operation was attempted on a finished (committed/aborted) txn."""


class KeyNotFound(StorageError):
    """A read referenced a key with no visible committed version."""

    def __init__(self, key: object):
        self.key = key
        super().__init__(f"no visible version for key {key!r}")


class UnorderableKeyError(StorageError):
    """A written key cannot be ordered against the keys already stored.

    The engine keeps its keys sorted for range scans, so one database
    holds mutually comparable keys only.  A commit that brings such a key
    is aborted before it changes anything.
    """

    def __init__(self, key: object):
        self.key = key
        super().__init__(
            f"key {key!r} cannot be ordered against the stored keys")


class InvalidScanError(StorageError):
    """A scan asked for a prefix and range bounds at once."""


class ReplicationError(ReproError):
    """Base class for replication-middleware errors."""


class SiteUnavailableError(ReplicationError):
    """A request was routed to a site that has crashed.

    Read-only transactions fail over to a live replica automatically;
    this error reaches the client only when no live replica exists (or
    none appeared within the session's failover wait budget).
    """


class ShardUnavailableError(ReplicationError):
    """No live secondary subscribes to every shard a read touches.

    Under partial replication
    (:class:`~repro.core.sharding.ShardingConfig` with an explicit
    placement) a read-only transaction must be served by one replica
    holding *all* the shards its key set maps onto; when no live such
    replica exists (or none appeared within the session's failover wait
    budget), this error surfaces the placement gap instead of silently
    serving a partial view.
    """

    def __init__(self, shards: frozenset, label: str = ""):
        self.shards = shards
        self.label = label
        super().__init__(
            f"no live secondary subscribes to all of shards "
            f"{sorted(shards)}"
            + (f" (session {label})" if label else ""))


class NoLiveSecondariesError(ReplicationError):
    """Every secondary site is crashed, so replica-wide quantities
    (e.g. :meth:`~repro.core.system.ReplicatedSystem.max_staleness`)
    are undefined."""


class NoPrimaryError(ReplicationError):
    """No live primary appeared within a session's promotion wait budget.

    After a permanent primary failure, update transactions retry with
    bounded exponential backoff while a promotion is pending
    (:class:`~repro.core.promotion.PromotionConfig`); this error surfaces
    when the ``promotion_wait`` budget is exhausted first.
    """


class LostUpdatesError(ReplicationError):
    """A primary promotion truncated commits this session depends on.

    The promoted secondary's state defines the new axis of comparison;
    anything the old primary committed beyond that truncation point is
    gone.  A session whose own acknowledged updates fell in that window
    (or whose strong-session reads observed it) can never be served
    consistently again, so every subsequent operation raises this error
    instead of silently forgetting the loss.  ``window`` is the
    half-open commit-timestamp interval ``(kept, lost]``.
    """

    def __init__(self, label: str, window: tuple[int, int]):
        self.label = label
        self.window = window
        super().__init__(
            f"session {label} lost acknowledged state in the commit window "
            f"({window[0]}, {window[1]}]: a primary promotion truncated "
            f"history past S^{window[0]}"
        )


class LeaseExpiredError(ReplicationError):
    """The primary's lease lapsed and it self-demoted mid-transaction.

    Under autonomous failover (:class:`~repro.core.failover.FailoverConfig`)
    the primary may only acknowledge commits while it holds an unexpired
    lease granted by the secondaries' heartbeat acks.  When the lease
    lapses — typically because a network partition cut the primary off —
    the primary steps down *before* the cluster can elect a successor:
    every in-flight update transaction is aborted and surfaces this error
    instead of an acknowledgement, so a commit can never be confirmed by
    a primary the new epoch is about to orphan.
    """

    def __init__(self, txn_id: int, site: str):
        self.txn_id = txn_id
        self.site = site
        super().__init__(
            f"transaction {txn_id} aborted: primary {site!r} lost its "
            f"lease and self-demoted before the commit could be "
            f"acknowledged"
        )


class SessionClosedError(ReplicationError):
    """An operation was issued on a closed client session."""


class FreshnessTimeoutError(ReplicationError):
    """A read-only transaction's freshness wait exceeded its ``max_wait``.

    Raised by :meth:`repro.core.ClientSession.execute_read_only` when the
    caller set ``max_wait`` with ``on_timeout='error'``.
    """


class OverloadError(ReplicationError):
    """The admission controller shed this request.

    Raised by the admission subsystem
    (:class:`~repro.core.admission.AdmissionConfig`) when the token
    bucket is empty and the bounded admission queue is full — or when the
    configured shed policy evicted this request from the queue while it
    waited.  Attributes: ``label`` (the shedding session), ``policy``
    (the shed policy that fired) and ``queue_depth`` (queue occupancy at
    the shed instant).
    """

    def __init__(self, label: str, policy: str, queue_depth: int):
        self.label = label
        self.policy = policy
        self.queue_depth = queue_depth
        super().__init__(
            f"session {label}: update shed by admission control "
            f"(policy {policy}, queue depth {queue_depth})"
        )


class CircuitOpenError(ReplicationError):
    """A per-session circuit breaker is open: fail fast, do not retry.

    After ``breaker_threshold`` consecutive failures the session's
    breaker opens and subsequent updates fail immediately with this
    error instead of hammering a struggling (or demoted) primary; after
    ``retry_after`` virtual seconds the breaker goes half-open and
    admits a single probe.  Attributes: ``label`` (the session) and
    ``retry_after`` (virtual seconds until the next probe is allowed).
    """

    def __init__(self, label: str, retry_after: float):
        self.label = label
        self.retry_after = retry_after
        super().__init__(
            f"session {label}: circuit breaker open, retry in "
            f"{retry_after:.3f}s"
        )


class CheckerError(ReproError):
    """A correctness checker was given a malformed history."""


class SimulationError(ReproError):
    """Base class for simulation-model errors."""


class ConfigurationError(ReproError):
    """Invalid experiment or system configuration."""


#: Public taxonomy.  Every exception class the library raises is exported
#: here; ``tests/test_errors.py`` pins the list against the module's
#: contents so a new error class cannot ship unexported or untested.
__all__ = [
    "ReproError",
    "KernelError",
    "DeadlockError",
    "StorageError",
    "TransactionAborted",
    "FirstCommitterWinsError",
    "ExplicitAbort",
    "TransactionStateError",
    "KeyNotFound",
    "UnorderableKeyError",
    "InvalidScanError",
    "ReplicationError",
    "SiteUnavailableError",
    "ShardUnavailableError",
    "NoLiveSecondariesError",
    "NoPrimaryError",
    "LostUpdatesError",
    "LeaseExpiredError",
    "SessionClosedError",
    "FreshnessTimeoutError",
    "OverloadError",
    "CircuitOpenError",
    "CheckerError",
    "SimulationError",
    "ConfigurationError",
]
