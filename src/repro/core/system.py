"""The client-facing facade: :class:`ReplicatedSystem` and sessions.

A :class:`ReplicatedSystem` wires together one primary, N secondaries, the
propagator and per-secondary refreshers on a shared virtual-time kernel.
Clients open *sessions*; each session is bound to one secondary (clients
connect to a secondary in Figure 1) and to a :class:`Guarantee`:

* update transactions are forwarded to the primary and executed there
  under local strong SI (with automatic first-committer-wins retry);
* read-only transactions run at the session's secondary, blocking first if
  the session's guarantee requires a fresher ``seq(DBsec)``.

A call that has to wait drives the kernel until the operation completes,
so client code is ordinary synchronous Python while propagation and
refresh progress underneath in virtual time.

Example
-------
>>> from repro import ReplicatedSystem, Guarantee
>>> system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.5)
>>> with system.session(Guarantee.STRONG_SESSION_SI) as s:
...     s.execute_update(lambda t: t.write("x", 1))
...     s.execute_read_only(lambda t: t.read("x"))
1
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.admission import (
    RETRY_BASE,
    RETRY_CAP,
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    StalenessReport,
)
from repro.core.autovacuum import AutovacuumDaemon
from repro.core.backoff import ExponentialBackoff
from repro.core.failover import AutoFailover, FailoverConfig
from repro.core.guarantees import Guarantee
from repro.core.promotion import PromotionConfig, PromotionReport, promote
from repro.core.propagation import Propagator, ReliableLink
from repro.core.sessions import SequenceTracker
from repro.core.sharding import ShardingConfig
from repro.core.site import WHOLE_DATABASE, PrimarySite, SecondarySite
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    FirstCommitterWinsError,
    FreshnessTimeoutError,
    LeaseExpiredError,
    LostUpdatesError,
    NoLiveSecondariesError,
    NoPrimaryError,
    OverloadError,
    ReplicationError,
    SessionClosedError,
    ShardUnavailableError,
    SiteUnavailableError,
    TransactionStateError,
)
from repro.faults.channel import ChannelFaults
from repro.kernel import Kernel, Timeout, TimeoutExpired
from repro.sim.rng import RandomStreams
from repro.storage.engine import SIDatabase, Transaction, TxnStatus
from repro.storage.wal import LogicalLog
from repro.txn.history import HistoryRecorder
from repro.txn.ids import IdAllocator

TransactionBody = Callable[[Transaction], Any]


def _run_body(work: TransactionBody, txn: Transaction) -> Any:
    """``work(txn)``.  A body that raises aborts ``txn`` first, if it is
    still active, and then re-raises: left open, an update's propagated
    start record would keep a refresh transaction open at every replica
    and pin each site's GC horizon for good."""
    try:
        return work(txn)
    except BaseException as exc:
        if txn.status is TxnStatus.ACTIVE:
            txn.abort(f"body raised {type(exc).__name__}")
        raise


def _raise_if_demoted(site: PrimarySite, txn: Transaction,
                      cause: Optional[BaseException]) -> None:
    """Raise :class:`~repro.errors.LeaseExpiredError` when ``site``'s
    lease self-demotion aborted the open ``txn`` (its body drove the
    kernel): never acknowledged, and not the body's own abort."""
    if txn.txn_id in site.demote_aborted:
        raise LeaseExpiredError(txn.txn_id, site.name) from cause


#: :meth:`ClientSession._attempt_update`'s result while the primary is down.
_PRIMARY_DOWN = object()

#: A session waiting for a live primary (promotion) or a live replica
#: (read failover) probes after this many virtual seconds, doubling up
#: to the cap.
PROBE_WAIT_BASE = 0.25
PROBE_WAIT_CAP = 8.0


class ClientSession:
    """A client's sequential stream of transactions (Section 4).

    Obtained from :meth:`ReplicatedSystem.session`; usable as a context
    manager.  Not reentrant: a session submits one transaction at a time,
    which is exactly the paper's client model.
    """

    def __init__(self, system: "ReplicatedSystem", label: str,
                 guarantee: Guarantee, secondary: SecondarySite,
                 freshness_bound: Optional[int] = None,
                 failover_wait: float = 0.0,
                 priority: int = 0):
        self.system = system
        self.label = label
        self.guarantee = guarantee
        self.secondary = secondary
        #: Optional staleness bound k: reads never observe a state more
        #: than k commits behind the primary (an extension beyond the
        #: paper; k=0 degenerates to strong SI, k=inf to the base rule).
        self.freshness_bound = freshness_bound
        #: How long (virtual time) a read may wait for *some* replica to
        #: come back when every secondary is down, before surfacing
        #: :class:`~repro.errors.SiteUnavailableError`.  Failover to an
        #: already-live replica never waits.
        self.failover_wait = failover_wait
        self.closed = False
        self.updates_committed = 0
        self.reads_executed = 0
        self.fcw_retries = 0
        self.blocked_reads = 0
        self.total_read_wait = 0.0
        self.freshness_timeouts = 0
        self.failovers = 0
        #: axis -> freshest frontier this session has read it at — the
        #: state strong session SI orders later reads after.  PCSI
        #: deliberately ignores it (Section 7's distinction).  Besides
        #: the axes a read blocked on, every read notes the replica's
        #: seq(DBsec) under the whole-database axis ``None``: a promotion
        #: truncates the whole database, so that is the number it asks
        #: "did this session see past the surviving prefix?" of.
        self._observed: dict = {}
        #: Reads whose bound replica was live but did not hold every
        #: touched axis, forcing a re-route (partial replication only: a
        #: full-replication replica holds the one axis there is).
        self.shard_routing_misses = 0
        #: Set by a primary promotion when state this session depends on
        #: fell in the truncated window ``(kept, lost]``; every later
        #: operation raises :class:`~repro.errors.LostUpdatesError`.
        self._lost_window: Optional[tuple[int, int]] = None
        #: Update attempts that exhausted the promotion wait budget.
        self.no_primary_errors = 0
        #: Shed-policy rank under ``by-session-priority`` admission
        #: shedding: higher keeps its queue slot over lower.
        self.priority = priority
        #: Updates shed by admission control after the retry budget.
        self.overload_errors = 0
        #: Shed updates retried within the budget (backoff + jitter).
        self.overload_retries = 0
        #: Updates failed fast by this session's open circuit breaker.
        self.circuit_open_errors = 0
        #: One explicit :class:`StalenessReport` per read served from a
        #: stale snapshot under graceful degradation.
        self.staleness_reports: list[StalenessReport] = []
        self._breaker: Optional[CircuitBreaker] = None
        controller = system.admission_controller
        if controller is not None \
                and controller.config.breaker_threshold > 0:
            self._breaker = CircuitBreaker(
                system.kernel, label,
                controller.config.breaker_threshold,
                controller.config.breaker_cooldown)

    @property
    def degraded_reads(self) -> int:
        """Reads served from a stale snapshot under graceful degradation."""
        return len(self.staleness_reports)

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError(f"session {self.label} is closed")

    def _check_not_lost(self) -> None:
        if self._lost_window is not None:
            raise LostUpdatesError(self.label, self._lost_window)

    # -- update transactions -------------------------------------------------
    def execute_update(self, work: TransactionBody, *,
                       max_retries: int = 25) -> Any:
        """Forward an update transaction to the primary and run it there.

        ``work(txn)`` performs reads and writes through the transaction
        handle; on a first-committer-wins conflict the transaction is
        retried against a fresh snapshot up to ``max_retries`` times.
        Returns ``work``'s return value.

        With admission control configured
        (:class:`~repro.core.admission.AdmissionConfig`) the update
        first passes the token-bucket gate — waiting in the bounded
        queue, retrying within the session's retry budget, and
        surfacing :class:`~repro.errors.OverloadError` /
        :class:`~repro.errors.CircuitOpenError` when shed.  ``work``
        must not drive the kernel on that path (no nested session
        operations).
        """
        self._check_open()
        self._check_not_lost()
        if self.system.admission_controller is not None:
            return self._complete(
                self.update_process(work, max_retries=max_retries),
                "update")
        retry_limit = self.fcw_retries + max_retries
        while (result := self._attempt_update(work, retry_limit)) \
                is _PRIMARY_DOWN:
            self._complete(self._await_primary(), "await-primary")
        return result

    def update_process(self, work: TransactionBody, *,
                       max_retries: int = 25):
        """Kernel-process form of :meth:`execute_update`: the admission
        gate, then the same attempt, nesting the primary wait.

        Used on the admission-control path and by open-loop drivers
        that submit many concurrent client operations (the overload
        bench/storm) — sessions stay sequential internally, but distinct
        sessions' operations overlap, which is what fills the bounded
        admission queue.  ``work`` must not drive the kernel.
        """
        self._check_open()
        self._check_not_lost()
        controller = self.system.admission_controller
        if controller is not None:
            yield from self._admission_gate(controller)
        retry_limit = self.fcw_retries + max_retries
        try:
            while (result := self._attempt_update(work, retry_limit)) \
                    is _PRIMARY_DOWN:
                yield from self._await_primary()
        except Exception as exc:
            self._account_failure(exc)
            raise
        return result

    def _attempt_update(self, work: TransactionBody, retry_limit: int) -> Any:
        """The one update attempt: begin at the primary, run ``work``,
        commit and account it, retrying a first-committer-wins loss until
        :attr:`fcw_retries` passes ``retry_limit``.  Returns ``work``'s
        result, or :data:`_PRIMARY_DOWN` for the caller to wait for a
        promoted primary (:meth:`_await_primary`) and call again."""
        while True:
            site = self.system.primary
            txn = self._start_update(site)
            if txn is None:
                return _PRIMARY_DOWN
            try:
                result = _run_body(work, txn)
                txn.commit()
            except FirstCommitterWinsError:
                self.fcw_retries += 1
                if self.fcw_retries > retry_limit:
                    raise
                continue
            except TransactionStateError as exc:
                _raise_if_demoted(site, txn, exc)
                raise
            self._account_commit(txn)
            return result

    def _start_update(self, site: PrimarySite) -> Optional[Transaction]:
        """Begin an update at ``site``, the current primary; ``None`` when
        it is down and a promotion may replace it."""
        system = self.system
        try:
            return site.begin_update(metadata={
                "logical_id": system._txn_ids.next(),
                "session": self.label,
            })
        except SiteUnavailableError:
            if system.promotion is None:
                raise
            return None

    def _account_commit(self, txn: Transaction) -> None:
        """The one account of a committed update: ``seq(c)`` advances on
        every shard it wrote, and the breaker closes."""
        system = self.system
        system.tracker.on_primary_commit(self.label, txn.commit_ts,
                                         system._shards_of_txn(txn))
        self.updates_committed += 1
        if self._breaker is not None:
            self._breaker.record_success()

    def _account_failure(self, exc: Optional[BaseException]) -> None:
        """An admitted update ended in ``exc`` without committing.  A
        struggling or absent primary counts against the breaker; anything
        else says nothing about the cluster and only releases a probe."""
        breaker = self._breaker
        if breaker is None:
            return
        if isinstance(exc, (SiteUnavailableError, NoPrimaryError,
                            LeaseExpiredError)):
            breaker.record_failure()
        else:
            breaker.release_probe()

    def _complete(self, process_body, name: str) -> Any:
        """Drive the kernel until a spawned session sub-process ends."""
        kernel = self.system.kernel
        return kernel.run_until_complete(
            kernel.spawn(process_body, name=f"{name}@{self.label}"))

    def _admission_gate(self, controller: AdmissionController):
        """Kernel sub-process gating one update attempt.

        Checks the circuit breaker, then acquires admission — retrying
        shed attempts within the configured retry budget with bounded
        exponential backoff and full jitter from the session's dedicated
        stream.  Raises :class:`~repro.errors.CircuitOpenError` or
        :class:`~repro.errors.OverloadError`.
        """
        breaker = self._breaker
        if breaker is not None:
            try:
                breaker.check()
            except CircuitOpenError:
                self.circuit_open_errors += 1
                raise
        retries_left = controller.config.retry_budget
        schedule: Optional[ExponentialBackoff] = None
        while True:
            try:
                yield from controller.acquire(self)
                return
            except OverloadError:
                if retries_left <= 0:
                    self.overload_errors += 1
                    if breaker is not None:
                        breaker.record_failure()
                    raise
                retries_left -= 1
                self.overload_retries += 1
                if schedule is None:
                    schedule = ExponentialBackoff(
                        RETRY_BASE, RETRY_CAP,
                        rng=controller.retry_rng(self.label))
                yield self.system.kernel.sleep(schedule.next_wait())

    def update_transaction(self) -> "_InteractiveUpdate":
        """Interactive update transaction spanning multiple statements.

        >>> # with session.update_transaction() as txn:
        >>> #     stock = txn.read("stock")
        >>> #     txn.write("stock", stock - 1)

        Commits on normal exit (no automatic FCW retry — the caller sees
        :class:`~repro.errors.FirstCommitterWinsError` and decides);
        aborts if the body raises.  Otherwise it is one attempt of
        :meth:`execute_update`: the same admission gate, the same wait
        for a promoted primary, the same lease mapping and commit
        account.
        """
        self._check_open()
        self._check_not_lost()
        controller = self.system.admission_controller
        if controller is not None:
            self._complete(self._admission_gate(controller), "admit")
        try:
            while True:
                site = self.system.primary
                txn = self._start_update(site)
                if txn is not None:
                    break
                self._complete(self._await_primary(), "await-primary")
        except Exception as exc:
            self._account_failure(exc)
            raise
        return _InteractiveUpdate(self, site, txn)

    def _await_primary(self):
        """Kernel sub-process: wait until a live primary exists (a
        promotion swaps ``system.primary`` for a new object, so every probe
        re-reads it) and check the session lost nothing to the promotion.
        Probes back off from :data:`PROBE_WAIT_BASE` to
        :data:`PROBE_WAIT_CAP` over ``promotion_wait``; raises
        :class:`~repro.errors.NoPrimaryError` on exhaustion."""
        system = self.system
        config = system.promotion
        kernel = system.kernel
        deadline = kernel.now + config.promotion_wait
        retry = ExponentialBackoff(PROBE_WAIT_BASE, PROBE_WAIT_CAP)
        while system.primary.crashed:
            if kernel.now >= deadline:
                self.no_primary_errors += 1
                raise NoPrimaryError(
                    f"session {self.label}: no live primary appeared "
                    f"within the promotion wait budget "
                    f"({config.promotion_wait}s)")
            yield kernel.sleep(min(retry.next_wait(), deadline - kernel.now))
        self._check_not_lost()

    # -- read-only transactions ------------------------------------------------
    def execute_read_only(self, work: TransactionBody, *,
                          keys: Optional[list] = None,
                          max_wait: Optional[float] = None,
                          on_timeout: str = "error") -> Any:
        """Run a read-only transaction at this session's secondary.

        Under ``STRONG_SESSION_SI`` the transaction first waits until
        ``seq(DBsec) >= seq(c)``; under ``STRONG_SI`` until
        ``seq(DBsec) >= `` the global sequence at submission; under
        ``WEAK_SI`` it runs immediately.  A read that must wait, fail
        over, or queue behind an event due at the current instant drives
        the kernel forward (propagation, refresh) until it is served;
        one that need do none of these is served on the caller's stack
        and dispatches no kernel event.

        ``keys`` declares the key set the transaction will touch.  It is
        only consulted under partial replication, where it routes the
        read to a live replica subscribing to every touched shard and
        narrows session blocking to those shards' frontiers; omitting it
        conservatively demands a full-coverage replica.

        ``max_wait`` caps the freshness wait (virtual time).  On expiry,
        ``on_timeout='error'`` raises
        :class:`~repro.errors.FreshnessTimeoutError`; ``'stale'``
        downgrades this one transaction to the current replica snapshot
        (an explicit, observable weak-SI escape hatch).

        With admission control configured, a read passing no explicit
        ``max_wait`` inherits the config's ``read_deadline``; with
        ``degrade_to_stale=True`` a deadline expiry serves the freshest
        available snapshot and appends a
        :class:`~repro.core.admission.StalenessReport` to
        :attr:`staleness_reports` — the guarantee is relaxed *only*
        through that explicit, audited opt-in.
        """
        plan = self._begin_read(keys, max_wait, on_timeout)
        required = plan[0]
        secondary = self.secondary
        if self.system.kernel.nothing_due() and secondary.live \
                and secondary.holds(required.keys()) \
                and secondary.reached(required):
            # Nothing to wait for and nothing due before it: a spawned
            # _read_process would be the next event dispatched, would
            # serve the read in its first step and finish, so serve it
            # here — the same code in the same order, minus one spawn
            # and one dispatch.
            return self._serve_read(secondary, work, required)
        return self._complete(self._read_process(work, *plan), "read")

    def read_only_process(self, work: TransactionBody,
                          keys: Optional[list] = None,
                          max_wait: Optional[float] = None,
                          on_timeout: str = "error"):
        """Kernel-process form of :meth:`execute_read_only` for open-loop
        drivers (the requirement is computed when the op actually runs).
        ``work`` must not drive the kernel."""
        return (yield from self._read_process(
            work, *self._begin_read(keys, max_wait, on_timeout)))

    def _begin_read(self, keys: Optional[list], max_wait: Optional[float],
                    on_timeout: str) -> tuple:
        """Validate one read submitted *now* and fix what it waits for:
        the ``(required, max_wait, on_timeout, degrade)`` arguments of
        :meth:`_read_process`."""
        self._check_open()
        self._check_not_lost()
        if on_timeout not in ("error", "stale"):
            raise ConfigurationError(
                f"on_timeout must be 'error' or 'stale', got {on_timeout!r}")
        if max_wait is not None and max_wait < 0:
            raise ConfigurationError(f"max_wait must be >= 0, got {max_wait!r}")
        return (self._read_plan(keys),
                *self._read_defaults(max_wait, on_timeout))

    def _read_defaults(self, max_wait: Optional[float],
                       on_timeout: str) -> tuple:
        """Apply the admission config's read-deadline defaults.

        An explicit caller ``max_wait`` always wins; degradation is only
        engaged through the config's ``degrade_to_stale`` opt-in.
        """
        controller = self.system.admission_controller
        if (controller is None or max_wait is not None
                or controller.config.read_deadline is None):
            return max_wait, on_timeout, False
        if controller.config.degrade_to_stale:
            return controller.config.read_deadline, "stale", True
        return controller.config.read_deadline, on_timeout, False

    def _read_plan(self, keys: Optional[list]) -> dict:
        """Freshness requirement ``{axis: commit_ts}`` of a read-only
        transaction submitted *now*: one entry per axis the read touches
        — the whole database, or under partial replication the shards of
        ``keys`` — naming the frontier a replica must have reached there.
        """
        system = self.system
        tracker = system.tracker
        guarantee = self.guarantee
        # Monotonic session reads: never go behind a state this session
        # already observed (matters after move_to()).
        observed = (self._observed
                    if guarantee.orders_reads_within_session else None)
        bound = self.freshness_bound
        required = {}
        for axis in system._axes_touched(keys):
            sequence = tracker.required_sequence(guarantee, self.label, axis)
            if observed is not None:
                seen = observed.get(axis, 0)
                if seen > sequence:
                    sequence = seen
            if bound is not None:
                floor = tracker.newest(axis) - bound
                if floor > sequence:
                    sequence = floor
            required[axis] = sequence
        return required

    def _read_process(self, work: TransactionBody, required: dict,
                      max_wait: Optional[float], on_timeout: str,
                      degrade: bool = False):
        """The read path (Section 4), as a kernel process: route to a
        live replica holding every axis of ``required``, wait until its
        frontiers reach it, serve ``work`` there."""
        while True:
            secondary = self.secondary
            #: (axis, sequence required on it, promised bound) of a read
            #: degraded to a stale snapshot.
            degraded: Optional[tuple] = None
            if not (secondary.live and secondary.holds(required.keys())):
                # Client-session failover: retry on a live holder; the
                # seq(c) <= seq(DBsec) blocking rule still applies below,
                # so session guarantees survive the rebind.  A *retired*
                # replica (promoted to primary) fails over exactly like a
                # crashed one.
                if secondary.live:
                    # Wrong placement, not a failure: the bound replica
                    # simply does not subscribe to these shards.
                    self.shard_routing_misses += 1
                secondary = yield from self._failover(required)
            if not secondary.reached(required):
                kernel = self.system.kernel
                self.blocked_reads += 1
                started = kernel.now
                wait = secondary.seq_cond.wait_for(
                    lambda: secondary.reached(required)
                    or not secondary.live
                    or self._lost_window is not None)
                if max_wait is None:
                    yield wait
                else:
                    try:
                        yield Timeout(wait, max_wait)
                    except TimeoutExpired:
                        self.freshness_timeouts += 1
                        # Reported (and promised, when degrading) on the
                        # axis furthest behind.
                        axis = max(required, key=lambda a: required[a]
                                   - secondary.frontier(a))
                        wanted = required[axis]
                        reached = secondary.frontier(axis)
                        if on_timeout == "error":
                            self.total_read_wait += kernel.now - started
                            raise FreshnessTimeoutError(
                                f"replica {secondary.name} not at sequence "
                                f"{wanted} within {max_wait}s ("
                                + ("seq(DBsec)" if axis is None
                                   else f"frontier of shard {axis}")
                                + f"={reached})")
                        if degrade:
                            # The bound promised to the client, fixed at
                            # the degradation instant; frontiers are
                            # monotone, so the snapshot actually served
                            # (taken below) is never staler than this.
                            degraded = (axis, wanted,
                                        max(0, wanted - reached))
                        # 'stale': fall through and read what is there now.
                self.total_read_wait += kernel.now - started
                if self._lost_window is not None:
                    # A promotion truncated the state this read was
                    # waiting for; it would otherwise block forever.
                    raise LostUpdatesError(self.label, self._lost_window)
                if not secondary.live:
                    continue   # replica died/retired mid-wait: fail over
            return self._serve_read(secondary, work, required, degraded)

    def _serve_read(self, secondary: SecondarySite, work: TransactionBody,
                    required: dict, degraded: Optional[tuple] = None) -> Any:
        """Run ``work`` as a read-only transaction at ``secondary``, which
        is live, holds every axis of ``required`` and has reached it —
        or, with ``degraded``, was let off the wait — and note what the
        session has now seen.  Every read is served here, on the
        caller's stack or in :meth:`_read_process`."""
        txn = secondary.begin_read_only(metadata={
            "logical_id": self.system._txn_ids.next(),
            # A degraded read opts out of session ordering: it is
            # *documented* stale, so it carries its own label instead of
            # flagging as an inversion in the strong-session checker.
            "session": (f"{self.label}@d{self.degraded_reads}"
                        if degraded is not None else self.label),
        })
        if degraded is not None:
            axis, wanted, bound = degraded
            self._record_degraded_read(wanted, secondary.frontier(axis),
                                       bound)
        observed = self._observed
        for axis in required:
            frontier = secondary.frontier(axis)
            if frontier > observed.get(axis, 0):
                observed[axis] = frontier
        if secondary.seq_db > observed.get(None, 0):
            observed[None] = secondary.seq_db
        result = _run_body(work, txn)
        txn.commit()
        self.reads_executed += 1
        return result

    def _record_degraded_read(self, required: int, served: int,
                              bound: int) -> None:
        """Account one degraded read and its explicit staleness report."""
        report = StalenessReport(
            session=self.label, guarantee=self.guarantee.value,
            required_seq=required, served_seq=served, bound=bound,
            time=self.system.kernel.now)
        self.staleness_reports.append(report)
        controller = self.system.admission_controller
        if controller is not None:
            controller.degraded_reads += 1

    def _failover(self, required: dict):
        """Rebind this session to a live replica holding every axis of
        ``required`` (kernel sub-process).

        Prefers a holder that has already reached ``required`` (the read
        can run immediately); otherwise takes the one whose least
        advanced required axis is freshest and lets the ordinary
        freshness wait bring it up to ``seq(c)``.  While no live holder
        exists, probes with the same backoff as the promotion wait for
        up to ``failover_wait`` virtual time, then raises
        :class:`~repro.errors.ShardUnavailableError` when replicas are
        live but none holds the axes — or
        :class:`~repro.errors.SiteUnavailableError` when the whole tier
        is dark.
        """
        system = self.system
        kernel = system.kernel
        deadline = kernel.now + self.failover_wait
        retry = ExponentialBackoff(PROBE_WAIT_BASE, PROBE_WAIT_CAP)
        axes = required.keys()
        while True:
            live = [s for s in system.secondaries if s.live]
            holders = [s for s in live if s.holds(axes)]
            if holders:
                ready = [s for s in holders if s.reached(required)]
                target = max(ready or holders, key=lambda s: min(
                    (s.frontier(axis) for axis in axes), default=s.seq_db))
                self.failovers += 1
                self.secondary = target
                return target
            if kernel.now >= deadline:
                if live:
                    raise ShardUnavailableError(frozenset(axes), self.label)
                raise SiteUnavailableError(
                    f"session {self.label}: every secondary is down and "
                    f"none recovered within the failover wait budget "
                    f"({self.failover_wait}s)")
            yield kernel.sleep(min(retry.next_wait(), deadline - kernel.now))

    def move_to(self, secondary_index: int) -> None:
        """Rebind this session to another secondary (e.g. fail-over).

        Under STRONG_SESSION_SI / STRONG_SI the next read will wait until
        the new replica is at least as fresh as everything this session
        already saw; under PCSI and WEAK_SI it may observe time going
        backwards — which is exactly the behavioural gap between strong
        session SI and prefix-consistent SI (Section 7).
        """
        self._check_open()
        self.secondary = self.system._secondary_at(secondary_index)

    # -- convenience wrappers -----------------------------------------------
    def read(self, key: Any, default: Any = None) -> Any:
        """One-shot read-only transaction returning a single key."""
        return self.execute_read_only(
            lambda t: t.read(key, default=default), keys=[key])

    def read_many(self, keys: list[Any], default: Any = None) -> dict:
        """One-shot read-only transaction returning several keys."""
        return self.execute_read_only(
            lambda t: {k: t.read(k, default=default) for k in keys},
            keys=keys)

    def write(self, key: Any, value: Any) -> None:
        """One-shot update transaction writing a single key."""
        self.execute_update(lambda t: t.write(key, value))

    def write_many(self, items: dict) -> None:
        """One-shot update transaction writing several keys atomically."""
        def work(txn: Transaction) -> None:
            for key, value in items.items():
                txn.write(key, value)
        self.execute_update(work)


class _InteractiveUpdate:
    """Context manager for a multi-statement update transaction: one
    attempt of :meth:`ClientSession.execute_update` whose body is the
    ``with`` block."""

    def __init__(self, session: ClientSession, site: PrimarySite,
                 txn: Transaction):
        self.session = session
        #: The primary this transaction runs on, pinned at begin time: a
        #: promotion may swap ``system.primary`` while the block is open,
        #: but a lease demotion must be attributed to the site that
        #: aborted us.
        self.site = site
        self.txn = txn

    def __enter__(self) -> Transaction:
        return self.txn

    def __exit__(self, exc_type, exc, _tb) -> bool:
        session, txn = self.session, self.txn
        try:
            _raise_if_demoted(self.site, txn, exc)
            # A body that committed or aborted explicitly is respected.
            if txn.status is TxnStatus.ACTIVE:
                if exc_type is None:
                    txn.commit()
                else:
                    txn.abort(f"body raised {exc_type.__name__}")
        except Exception as failure:
            session._account_failure(failure)
            raise
        if txn.status is TxnStatus.COMMITTED:
            session._account_commit(txn)
        else:
            session._account_failure(exc)
        return False


class ReplicatedSystem:
    """A lazy-master replicated database (Figure 1).

    Parameters
    ----------
    num_secondaries:
        Number of full replicas executing read-only transactions.
    propagation_delay:
        Virtual-time delay applied to each propagated record.
    batch_interval:
        Optional propagation batching rate (the paper's simulation cycles
        every 10 s): records ship in frames at least this far apart, a
        record logged on an idle link at once and one logged sooner at
        the next free slot; ``None`` propagates each record
        individually.
    record_history:
        Keep a global :class:`HistoryRecorder` (default on) so checkers
        can audit every execution.
    history_detail:
        Recording fidelity when history is on: ``"ops"`` (default)
        records every read/write/scan and supports the SI checkers;
        ``"commits"`` records only transaction boundaries — orders of
        magnitude lighter for long throughput runs, but checkers refuse
        such histories.
    serial_refresh:
        Apply refresh transactions serially instead of concurrently
        (the ablation baseline; default off).
    parallel_refresh:
        Optional worker count enabling **dependency-tracked parallel
        refresh** at every secondary: commit records carry write-set
        fingerprints and a conflict dependency, at most this many
        applicators replay runnable (all conflicting predecessors
        applied) commits and install them out of primary order, and
        ``seq(DBsec)`` advances only along the contiguous applied
        prefix so every externally visible snapshot is still some
        primary state S^i.  Mutually exclusive with ``serial_refresh``;
        ``None`` (the default) is the paper's refresh: one applicator
        per commit, committing in primary commit order.
    refresh_apply_cost:
        Virtual-time cost charged per update operation while applying a
        refresh transaction (models the secondary's apply work; the
        quantity parallel refresh overlaps; default ``0.0``).
    autovacuum_interval:
        Optional virtual-time cadence for per-site periodic autovacuum
        callbacks that garbage-collect version chains at the GC horizon
        (primary and every secondary).  ``None`` (the default) never vacuums,
        matching earlier versions exactly.
    channel_faults:
        Optional :class:`~repro.faults.channel.ChannelFaults` injected on
        every propagator->secondary data channel and every ack channel
        back.  Setting it gives each secondary its own
        :class:`~repro.core.propagation.ReliableLink`, ``site.link`` for
        the whole run (a promotion re-attaches the sites not retired
        through theirs; a promoted site keeps its link and counters),
        whose sequence-numbered ack/retransmission protocol restores
        in-order exactly-once delivery over the lossy channel; the base
        retransmission timeout is four propagation delays, floored at
        1.0 virtual seconds.  ``None`` (the default) propagates directly.
    fault_seed:
        Master seed for all channel fault streams; every chaos run is a
        deterministic function of (workload, fault plan, this seed).
    promotion:
        Optional :class:`~repro.core.promotion.PromotionConfig` enabling
        secondary promotion after a permanent primary failure
        (:meth:`kill_primary` + :meth:`promote_secondary`), including the
        bounded update-retry behaviour of client sessions.  With ``None``
        (the default) updates fail with
        :class:`~repro.errors.SiteUnavailableError` while the primary is
        down.
    sharding:
        Optional :class:`~repro.core.sharding.ShardingConfig` enabling
        **keyspace sharding with partial replication**: keys map to
        shards by fingerprint, each secondary subscribes to a shard
        subset (``placement``; ``None`` subscribes everyone to every
        shard), and the propagator ships each commit's write set
        projected onto the endpoint's subscription over a commit-only
        stream.  Read-only transactions route to a live replica holding
        every shard they touch (declared via the ``keys=`` hint) and
        session guarantees block on those shards' frontiers — the same
        read path as without sharding, with a shard where the whole
        database was.  Updates still all execute at the single primary.
        ``None`` (the default) is classic full replication.
    failover:
        Optional :class:`~repro.core.failover.FailoverConfig` enabling
        **autonomous** failover: the primary piggybacks heartbeats and
        leases on the propagation links, a periodic tick checks each
        secondary for heartbeat silence, and the
        :class:`~repro.core.failover.AutoFailover` coordinator promotes
        the freshest live secondary once a quorum of suspicions
        coincides with a provable lease expiry — no
        scripted ``promote_secondary`` needed.  Implies ``promotion``
        (a default :class:`PromotionConfig` is installed when none is
        given) and routes propagation through
        :class:`~repro.core.propagation.ReliableLink` instances so the
        control plane has channels to ride on.  ``None`` (the default)
        builds none of it: no tick, no control traffic, no extra
        random draws.
    admission:
        Optional :class:`~repro.core.admission.AdmissionConfig` enabling
        **overload protection** in front of the primary: a token-bucket
        rate limiter with a bounded admission queue and a configurable
        shed policy (typed :class:`~repro.errors.OverloadError`),
        client-side retry budgets with jittered exponential backoff from
        a dedicated seeded stream, per-session circuit breakers
        (:class:`~repro.errors.CircuitOpenError`), brownout backpressure
        driven by secondary refresh backlog, and opt-in graceful
        degradation of blocking reads to an explicitly-reported stale
        snapshot.  ``None`` (the default) builds none of it: no
        processes, no RNG draws.
    """

    def __init__(self, num_secondaries: int = 1, *,
                 propagation_delay: float = 0.0,
                 batch_interval: Optional[float] = None,
                 record_history: bool = True,
                 history_detail: str = "ops",
                 serial_refresh: bool = False,
                 parallel_refresh: Optional[int] = None,
                 refresh_apply_cost: float = 0.0,
                 autovacuum_interval: Optional[float] = None,
                 channel_faults: Optional[ChannelFaults] = None,
                 fault_seed: int = 0,
                 promotion: Optional[PromotionConfig] = None,
                 sharding: Optional[ShardingConfig] = None,
                 failover: Optional[FailoverConfig] = None,
                 admission: Optional[AdmissionConfig] = None):
        if num_secondaries < 1:
            raise ConfigurationError("need at least one secondary site")
        self.kernel = Kernel()
        #: Admission control is constructed before any session: sessions
        #: consult the controller for breakers and read deadlines.
        self.admission = admission
        self.admission_controller: Optional[AdmissionController] = None
        self.recorder: Optional[HistoryRecorder] = (
            HistoryRecorder(detail=history_detail) if record_history
            else None)
        self.sharding = sharding
        subscriptions: list[Optional[frozenset]] = [None] * num_secondaries
        if sharding is not None:
            sharding.validate_for(num_secondaries)
            subscriptions = [sharding.subscription_for(i)
                             for i in range(num_secondaries)]
        self.primary = PrimarySite(self.kernel, SIDatabase(
            name="primary", log=LogicalLog(name="primary-log"),
            recorder=self.recorder, clock=self.kernel.clock))
        self.secondaries: list[SecondarySite] = [
            SecondarySite(self.kernel, name=f"secondary-{i + 1}",
                          recorder=self.recorder,
                          serial_refresh=serial_refresh,
                          parallel_refresh=parallel_refresh,
                          refresh_apply_cost=refresh_apply_cost,
                          subscription=subscriptions[i],
                          num_shards=(None if sharding is None
                                      else sharding.shards))
            for i in range(num_secondaries)
        ]
        if sharding is not None and self.recorder is not None:
            for secondary in self.secondaries:
                self.recorder.record_subscription(
                    secondary.name, secondary.subscription,
                    sharding.shards, self.kernel.now)
        self.autovacuums: list[AutovacuumDaemon] = []
        if autovacuum_interval is not None:
            self.autovacuums = [
                AutovacuumDaemon(self.kernel, site.engine,
                                 autovacuum_interval,
                                 name=f"autovacuum@{site.name}")
                for site in [self.primary, *self.secondaries]
            ]
        self.propagator = Propagator(self.kernel, self.primary.log,
                                     delay=propagation_delay,
                                     batch_interval=batch_interval,
                                     sharding=sharding)
        # Autonomous failover needs link channels for its control plane
        # (heartbeats/leases) and for partitions to have something to
        # cut, even when the channels themselves are fault-free.
        if channel_faults is not None or failover is not None:
            faults = channel_faults or ChannelFaults()
            streams = RandomStreams(fault_seed)
            timeout = max(1.0, 4.0 * propagation_delay)
            for secondary in self.secondaries:
                secondary.link = ReliableLink(
                    self.kernel, secondary,
                    faults=faults, ack_faults=faults,
                    rng=streams[f"channel.{secondary.name}.data"],
                    ack_rng=streams[f"channel.{secondary.name}.ack"],
                    ack_delay=propagation_delay, timeout=timeout)
        for secondary in self.secondaries:
            self.propagator.attach(secondary)
        self.tracker = SequenceTracker()
        self._session_ids = IdAllocator("session")
        self._txn_ids = IdAllocator("txn")
        self._next_secondary = 0
        self.promotion = promotion
        if failover is not None and promotion is None:
            # Autonomous failover presupposes the promotion machinery
            # (and the client-side bounded retry that rides on it).
            self.promotion = PromotionConfig()
        self.promotion_reports: list[PromotionReport] = []
        #: Every session ever opened (promotion reconciles their seq(c)
        #: state); closed sessions are pruned at each promotion.
        self._sessions: list[ClientSession] = []
        self.failover = failover
        self.auto_failover: Optional[AutoFailover] = None
        if failover is not None:
            self.auto_failover = AutoFailover(self, failover)
            self.auto_failover.start()
        if admission is not None:
            self.admission_controller = AdmissionController(self, admission)

    @property
    def promotions(self) -> int:
        """Promotions so far, which is also the cluster epoch (0 for the
        original topology)."""
        return len(self.promotion_reports)

    cluster_epoch = promotions

    @property
    def fenced_stale_records(self) -> int:
        """Stale pre-promotion records discarded by epoch fences."""
        return sum(r.fenced_records for r in self.promotion_reports)

    @property
    def lost_update_windows(self) -> int:
        """Promotions that truncated acknowledged commits."""
        return sum(1 for r in self.promotion_reports if r.lost_commits)

    # -- sessions -------------------------------------------------------------
    def session(self, guarantee: Guarantee = Guarantee.STRONG_SESSION_SI,
                secondary: Optional[int] = None,
                freshness_bound: Optional[int] = None,
                failover_wait: float = 0.0,
                priority: int = 0) -> ClientSession:
        """Open a client session bound to a secondary (round-robin default).

        ``freshness_bound`` optionally caps staleness: every read waits
        until its replica is within that many commits of the primary.
        ``failover_wait`` bounds how long a read waits for *any* replica
        to come back when every secondary is crashed (failover to an
        already-live replica is immediate regardless).  ``priority``
        ranks the session under ``by-session-priority`` admission
        shedding (higher keeps its queue slot; ignored otherwise).
        """
        if freshness_bound is not None and freshness_bound < 0:
            raise ConfigurationError("freshness_bound must be >= 0")
        if failover_wait < 0:
            raise ConfigurationError("failover_wait must be >= 0")
        if secondary is None:
            # Round-robin over non-retired replicas (identical arithmetic
            # to the classic single-step advance while none are retired).
            for _ in range(len(self.secondaries)):
                index = self._next_secondary
                self._next_secondary = (index + 1) % len(self.secondaries)
                if not self.secondaries[index].retired:
                    break
        else:
            index = secondary
        session = ClientSession(self, self._session_ids.next(), guarantee,
                                self._secondary_at(index),
                                freshness_bound=freshness_bound,
                                failover_wait=failover_wait,
                                priority=priority)
        self._sessions.append(session)
        return session

    def _secondary_at(self, index: int) -> SecondarySite:
        if not 0 <= index < len(self.secondaries):
            raise ConfigurationError(
                f"secondary index {index} out of range "
                f"[0, {len(self.secondaries)})")
        return self.secondaries[index]

    def _shards_of_txn(self, txn: Transaction) -> frozenset:
        """Shards a committed update's write set touched (none when
        sharding is off: the commit lies on the whole-database axis
        only, which the tracker records for every commit)."""
        if self.sharding is None:
            return frozenset()
        return self.sharding.shards_touched(txn.write_set)

    def _axes_touched(self, keys: Optional[list]) -> frozenset:
        """Freshness axes a read of ``keys`` must be fresh on: the whole
        database, or under partial replication the keys' shards (every
        shard when the key set is undeclared)."""
        sharding = self.sharding
        if sharding is None:
            return WHOLE_DATABASE
        if keys is None:
            return frozenset(range(sharding.shards))
        return sharding.shards_touched(keys)

    def promotable(self) -> list[SecondarySite]:
        """The live replicas that could take over as primary: those
        every commit reaches whole."""
        return [site for site in self.secondaries
                if site.live and site.full_coverage]

    # -- global progress --------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the kernel (propagation and refresh make progress)."""
        self.kernel.run(until=until)

    def quiesce(self) -> None:
        """Advance until all propagated work has been applied everywhere.

        Unlike a bare ``kernel.run()``, this terminates even when
        periodic callbacks (monitoring probes, batching propagators) keep
        future events scheduled forever: it steps the kernel only until
        the *replication pipeline* is idle.
        """
        guard = 0
        while not self._replication_idle():
            if not self.kernel.step():
                raise ReplicationError(
                    "replication pipeline is stuck: unapplied work "
                    "remains but no event can make progress")
            guard += 1
            if guard > 10_000_000:   # pragma: no cover - safety net
                raise ReplicationError("quiesce did not converge")

    def _replication_idle(self) -> bool:
        if self.admission_controller is not None \
                and not self.admission_controller.idle:
            return False
        if not self.propagator.idle:
            return False
        for secondary in self.secondaries:
            if not secondary.live:
                continue
            if secondary.in_flight or not secondary.refresher.idle:
                return False
        return True

    # -- failure injection (Section 3.4) ------------------------------------------
    def crash_secondary(self, index: int) -> None:
        """Fail a secondary: queued updates and refresh state are lost."""
        site = self.secondaries[index]
        if site.retired:
            raise ConfigurationError(
                f"{site.name!r} was promoted to primary; use "
                f"crash_primary()/kill_primary()")
        site.crash()

    def recover_secondary(self, index: int) -> None:
        """Recover a secondary per Section 3.4.

        Takes a quiesced copy of the primary, reinstalls it, and
        reinitialises ``seq(DBsec)`` from the copy's commit timestamp.
        The log sniffer archives every commit as it is logged, so the
        copy already holds the newest one: nothing is left to replay, and
        a commit still buffered in a batch reaches the secondary again
        with the next frame, where the refresher drops it as stale.  When
        the secondary has a :class:`ReliableLink`, the link is resynced
        first (new epoch, sequence numbers restart) so stale
        retransmissions cannot corrupt the recovered stream.
        """
        secondary = self.secondaries[index]
        if secondary.retired:
            raise ConfigurationError(
                f"{secondary.name!r} was promoted to primary; it cannot "
                f"rejoin the replica tier")
        if secondary.link is not None:
            secondary.link.resync()
        state, commit_ts = self.primary.quiesced_copy()
        # A partial subscriber reinstalls only its own shards' keys, and
        # its frontier floors are per shard: the newest commit *touching*
        # each (<= commit_ts since the log sniffer is synchronous), never
        # the scalar copy timestamp — see SecondarySite.recover for why
        # inflating them deadlocks.
        newest = self.propagator.newest_commit_ts
        secondary.recover(
            secondary.projection(state), commit_ts,
            {shard: newest(shard) for shard in secondary.shard_frontier})

    def crash_primary(self) -> None:
        """Fail the primary: in-flight update transactions abort (the
        aborts propagate so secondaries discard their refresh twins) and
        new update transactions raise
        :class:`~repro.errors.SiteUnavailableError` until restart."""
        self.primary.crash()

    def restart_primary(self) -> int:
        """Restart the primary from its write-ahead (logical) log.

        The committed state is rebuilt exactly; read-only traffic at the
        secondaries is never interrupted (the lazy-master architecture's
        availability story).  Returns the recovered commit timestamp.
        """
        return self.primary.restart()

    def kill_primary(self) -> None:
        """Permanently fail the primary (disk and WAL gone).

        In-flight updates abort exactly as in :meth:`crash_primary`; the
        difference is that :meth:`restart_primary` refuses afterwards —
        the only way forward is :meth:`promote_secondary`.
        """
        self.primary.kill()

    def partition(self, index: Optional[int] = None) -> None:
        """Partition the network: blackhole one secondary's link — or,
        with ``index=None``, *every* link, cutting the primary off from
        the whole replica tier (the classic zombie-primary setup).

        While partitioned, data traffic (records, acks) is held and
        released on :meth:`heal`, and a link's retransmission timer
        stops until then; control traffic
        (heartbeats, lease grants) is dropped outright, which is what
        lets the failure detector see the partition.  Requires
        link-based propagation (``channel_faults`` or ``failover``).
        """
        for link in self._partition_links(index):
            link.blackhole()

    def heal(self, index: Optional[int] = None) -> None:
        """Heal a partition (one link, or all of them with ``None``).

        Held data payloads re-enter the channels in original send order;
        stale-epoch survivors from a fenced regime are counted in
        :attr:`zombie_records_fenced` on arrival and dropped.
        """
        for link in self._partition_links(index):
            link.heal()

    def _partition_links(self, index: Optional[int]) -> list[ReliableLink]:
        if self.secondaries[0].link is None:
            raise ConfigurationError(
                "partitions need link-based propagation; construct the "
                "system with channel_faults= or failover=")
        if index is None:
            return [site.link for site in self.secondaries]
        return [self._secondary_at(index).link]

    @property
    def partitions_active(self) -> int:
        """Number of links currently blackholed by a partition."""
        return sum(1 for site in self.secondaries
                   if site.link is not None and site.link.blackholed)

    @property
    def zombie_records_fenced(self) -> int:
        """Stale-epoch records from a fenced (pre-promotion) regime that
        arrived after their partition healed and were dropped."""
        return sum(site.link.zombie_records_fenced
                   for site in self.secondaries if site.link is not None)

    def promote_secondary(self,
                          index: Optional[int] = None) -> PromotionReport:
        """Promote a live secondary (default: the freshest) to primary
        under a new cluster epoch.  Requires ``promotion`` to have been
        configured; see :mod:`repro.core.promotion` for the mechanics."""
        return promote(self, index=index)

    # -- inspection ----------------------------------------------------------------
    def primary_state(self) -> dict:
        """Latest committed key-value state at the primary."""
        return self.primary.engine.state_at()

    def secondary_state(self, index: int) -> dict:
        """Latest committed key-value state at a secondary."""
        return self.secondaries[index].engine.state_at()

    def replica_lag(self, secondary: SecondarySite) -> int:
        """How many commits ``secondary`` is behind, on the axes it holds.

        Each frontier is measured against the newest commit on its axis,
        so a partial subscriber that holds every commit on its shards is
        0 behind.  Under full replication this is
        ``primary_commit_ts - seq(DBsec)``: the propagator's newest
        commit is the primary's newest outside a primary commit, which
        advances the engine's counter and then logs the commit in one
        synchronous call.
        """
        newest = self.propagator.newest_commit_ts
        return max(max(0, newest(axis) - secondary.frontier(axis))
                   for axis in secondary.axes)

    def max_staleness(self) -> int:
        """Largest :meth:`replica_lag` across live secondaries.

        Raises
        ------
        NoLiveSecondariesError
            When every secondary is crashed: staleness is undefined with
            no live replica, and silently returning a number would let
            freshness-based routing treat a fully-dark replica tier as
            up to date.
        """
        lags = [self.replica_lag(secondary)
                for secondary in self.secondaries if secondary.live]
        if not lags:
            raise NoLiveSecondariesError(
                "max_staleness is undefined: every secondary is crashed "
                "or retired")
        return max(lags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReplicatedSystem primary@{self.primary.latest_commit_ts} "
                f"secondaries={[s.seq_db for s in self.secondaries]}>")
