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
from repro.storage.engine import Transaction, TxnStatus
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
        #: Reads served from a stale snapshot under graceful degradation,
        #: each with an explicit :class:`StalenessReport` appended to
        #: :attr:`staleness_reports`.
        self.degraded_reads = 0
        self.staleness_reports: list[StalenessReport] = []
        self._breaker: Optional[CircuitBreaker] = None
        controller = system.admission_controller
        if controller is not None \
                and controller.config.breaker_threshold > 0:
            self._breaker = CircuitBreaker(
                system.kernel, label,
                controller.config.breaker_threshold,
                controller.config.breaker_cooldown,
                controller.config.breaker_cooldown_cap)

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
        system = self.system
        if system.admission_controller is not None:
            process = system.kernel.spawn(
                self._update_process(work, max_retries=max_retries),
                name=f"update@{self.label}")
            return system.kernel.run_until_complete(process)
        attempts = 0
        while True:
            primary = system.primary
            try:
                txn = primary.begin_update(metadata={
                    "logical_id": system._txn_ids.next(),
                    "session": self.label,
                })
            except SiteUnavailableError:
                if system.promotion is None:
                    raise
                # Permanent-failure mode: wait (bounded) for a promotion
                # to install a new primary, then retry the forward there.
                self._await_primary()
                self._check_not_lost()
                continue
            try:
                result = _run_body(work, txn)
                commit_ts = txn.commit()
            except FirstCommitterWinsError:
                attempts += 1
                self.fcw_retries += 1
                if attempts > max_retries:
                    raise
                continue
            except TransactionStateError as exc:
                if txn.txn_id in primary.demote_aborted:
                    # The primary's lease lapsed while this transaction
                    # was open (the body drove the kernel, e.g. via a
                    # nested read): the self-demotion aborted it, and the
                    # commit must surface that — never acknowledge.
                    raise LeaseExpiredError(txn.txn_id,
                                            primary.name) from exc
                raise
            break
        system.tracker.on_primary_commit(self.label, commit_ts,
                                         system._shards_of_txn(txn))
        self.updates_committed += 1
        return result

    def _update_process(self, work: TransactionBody, *,
                        max_retries: int = 25):
        """Kernel-process form of :meth:`execute_update`.

        Used on the admission-control path and by open-loop drivers
        that submit many concurrent client operations (the overload
        bench/storm) — sessions stay sequential internally, but distinct
        sessions' operations overlap, which is what fills the bounded
        admission queue.  ``work`` must not drive the kernel.
        """
        self._check_open()
        self._check_not_lost()
        system = self.system
        controller = system.admission_controller
        breaker = self._breaker
        if controller is not None:
            yield from self._admission_gate(controller)
        attempts = 0
        try:
            while True:
                primary = system.primary
                try:
                    txn = primary.begin_update(metadata={
                        "logical_id": system._txn_ids.next(),
                        "session": self.label,
                    })
                except SiteUnavailableError:
                    if system.promotion is None:
                        raise
                    yield from self._await_primary_body()
                    self._check_not_lost()
                    continue
                try:
                    result = _run_body(work, txn)
                    commit_ts = txn.commit()
                except FirstCommitterWinsError:
                    attempts += 1
                    self.fcw_retries += 1
                    if attempts > max_retries:
                        raise
                    continue
                except TransactionStateError as exc:
                    if txn.txn_id in primary.demote_aborted:
                        raise LeaseExpiredError(txn.txn_id,
                                                primary.name) from exc
                    raise
                break
        except (SiteUnavailableError, NoPrimaryError, LeaseExpiredError):
            # A struggling or absent primary: the breaker counts it so
            # the session fails fast instead of hammering the cluster.
            if breaker is not None:
                breaker.record_failure()
            raise
        system.tracker.on_primary_commit(self.label, commit_ts,
                                         system._shards_of_txn(txn))
        self.updates_committed += 1
        if breaker is not None:
            breaker.record_success()
        return result

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
        config = controller.config
        retries_left = config.retry_budget
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
                        config.retry_base, config.retry_cap,
                        rng=(controller.retry_rng(self.label)
                             if config.retry_jitter else None),
                        jitter=config.retry_jitter)
                yield self.system.kernel.sleep(schedule.next_wait())

    def update_transaction(self) -> "_InteractiveUpdate":
        """Interactive update transaction spanning multiple statements.

        >>> # with session.update_transaction() as txn:
        >>> #     stock = txn.read("stock")
        >>> #     txn.write("stock", stock - 1)

        Commits on normal exit (no automatic FCW retry — the caller sees
        :class:`~repro.errors.FirstCommitterWinsError` and decides);
        aborts if the body raises.  Admission control (when configured)
        gates the begin exactly like :meth:`execute_update`.
        """
        self._check_open()
        self._check_not_lost()
        if self.system.admission_controller is not None:
            process = self.system.kernel.spawn(
                self._admission_gate(self.system.admission_controller),
                name=f"admit@{self.label}")
            self.system.kernel.run_until_complete(process)
        if self.system.promotion is not None and self.system.primary.crashed:
            self._await_primary()
            self._check_not_lost()
        return _InteractiveUpdate(self)

    def _await_primary(self) -> None:
        """Block (in virtual time) until a live primary exists.

        A promotion swaps ``system.primary`` for a new object, so the
        predicate re-reads the attribute on every probe.  Bounded
        exponential backoff over the promotion config's
        ``promotion_wait`` budget; raises
        :class:`~repro.errors.NoPrimaryError` on exhaustion.
        """
        process = self.system.kernel.spawn(
            self._await_primary_body(), name=f"await-primary@{self.label}")
        self.system.kernel.run_until_complete(process)

    def _await_primary_body(self):
        system = self.system
        config = system.promotion
        kernel = system.kernel
        deadline = kernel.now + config.promotion_wait
        retry = ExponentialBackoff(config.retry_backoff, config.max_backoff)
        while system.primary.crashed:
            if kernel.now >= deadline:
                self.no_primary_errors += 1
                raise NoPrimaryError(
                    f"session {self.label}: no live primary appeared "
                    f"within the promotion wait budget "
                    f"({config.promotion_wait}s)")
            yield kernel.sleep(min(retry.next_wait(), deadline - kernel.now))

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
        kernel = self.system.kernel
        if kernel.nothing_due() and secondary.live \
                and secondary.holds(required.keys()) \
                and secondary.reached(required):
            # Nothing to wait for and nothing due before it: a spawned
            # _read_process would be the next event dispatched, would
            # serve the read in its first step and finish, so serve it
            # here — the same code in the same order, minus one spawn
            # and one dispatch.
            return self._serve_read(secondary, work, required)
        process = kernel.spawn(self._read_process(work, *plan),
                               name=f"read@{self.label}")
        return kernel.run_until_complete(process)

    def _read_only_process(self, work: TransactionBody,
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

    def execute_read_only_at(self, sequence: int,
                             work: TransactionBody) -> Any:
        """Time-travel read: run ``work`` against the snapshot the primary
        produced with commit timestamp ``sequence``.

        Secondary refresh commits mirror primary commit numbering, so any
        ``sequence <= seq(DBsec)`` is served locally from the replica's
        version history (the weak-SI time-travel facility of the related
        work the paper cites); newer sequences wait for refresh to catch
        up first.  Vacuumed-away history raises.  A time-travel read
        never fails over: a replica that is (or goes) down or was
        promoted raises :class:`~repro.errors.SiteUnavailableError`.
        """
        self._check_open()
        self._check_not_lost()
        if sequence < 0:
            raise ConfigurationError("sequence must be >= 0")

        def body():
            secondary = self.secondary
            if secondary.live and sequence > secondary.seq_db:
                self.blocked_reads += 1
                started = self.system.kernel.now
                yield secondary.seq_cond.wait_for(
                    lambda: secondary.seq_db >= sequence
                    or not secondary.live)
                self.total_read_wait += self.system.kernel.now - started
            if not secondary.live:
                raise SiteUnavailableError(
                    f"session {self.label}: replica {secondary.name} "
                    f"{'was promoted to primary' if secondary.retired else 'is down'}"
                    f"; rebind with move_to() for time-travel reads")
            txn = secondary.engine.begin(snapshot_ts=sequence, metadata={
                "logical_id": self.system._txn_ids.next(),
                # Time-travel reads opt out of session ordering: they are
                # historical by construction, so give them their own
                # label rather than flagging them as inversions.
                "session": f"{self.label}@t{sequence}",
            })
            result = _run_body(work, txn)
            txn.commit()
            self.reads_executed += 1
            return result

        process = self.system.kernel.spawn(
            body(), name=f"timetravel@{self.label}")
        return self.system.kernel.run_until_complete(process)

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
            # A degraded read opts out of session ordering (like a
            # time-travel read): it is *documented* stale, so it carries
            # its own label instead of flagging as an inversion in the
            # strong-session checker.
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
        self.degraded_reads += 1
        report = StalenessReport(
            session=self.label, guarantee=self.guarantee.value,
            required_seq=required, served_seq=served, bound=bound,
            time=self.system.kernel.now)
        self.staleness_reports.append(report)
        controller = self.system.admission_controller
        if controller is not None:
            controller.degraded_reads += 1

    def _failover(self, required: dict, backoff: float = 0.25):
        """Rebind this session to a live replica holding every axis of
        ``required`` (kernel sub-process).

        Prefers a holder that has already reached ``required`` (the read
        can run immediately); otherwise takes the one whose least
        advanced required axis is freshest and lets the ordinary
        freshness wait bring it up to ``seq(c)``.  While no live holder
        exists, retries with exponential backoff for up to
        ``failover_wait`` virtual time, then raises
        :class:`~repro.errors.ShardUnavailableError` when replicas are
        live but none holds the axes — or
        :class:`~repro.errors.SiteUnavailableError` when the whole tier
        is dark.
        """
        system = self.system
        kernel = system.kernel
        deadline = kernel.now + self.failover_wait
        retry = ExponentialBackoff(backoff, 8.0)
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
    """Context manager for a multi-statement update transaction."""

    def __init__(self, session: ClientSession):
        self.session = session
        system = session.system
        #: The primary this transaction runs on, pinned at begin time: a
        #: promotion may swap ``system.primary`` while the block is open,
        #: but a lease demotion must be attributed to the site that
        #: aborted us.
        self.site = system.primary
        self.txn = self.site.begin_update(metadata={
            "logical_id": system._txn_ids.next(),
            "session": session.label,
        })

    def __enter__(self) -> Transaction:
        return self.txn

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if self.txn.status is TxnStatus.ABORTED \
                and self.txn.txn_id in self.site.demote_aborted:
            # The primary self-demoted (lease expiry) while this block
            # was open.  The commit was never acknowledged; say so with
            # the typed error instead of silently swallowing the abort.
            raise LeaseExpiredError(self.txn.txn_id,
                                    self.site.name) from exc
        if self.txn.status is not TxnStatus.ACTIVE:
            # The body committed/aborted explicitly; respect it but still
            # account for a commit below.
            pass
        elif exc_type is not None:
            self.txn.abort(f"body raised {exc_type.__name__}")
            return False
        else:
            self.txn.commit()
        if self.txn.status is TxnStatus.COMMITTED:
            system = self.session.system
            system.tracker.on_primary_commit(
                self.session.label, self.txn.commit_ts,
                system._shards_of_txn(self.txn))
            self.session.updates_committed += 1
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
        Optional propagation batching cycle (the paper's simulation uses
        10 s); ``None`` propagates each record individually.
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
        Optional virtual-time cadence for per-site autovacuum daemons
        that garbage-collect version chains at the GC horizon (primary
        and every secondary).  ``None`` (the default) never vacuums,
        matching earlier versions exactly.
    channel_faults:
        Optional :class:`~repro.faults.channel.ChannelFaults` injected on
        every propagator->secondary data channel.  Setting this (or
        ``ack_faults``) routes propagation through per-secondary
        :class:`~repro.core.propagation.ReliableLink` instances whose
        sequence-numbered ack/retransmission protocol restores in-order
        exactly-once delivery over the lossy channel.  When both are
        ``None`` (the default) propagation is direct and bit-identical
        to the fault-free system.
    ack_faults:
        Faults for the secondary->propagator ack channels (defaults to
        ``channel_faults`` when links are enabled).
    fault_seed:
        Master seed for all channel fault streams; every chaos run is a
        deterministic function of (workload, fault plan, this seed).
    retransmit_timeout:
        Base retransmission timeout for reliable links (default: four
        propagation delays, floored at 1.0 virtual seconds).
    promotion:
        Optional :class:`~repro.core.promotion.PromotionConfig` enabling
        secondary promotion after a permanent primary failure
        (:meth:`kill_primary` + :meth:`promote_secondary`), including the
        bounded update-retry behaviour of client sessions.  ``None`` (the
        default) keeps the system bit-identical to its pre-promotion
        behaviour: updates fail with
        :class:`~repro.errors.SiteUnavailableError` while the primary is
        down, exactly as before.
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
        random draws — bit-identical to the pre-failover system.
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
        processes, no RNG draws, bit-identical to the pre-admission
        system.
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
                 kernel: Optional[Kernel] = None,
                 channel_faults: Optional[ChannelFaults] = None,
                 ack_faults: Optional[ChannelFaults] = None,
                 fault_seed: int = 0,
                 retransmit_timeout: Optional[float] = None,
                 promotion: Optional[PromotionConfig] = None,
                 sharding: Optional[ShardingConfig] = None,
                 failover: Optional[FailoverConfig] = None,
                 admission: Optional[AdmissionConfig] = None):
        if num_secondaries < 1:
            raise ConfigurationError("need at least one secondary site")
        self.kernel = kernel or Kernel()
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
        self.primary = PrimarySite(self.kernel, recorder=self.recorder)
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
        use_links = (channel_faults is not None or ack_faults is not None
                     or failover is not None)
        #: Every link ever created, in secondary order — promotions
        #: orphan the promoted site's link, but its channels can still
        #: hold partition-captured traffic whose eventual (fenced)
        #: delivery the zombie accounting must observe.
        self._all_links: list[ReliableLink] = []
        if use_links:
            data_faults = channel_faults or ChannelFaults()
            returns_faults = ack_faults if ack_faults is not None \
                else data_faults
            streams = RandomStreams(fault_seed)
            timeout = retransmit_timeout if retransmit_timeout is not None \
                else max(1.0, 4.0 * propagation_delay)
            for secondary in self.secondaries:
                link = ReliableLink(
                    self.kernel, secondary,
                    faults=data_faults, ack_faults=returns_faults,
                    rng=streams[f"channel.{secondary.name}.data"],
                    ack_rng=streams[f"channel.{secondary.name}.ack"],
                    ack_delay=propagation_delay, timeout=timeout)
                self.propagator.attach(secondary, link=link)
                self._all_links.append(link)
        else:
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
        #: Bumped by each promotion; 0 for the original topology.
        self.cluster_epoch = 0
        self.promotions = 0
        #: Stale pre-promotion records discarded by epoch fences.
        self.fenced_stale_records = 0
        #: Promotions that truncated acknowledged commits.
        self.lost_update_windows = 0
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
        periodic daemons (monitoring probes, batching propagators) keep
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

        Takes a quiesced copy of the primary, reinstalls it, reinitialises
        ``seq(DBsec)`` from the copy's commit timestamp, and replays the
        archived tail of commits through the refresh mechanism.  When the
        secondary is fed through a :class:`ReliableLink`, the link is
        resynced first (new epoch, sequence numbers restart) so stale
        retransmissions cannot corrupt the recovered stream.
        """
        secondary = self.secondaries[index]
        if secondary.retired:
            raise ConfigurationError(
                f"{secondary.name!r} was promoted to primary; it cannot "
                f"rejoin the replica tier")
        link = self.propagator.link_for(secondary)
        if link is not None:
            link.resync()
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
        self.propagator.replay_to(secondary, after_commit_ts=commit_ts)
        # Caught up means level with the newest commit on every axis the
        # replica holds (the primary's newest overall is unreachable for
        # a partial subscriber: commits outside its shards never ship).
        secondary.track_catch_up(min(
            max((newest(axis) for axis in secondary.axes), default=0),
            self.primary.latest_commit_ts))

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

        While partitioned, data traffic (records, retransmissions, acks)
        is held and released on :meth:`heal`; control traffic
        (heartbeats, lease grants) is dropped outright, which is what
        lets the failure detector see the partition.  Requires
        link-based propagation (``channel_faults``/``ack_faults``/
        ``failover``).
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
        if not self._all_links:
            raise ConfigurationError(
                "partitions need link-based propagation; construct the "
                "system with channel_faults=, ack_faults= or failover=")
        if index is None:
            return self._all_links
        self._secondary_at(index)
        return [self._all_links[index]]

    @property
    def partitions_active(self) -> int:
        """Number of links currently blackholed by a partition."""
        return sum(1 for link in self._all_links if link.blackholed)

    @property
    def zombie_records_fenced(self) -> int:
        """Stale-epoch records from a fenced (pre-promotion) regime that
        arrived after their partition healed and were dropped."""
        return sum(link.zombie_records_fenced for link in self._all_links)

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

    def max_staleness(self) -> int:
        """Largest frontier lag across live secondaries, in commits.

        Raises
        ------
        NoLiveSecondariesError
            When every secondary is crashed: staleness is undefined with
            no live replica, and silently returning a number would let
            freshness-based routing treat a fully-dark replica tier as
            up to date.
        """
        # A replica is only as stale as the axes it holds: each frontier
        # is measured against the newest commit on that axis.
        newest = self.propagator.newest_commit_ts
        lags = [max(max(0, newest(axis) - secondary.frontier(axis))
                    for axis in secondary.axes)
                for secondary in self.secondaries if secondary.live]
        if not lags:
            raise NoLiveSecondariesError(
                "max_staleness is undefined: every secondary is crashed "
                "or retired")
        return max(lags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReplicatedSystem primary@{self.primary.latest_commit_ts} "
                f"secondaries={[s.seq_db for s in self.secondaries]}>")
