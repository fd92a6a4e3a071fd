"""Autonomous failover — heartbeats, leases, suspicion and promotion.

The paper's recovery story (Section 3.4) and PR 5's promotion machinery
both assume an *oracle*: something outside the system knows the primary
is gone and invokes ``promote()``.  This module closes that loop.  The
control plane has three cooperating parts, all evaluated by one periodic
kernel callback, :meth:`AutoFailover._tick`, every ``heartbeat_interval``
of virtual time:

1. **Heartbeats & leases (primary side).**  The primary piggybacks a
   :data:`HEARTBEAT` datagram on every propagation link each
   ``heartbeat_interval``.  A secondary that receives one replies with a
   lease grant, which is nothing but its local (virtual) send time; the
   primary's lease extends to ``granted_at + lease_duration`` of the
   freshest grant it has received.  Control datagrams ride the same
   lossy channels as replication traffic — and are silenced by the same
   partitions — but bypass the sequence/ack protocol: retransmitting a
   heartbeat would blind the failure detector.

2. **Suspicion (secondary side).**  Each tick checks every secondary's
   heartbeat silence: more than ``suspicion_timeout`` raises a
   *suspicion*.  A later heartbeat retracts it (counted as a
   ``false_suspicion`` — the detector fired on a live primary, e.g.
   across a short partition or a burst of dropped datagrams).

3. **The coordinator.**  :class:`AutoFailover` declares the primary dead
   only when (a) a **quorum** of live secondaries suspect it *and* (b)
   the primary's lease has provably lapsed — i.e. for every secondary,
   the last grant it *sent* has expired.  Since the primary's lease
   derives only from grants it *received* (a subset of those sent, and
   timestamps are exact in virtual time), condition (b) guarantees the
   primary has already self-demoted (or was dead to begin with) by the
   time the coordinator acts.  Only then does it invoke the existing
   :func:`~repro.core.promotion.promote` path.

Split-brain safety is therefore two-sided:

* A live-but-partitioned primary **self-demotes the instant its lease
  lapses** (one expiry check is armed exactly at the lease deadline,
  and re-armed at the new deadline when a grant renewed it — never
  polled): in-flight update transactions abort with a typed
  :class:`~repro.errors.LeaseExpiredError` and are never acknowledged,
  so no commit can be confirmed that the next epoch will orphan.
* The promotion resync arms a **zombie fence** on every link: traffic
  the old primary sent before the epoch switch — held by a partition
  and finally delivered after it heals — arrives with a stale link
  epoch, is counted in ``zombie_records_fenced``, and is dropped, never
  applied.

``ReplicatedSystem(failover=None)`` — the default — builds none of this:
no tick, no control traffic, no extra random draws; runs are
bit-identical to a system without the subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.core.promotion import promote

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.site import SecondarySite
    from repro.core.system import ReplicatedSystem


@dataclass(frozen=True)
class FailoverConfig:
    """Enables autonomous failover and shapes its detector.

    Parameters
    ----------
    heartbeat_interval:
        Virtual-time cadence of the detector's tick: primary heartbeats,
        suspicion checks and the coordinator all run once per interval.
    suspicion_timeout:
        How long a secondary tolerates heartbeat silence before
        suspecting the primary.  Must cover several heartbeat intervals,
        or routine channel jitter would trip it constantly.
    lease_duration:
        Validity of each lease grant.  The primary self-demotes
        when its freshest grant is older than this; the coordinator
        refuses to promote until *every* secondary's last grant has
        aged past it.  Must be at least ``suspicion_timeout`` so the
        quorum condition, not the lease, is the fast path.
    """

    heartbeat_interval: float = 2.0
    suspicion_timeout: float = 8.0
    lease_duration: float = 12.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be > 0")
        if self.suspicion_timeout < 2 * self.heartbeat_interval:
            raise ConfigurationError(
                "suspicion_timeout must be at least two heartbeat "
                "intervals (a single missed heartbeat is routine jitter, "
                "not a failure)")
        if self.lease_duration < self.suspicion_timeout:
            raise ConfigurationError(
                "lease_duration must be >= suspicion_timeout (the lease "
                "is the safety backstop behind the suspicion quorum)")


#: The primary's periodic "I am alive" control datagram.  Its arrival is
#: the whole message; a secondary answers with its send time, the lease
#: grant ("your lease runs from my send time").
HEARTBEAT = "heartbeat"


@dataclass(frozen=True)
class FailoverReport:
    """One autonomous death declaration (diagnostics)."""

    at: float
    suspecting: tuple[str, ...]
    lease_bound: float
    promoted: str


class AutoFailover:
    """The failure detector and election, as one periodic callback.

    Constructed (and started) by
    :class:`~repro.core.system.ReplicatedSystem` when ``failover=`` is
    set.  All state is plain attributes so monitoring and the chaos
    harness can read the counters directly.
    """

    def __init__(self, system: "ReplicatedSystem", config: FailoverConfig):
        self.system = system
        self.config = config
        kernel = system.kernel
        self.kernel = kernel
        #: Per-secondary failure-detector state, keyed by site name.
        self._last_heartbeat: dict[str, float] = {}
        self._last_grant: dict[str, float] = {}
        self._suspecting: dict[str, bool] = {}
        for site in system.secondaries:
            self._last_heartbeat[site.name] = kernel.now
            self._last_grant[site.name] = kernel.now
            self._suspecting[site.name] = False
        #: The primary's lease deadline (grace period at construction /
        #: after each promotion, before any grant has arrived).
        self.lease_expiry = kernel.now + config.lease_duration
        self._epoch_seen = system.promotions
        # -- counters --------------------------------------------------------
        self.suspicions = 0
        self.false_suspicions = 0
        self.lease_expiries = 0
        self.heartbeats_sent = 0
        self.grants_received = 0
        self.reports: list[FailoverReport] = []
        self._lease_check_armed = False
        self._started = False

    @property
    def auto_promotions(self) -> int:
        """Promotions this coordinator made (one report each)."""
        return len(self.reports)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Install link handlers, arm the first tick and the lease check."""
        if self._started:  # pragma: no cover - defensive
            return
        self._started = True
        # The handlers survive promotions: a link is its site's for the
        # whole run, and stale-epoch control datagrams are filtered at the
        # link before the handler ever runs.
        for site in self.system.secondaries:
            if site.link is not None:
                site.link.control_handler = partial(self._on_heartbeat,
                                                    site)
                site.link.control_back_handler = self._on_grant
        self.kernel.call_at(self.kernel.now + self.config.heartbeat_interval,
                            self._tick)
        self._arm_lease_check()

    @property
    def quorum(self) -> int:
        """How many live secondaries must concurrently suspect the
        primary before it can be declared dead: a majority of the
        secondaries not yet promoted (a retired one is the primary now,
        or was, and never suspects again), recounted after every
        promotion; a crashed one still counts."""
        members = sum(1 for site in self.system.secondaries
                      if not site.retired)
        return members // 2 + 1

    # -- epoch tracking ------------------------------------------------------
    def _check_epoch(self) -> None:
        """Reset detector state after a promotion (ours or manual)."""
        system = self.system
        if system.promotions == self._epoch_seen:
            return
        self._epoch_seen = system.promotions
        now = self.kernel.now
        for name in self._last_heartbeat:
            self._last_heartbeat[name] = now
            self._suspecting[name] = False
        self.lease_expiry = now + self.config.lease_duration
        self._arm_lease_check()

    # -- the tick ------------------------------------------------------------
    def _tick(self) -> None:
        """One detector round, every ``heartbeat_interval``.

        Epoch check, heartbeats, re-arm, one suspicion check per
        secondary in ``system.secondaries`` order, coordinator.  The
        re-arm precedes the coordinator, so the next tick runs ahead of
        anything a promotion schedules for that same instant
        (``docs/architecture.md`` § "Autonomous failover & network
        partitions" shows why this order changes no outcome).
        """
        self._check_epoch()
        kernel = self.kernel
        now = kernel._now
        config = self.config
        system = self.system
        if not system.primary.crashed:
            propagator = system.propagator
            for endpoint in propagator.endpoints:
                link = endpoint.link
                if link is not None:
                    link.send_control(HEARTBEAT, propagator.delay)
                    self.heartbeats_sent += 1
        kernel.call_at(now + config.heartbeat_interval, self._tick)
        last_heartbeat = self._last_heartbeat
        suspecting = self._suspecting
        for site in system.secondaries:
            name = site.name
            if not site.live:
                # A down (or retired) replica is no detector: keep its
                # baseline fresh so it does not "suspect" the whole
                # outage's silence the instant it recovers.
                last_heartbeat[name] = now
                suspecting[name] = False
            elif not suspecting[name] \
                    and now - last_heartbeat[name] > config.suspicion_timeout:
                suspecting[name] = True
                self.suspicions += 1
        self._coordinate()

    # -- primary side --------------------------------------------------------
    def _on_grant(self, granted_at: float) -> None:
        """Primary side: a secondary renewed our lease at ``granted_at``."""
        self.grants_received += 1
        system = self.system
        if system.primary.crashed:
            return
        new_expiry = granted_at + self.config.lease_duration
        if new_expiry > self.lease_expiry:
            self.lease_expiry = new_expiry
            self._arm_lease_check()

    def _arm_lease_check(self) -> None:
        # One check at a time.  An armed check that finds the lease
        # renewed re-arms at the new deadline, so demotion still happens
        # *at* lease expiry, never a polling interval late, which is
        # what lets the coordinator's strictly-later grant bound imply
        # the primary has already stepped down.
        if not self._lease_check_armed:
            self._lease_check_armed = True
            self.kernel.call_at(self.lease_expiry, self._lease_check)

    def _lease_check(self) -> None:
        """Fires at the lease deadline it was armed for."""
        self._lease_check_armed = False
        system = self.system
        if self.kernel.now < self.lease_expiry:
            self._arm_lease_check()     # renewed since this was armed
            return
        if system.promotions != self._epoch_seen:
            return                      # _check_epoch will re-arm
        primary = system.primary
        if primary.crashed:
            return                      # already down; nothing to fence
        self.lease_expiries += 1
        primary.demote()

    # -- secondary side ------------------------------------------------------
    def _on_heartbeat(self, site: "SecondarySite", _heartbeat: str) -> None:
        # The link hands a heartbeat on only to a live site.
        now = self.kernel._now
        name = site.name
        if self._suspecting.get(name):
            # The "dead" primary spoke: the suspicion was a false
            # positive (short partition, dropped-heartbeat burst).
            self._suspecting[name] = False
            self.false_suspicions += 1
        self._last_heartbeat[name] = now
        self._last_grant[name] = now
        link = site.link
        link.send_control_back(now, link.ack_delay)

    # -- the coordinator -----------------------------------------------------
    def _coordinate(self) -> None:
        # The quorum is at least one, so without a suspicion nothing can
        # be declared (the flags of down sites were cleared this tick).
        if True not in self._suspecting.values():
            return
        system = self.system
        live = [s for s in system.secondaries if s.live]
        # Every live replica counts for quorum, but only a full-coverage
        # one can serve as the new primary (a partial subscriber never
        # received the other shards' updates) — hold the election until
        # one is up.
        candidates = [s for s in live if s.full_coverage]
        if not candidates:
            return
        suspecting = [s.name for s in live if self._suspecting.get(s.name)]
        if len(suspecting) < self.quorum:
            return
        # Lease safety: the primary's lease derives from grants it
        # *received*, a subset of the grants recorded here at their exact
        # (virtual) send times — so once every last grant has aged past
        # the lease duration, the primary's own deadline has passed and
        # its exact-deadline check has already demoted it (or it was
        # dead to begin with).
        now = self.kernel.now
        lease_bound = (max(self._last_grant.values())
                       + self.config.lease_duration)
        if now <= lease_bound:
            return
        if not system.primary.crashed:  # pragma: no cover - safety net
            # Unreachable by the argument above; never promote over a
            # primary that still holds a valid lease.
            return
        report = FailoverReport(
            at=now,
            suspecting=tuple(suspecting),
            lease_bound=lease_bound,
            promoted=max(candidates, key=lambda s: s.seq_db).name)
        promote(system)
        self.reports.append(report)
        self._check_epoch()
