"""Deterministic crash/recovery schedules replayed by kernel callbacks.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`\\ s — site
crashes and recoveries, propagator stalls, a primary crash with
WAL-replay restart, or a *permanent* primary kill answered by a
secondary promotion — either hand-written or drawn from a seeded
:class:`~repro.sim.rng.RandomStream` via :meth:`FaultPlan.random`.  A
:class:`FaultInjector` replays the plan against a
:class:`~repro.core.system.ReplicatedSystem` as timed callbacks on the
shared virtual-time kernel, so fault timing interleaves deterministically
with propagation, refresh and client traffic: the same (workload, plan,
channel seed) triple always produces the same execution.

Random plans keep at least one secondary live at all times (secondary
outage windows never overlap), which is what lets client sessions honour
their guarantees through failover instead of stalling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import ReplicatedSystem

#: Recognised fault actions.
ACTIONS = (
    "crash_secondary",
    "recover_secondary",
    "crash_primary",
    "restart_primary",
    "kill_primary",
    "promote_secondary",
    "pause_propagator",
    "resume_propagator",
    "partition",
    "heal",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: do ``action`` (on ``target``) at time ``at``."""

    at: float
    action: str
    #: Secondary index; None for primary/propagator events, for
    #: ``promote_secondary`` (which then picks the freshest live site)
    #: and for ``partition``/``heal`` (which then cut or restore *every*
    #: link — a full primary partition rather than a single severed
    #: replica).
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {ACTIONS}")
        if self.at < 0:
            raise ConfigurationError("fault time must be >= 0")
        needs_target = self.action in ("crash_secondary", "recover_secondary")
        if needs_target and self.target is None:
            raise ConfigurationError(f"{self.action} needs a target index")


@dataclass(frozen=True)
class FaultPlan:
    """A time-ordered fault schedule."""

    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last event (0.0 for an empty plan)."""
        return self.events[-1].at if self.events else 0.0

    def count(self, action: str) -> int:
        return sum(1 for e in self.events if e.action == action)

    @classmethod
    def of(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        return cls(events=tuple(events))

    @classmethod
    def random(cls, rng: RandomStream, *, horizon: float,
               num_secondaries: int,
               secondary_outages: int = 2,
               primary_crash: bool = True,
               propagator_stall: bool = True,
               permanent_primary_kill: bool = False,
               partitions: int = 0,
               scripted_promotion: bool = True,
               overload: bool = False) -> "FaultPlan":
        """Draw a seeded schedule of fault windows within
        ``(0.05*horizon, 0.9*horizon)``.

        Secondary outage windows are sequential (never overlapping), so
        with ``num_secondaries >= 2`` at least one replica stays live for
        failover, and every *secondary* crash is paired with its recovery
        before the horizon.  The primary window is a crash/restart pair
        by default; with ``permanent_primary_kill`` it becomes a
        permanent ``kill_primary`` followed by a ``promote_secondary``
        trigger — the one deliberately unpaired failure in a random plan,
        resolved by promotion rather than recovery.  Either way a caller
        running the plan to completion ends with a live update path.

        With ``scripted_promotion=False`` the permanent kill stands
        *alone*: the promotion-trigger time is still drawn (so toggling
        the flag never shifts any other seeded choice) but no
        ``promote_secondary`` event is emitted — the plan then expects
        an :class:`~repro.core.failover.AutoFailover` coordinator to
        detect the death and promote on its own.

        With ``overload`` the primary failure window is drawn inside
        ``(0.40*horizon, 0.60*horizon)`` — straddling the flash-crowd
        burst (the middle tenth of the horizon) — instead of anywhere in
        the run, so overload storms compose the admission machinery with
        a mid-burst failover.  The draw count is unchanged, so toggling
        the flag never shifts any later seeded choice.

        ``partitions`` adds that many seeded ``partition``/``heal``
        windows, each severing one secondary's link (sequential windows,
        drawn after every other choice so existing seeds replay
        identically with ``partitions=0``).  A partitioned secondary
        stays *live* — its refresh traffic is held and delivered on heal
        — so the keep-one-secondary-live invariant is untouched; full
        primary partitions (``target=None``) are deliberately left to
        hand-written plans, where the test controls when the zombie
        heals.
        """
        if horizon <= 0:
            raise ConfigurationError("plan horizon must be > 0")
        if num_secondaries < 2 and secondary_outages:
            raise ConfigurationError(
                "random plans need >= 2 secondaries to keep one live "
                "during each outage")
        events: list[FaultEvent] = []
        lo, hi = 0.05 * horizon, 0.9 * horizon
        # Non-overlapping secondary windows: 2k sorted times, paired.
        times = sorted(rng.uniform(lo, hi)
                       for _ in range(2 * secondary_outages))
        for i in range(secondary_outages):
            target = rng.randint(0, num_secondaries - 1)
            events.append(FaultEvent(at=times[2 * i],
                                     action="crash_secondary",
                                     target=target))
            events.append(FaultEvent(at=times[2 * i + 1],
                                     action="recover_secondary",
                                     target=target))
        if primary_crash:
            if overload:
                # Overload storms: land the primary failure inside (or
                # right next to) the flash-crowd burst window — the
                # middle tenth of the horizon — so admission shedding
                # and promotion retries are exercised *together*.  Same
                # draw count as the classic window, so every later
                # seeded choice (stall, partitions) replays unchanged.
                down = rng.uniform(0.40 * horizon, 0.60 * horizon)
            else:
                down = rng.uniform(lo, 0.8 * horizon)
            up = rng.uniform(down + 0.01 * horizon, hi)
            if permanent_primary_kill:
                # Same draws as the crash/restart pair, so turning the
                # kill on (or off) never shifts any other seeded choice:
                # the primary dies for good at ``down`` and the promotion
                # of the freshest live secondary triggers at ``up`` —
                # unless autonomous failover owns the election, in which
                # case ``up`` is drawn (same-draws discipline) but no
                # scripted trigger is emitted.
                events.append(FaultEvent(at=down, action="kill_primary"))
                if scripted_promotion:
                    events.append(FaultEvent(at=up,
                                             action="promote_secondary"))
            else:
                events.append(FaultEvent(at=down, action="crash_primary"))
                events.append(FaultEvent(at=up, action="restart_primary"))
        if propagator_stall:
            stall = rng.uniform(lo, 0.8 * horizon)
            unstall = rng.uniform(stall + 0.01 * horizon, hi)
            events.append(FaultEvent(at=stall, action="pause_propagator"))
            events.append(FaultEvent(at=unstall,
                                     action="resume_propagator"))
        if partitions:
            # Drawn last so pre-partition seeds replay unchanged.
            # Sequential windows, same scheme as secondary outages.
            cut_times = sorted(rng.uniform(lo, hi)
                               for _ in range(2 * partitions))
            for i in range(partitions):
                target = rng.randint(0, num_secondaries - 1)
                events.append(FaultEvent(at=cut_times[2 * i],
                                         action="partition",
                                         target=target))
                events.append(FaultEvent(at=cut_times[2 * i + 1],
                                         action="heal",
                                         target=target))
        return cls.of(events)


@dataclass
class FaultInjector:
    """Replays a :class:`FaultPlan` against a system as kernel callbacks."""

    system: "ReplicatedSystem"
    plan: FaultPlan
    applied: list[FaultEvent] = field(default_factory=list)
    skipped: list[FaultEvent] = field(default_factory=list)
    finished: bool = False

    def start(self) -> None:
        """Arm the replay (call before driving the kernel).  The first
        events are applied from a same-instant hop."""
        kernel = self.system.kernel
        kernel.call_at(kernel.now, self._replay, 0)

    def _replay(self, index: int) -> None:
        """Apply the plan from ``index`` on, up to the first event that
        lies in the future; arm :meth:`_wake` for that one."""
        kernel = self.system.kernel
        events = self.plan.events
        for i in range(index, len(events)):
            event = events[i]
            if event.at > kernel.now:
                kernel.call_at(kernel.now + (event.at - kernel.now),
                               self._wake, i)
                return
            self._apply(event)
        self.finished = True

    def _wake(self, index: int) -> None:
        # The armed instant is ``now + (at - now)``, which may round a
        # hair below ``at``: the event is due all the same.
        self._apply(self.plan.events[index])
        self._replay(index + 1)

    def _apply(self, event: FaultEvent) -> None:
        """Apply one event, skipping no-ops (e.g. crashing a site that a
        hand-written plan already crashed) so plans stay composable."""
        system = self.system
        action, target = event.action, event.target
        if action == "crash_secondary":
            site = system.secondaries[target]
            applicable = site.live
            if applicable:
                system.crash_secondary(target)
        elif action == "recover_secondary":
            site = system.secondaries[target]
            applicable = site.crashed and not site.retired
            if applicable:
                system.recover_secondary(target)
        elif action == "crash_primary":
            applicable = not system.primary.crashed
            if applicable:
                system.crash_primary()
        elif action == "restart_primary":
            applicable = (system.primary.crashed
                          and not system.primary.permanently_failed)
            if applicable:
                system.restart_primary()
        elif action == "kill_primary":
            applicable = not system.primary.crashed
            if applicable:
                system.kill_primary()
        elif action == "promote_secondary":
            # Only a live full-coverage replica can take over as
            # primary; a promote drawn while none is up is skipped.
            candidates = system.promotable()
            applicable = (
                system.promotion is not None
                and system.primary.crashed
                and (bool(candidates) if target is None
                     else system.secondaries[target] in candidates))
            if applicable:
                system.promote_secondary(target)
        elif action == "pause_propagator":
            applicable = not system.propagator.paused
            if applicable:
                system.propagator.pause()
        elif action == "resume_propagator":
            applicable = system.propagator.paused
            if applicable:
                system.propagator.resume()
        elif action == "partition":
            links = self._partition_targets(target)
            applicable = any(not link.blackholed for link in links)
            if applicable:
                system.partition(target)
        else:   # heal
            links = self._partition_targets(target)
            applicable = any(link.blackholed for link in links)
            if applicable:
                system.heal(target)
        (self.applied if applicable else self.skipped).append(event)

    def _partition_targets(self, target: Optional[int]) -> list:
        """The links a partition/heal event would act on ([] if the
        system has no link-based propagation — the event is skipped)."""
        links = getattr(self.system, "_all_links", [])
        if not links:
            return []
        if target is None:
            return list(links)
        return [links[target]]
