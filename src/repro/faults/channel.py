"""Seeded lossy message channels.

A :class:`FaultyChannel` sits between a sender and a delivery callback on
the virtual-time kernel and injects the four classic network faults —
drop, duplicate, delay (jitter) and reorder — from its own named
:class:`~repro.sim.rng.RandomStream`.  Because every draw comes from a
seeded stream and every delivery is a kernel event, a chaos run is a pure
function of its seed: re-running it replays the exact same fault
sequence (the determinism contract of the fault subsystem).

Fault semantics
---------------
* **drop** — the payload is never delivered; recovery is the sender's
  problem (see :class:`~repro.core.propagation.ReliableLink`).
* **duplicate** — the payload is delivered twice, each copy jittered
  independently.
* **jitter** — a uniform extra delay in ``[0, jitter]`` is added on top
  of the nominal delay; two payloads sent close together can therefore
  arrive in either order.
* **reorder** — with probability ``reorder`` the payload is additionally
  held back by ``reorder_delay``, guaranteeing that payloads sent within
  that window overtake it (a deterministic-holdback model of reordering;
  no state is kept, so an idle channel never strands a held message).

With the all-zero :data:`NO_FAULTS` configuration the channel
degenerates to a pure ``call_at`` at the nominal delay and never consults
its random stream.

Network partitions (blackhole mode)
-----------------------------------
:meth:`FaultyChannel.blackhole` models a network partition: while
blackholed the channel accepts sends but delivers nothing, entirely
deterministically (no random draws are consumed for blackholed
payloads).  Data payloads are *held* — the segments get through once
the route returns — and are re-submitted through the ordinary fault
pipeline when :meth:`FaultyChannel.heal` ends the partition.  Control
payloads (heartbeats and lease grants, sent with ``control=True``) are
datagram-like and simply dropped: a stale heartbeat is worthless, and a
partition *must* silence the failure detector for suspicion to work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.kernel import Kernel
from repro.sim.rng import RandomStream


@dataclass(frozen=True)
class ChannelFaults:
    """Fault configuration for one :class:`FaultyChannel`.

    Probabilities are per payload; ``jitter`` and ``reorder_delay`` are
    virtual-time amounts.
    """

    drop: float = 0.0           #: P(payload lost in transit)
    duplicate: float = 0.0      #: P(payload delivered twice)
    jitter: float = 0.0         #: max uniform extra delay per delivery
    reorder: float = 0.0        #: P(payload held back by reorder_delay)
    reorder_delay: float = 1.0  #: holdback applied to reordered payloads

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{name} probability must be in [0, 1], got {p!r}")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")
        if self.reorder_delay < 0:
            raise ConfigurationError("reorder_delay must be >= 0")

    @property
    def any(self) -> bool:
        """True if any fault can ever fire."""
        return bool(self.drop or self.duplicate or self.jitter
                    or self.reorder)


#: The fault-free configuration (behaves as a plain delayed callback).
NO_FAULTS = ChannelFaults()


class FaultyChannel:
    """A unidirectional, unreliable, seeded message channel.

    Parameters
    ----------
    kernel:
        The shared virtual-time kernel.
    deliver:
        Callback invoked with each payload on (possibly duplicated,
        delayed, reordered) arrival.
    faults:
        The :class:`ChannelFaults` to inject (default: none).
    rng:
        Seeded random stream; required whenever ``faults.any``.
    """

    def __init__(self, kernel: Kernel, deliver: Callable[[Any], None], *,
                 faults: ChannelFaults = NO_FAULTS,
                 rng: Optional[RandomStream] = None,
                 name: str = "channel"):
        if faults.any and rng is None:
            raise ConfigurationError(
                f"channel {name!r} has faults configured but no rng; "
                "seeded faults need a RandomStream")
        self.kernel = kernel
        self.deliver = deliver
        self.faults = faults
        # Draw-identical fast path: the stream's generator's own
        # ``random``, minus the wrapper frame per fault decision.
        self._random = rng._rng.random if rng is not None else None
        self.name = name
        #: Deliveries scheduled but not yet arrived (quiesce accounting).
        self.in_flight = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        #: Partition state: while True, data payloads are held (released
        #: on heal) and control payloads are dropped.  Deterministic — a
        #: blackholed send consumes no random draws.
        self.blackholed = False
        self._held: list[tuple[Any, float]] = []
        #: Control-plane traffic (heartbeats/lease grants); kept out of
        #: ``in_flight`` so a periodic heartbeat stream never makes the
        #: channel look busy to quiesce/idle accounting.
        self.control_sent = 0
        self.control_delivered = 0
        self.control_dropped = 0
        #: Payloads swallowed (held or dropped) by an active blackhole.
        self.blackholed_payloads = 0

    def send(self, payload: Any, delay: float, *,
             control: bool = False) -> None:
        """Transmit ``payload``; it arrives after ``delay`` plus faults.

        ``control=True`` marks datagram-like control traffic (heartbeats,
        lease grants): it is not counted against ``in_flight`` and a
        blackhole drops it outright instead of holding it.
        """
        if control:
            self.control_sent += 1
            if self.blackholed:
                self.blackholed_payloads += 1
                self.control_dropped += 1
                return
        else:
            self.sent += 1
            if self.blackholed:
                # Held deterministically (no fault draws): the payload
                # re-enters the ordinary fault pipeline on heal().
                self.blackholed_payloads += 1
                self._held.append((payload, delay))
                return
        # One ``random()`` per decision: ``random() < p`` is what
        # ``bernoulli`` draws (``ChannelFaults`` validated ``p``), and
        # ``jitter * random()`` are the floats ``uniform(0, jitter)``
        # returns.  The delay is never negative, so the deliveries go
        # straight onto the kernel's queue.
        f = self.faults
        random = self._random
        if f.drop and random() < f.drop:
            if control:
                self.control_dropped += 1
            else:
                self.dropped += 1
            return
        copies = 1
        if f.duplicate and random() < f.duplicate:
            self.duplicated += 1
            copies = 2
        if control:
            arrive = self._arrive_control
        else:
            arrive = self._arrive
            self.in_flight += copies
        kernel = self.kernel
        at = kernel._now + delay
        jitter = f.jitter
        reorder = f.reorder
        for _ in range(copies):
            extra = 0.0
            if jitter:
                extra += jitter * random()
            if reorder and random() < reorder:
                self.reordered += 1
                extra += f.reorder_delay
            kernel._schedule(at + extra, arrive, payload)

    # -- partitions ---------------------------------------------------------
    def blackhole(self) -> None:
        """Enter partition mode: hold data payloads, drop control ones."""
        self.blackholed = True

    def heal(self) -> None:
        """End the partition and release every held data payload.

        Held payloads re-enter :meth:`send` in original send order, so
        they are subject to the ordinary fault draws (a long-partitioned
        segment can still be lost or jittered on its final hop — the
        sender's retransmission machinery covers that as usual).
        """
        self.blackholed = False
        held, self._held = self._held, []
        for payload, delay in held:
            self.send(payload, delay)

    @property
    def held(self) -> int:
        """Number of data payloads captured by the active blackhole."""
        return len(self._held)

    def _arrive(self, payload: Any) -> None:
        self.in_flight -= 1
        self.delivered += 1
        self.deliver(payload)

    def _arrive_control(self, payload: Any) -> None:
        self.control_delivered += 1
        self.deliver(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultyChannel {self.name!r} sent={self.sent} "
                f"dropped={self.dropped} dup={self.duplicated}>")
