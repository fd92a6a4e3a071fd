"""Per-site autovacuum — bounded version chains for long runs.

:meth:`~repro.storage.engine.SIDatabase.vacuum` exists but nothing in the
system ever called it, so version chains grow linearly with committed
update count: a long scale-up or chaos run holds every version ever
written.  An :class:`AutovacuumDaemon` is a periodic kernel callback
that vacuums one engine at its current GC horizon, which is always
safe — only versions no live snapshot can see are reclaimed, and an
engine snapshot pinned older than the horizon
(``SIDatabase.begin(snapshot_ts=...)``) is refused, never served wrong.

One runs per site (primary and each secondary), on a configurable
virtual-time cadence.  With ``interval=None`` none is created, keeping
the default system bit-identical to the pre-autovacuum code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.kernel import Kernel, Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import SIDatabase


class AutovacuumDaemon:
    """Periodic ``vacuum()`` at the GC horizon for one engine."""

    def __init__(self, kernel: Kernel, engine: "SIDatabase",
                 interval: float, name: str = "autovacuum"):
        if interval <= 0:
            raise ConfigurationError(
                f"autovacuum interval must be positive, got {interval}")
        self.kernel = kernel
        self.engine = engine
        self.interval = interval
        self.name = name
        #: Completed vacuum passes (crashed-engine ticks don't count).
        self.runs = 0
        #: Total versions reclaimed across all passes.
        self.versions_reclaimed = 0
        # Armed through a same-instant hop, so the first pass's
        # (when, seq) slot follows everything scheduled at this instant
        # before the hop runs.
        self._timer: Optional[Timer] = kernel.call_later(0.0, self._arm)

    def _arm(self) -> None:
        self._timer = self.kernel.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if not self.engine.crashed:
            self.versions_reclaimed += self.engine.vacuum()
            self.runs += 1
        self._arm()

    def stop(self) -> None:
        """Cancel the next pass (it is never restarted automatically)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
