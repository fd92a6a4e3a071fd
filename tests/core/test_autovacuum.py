"""Tests for the per-site autovacuum daemon.

The daemon periodically vacuums one engine at its GC horizon; with the
knob unset no daemon exists and version chains grow exactly as before.
"""

import pytest

from repro.core.autovacuum import AutovacuumDaemon
from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError
from repro.kernel import Kernel
from repro.storage.engine import SIDatabase


def _put(db, key, value):
    txn = db.begin(update=True)
    txn.write(key, value)
    return txn.commit()


def _grow(db, versions, keys=1):
    for i in range(versions):
        _put(db, f"k{i % keys}", i)


# ---------------------------------------------------------------------------
# Daemon unit tests
# ---------------------------------------------------------------------------

def test_interval_must_be_positive():
    kernel = Kernel()
    with pytest.raises(ConfigurationError):
        AutovacuumDaemon(kernel, SIDatabase(), interval=0.0)
    with pytest.raises(ConfigurationError):
        AutovacuumDaemon(kernel, SIDatabase(), interval=-1.0)


def test_daemon_reclaims_dead_versions_on_cadence():
    kernel = Kernel()
    db = SIDatabase()
    _grow(db, 10)                      # 10 versions of one key
    daemon = AutovacuumDaemon(kernel, db, interval=5.0)
    kernel.run(until=5.0)
    assert daemon.runs == 1
    assert daemon.versions_reclaimed == 9
    assert db.version_count == 1       # only the live version remains
    txn = db.begin()
    assert txn.read("k0") == 9         # the surviving version is current
    txn.commit()


def test_daemon_respects_gc_horizon():
    """Versions a live snapshot can still see are never reclaimed."""
    kernel = Kernel()
    db = SIDatabase()
    _put(db, "k0", 0)
    pinned = db.begin()                # snapshot at ts=1 pins version 1
    _grow(db, 5)
    AutovacuumDaemon(kernel, db, interval=1.0)
    kernel.run(until=1.0)
    assert pinned.read("k0") == 0      # pinned snapshot still readable
    pinned.commit()
    kernel.run(until=2.0)
    assert db.version_count == 1       # horizon advanced; chain collapsed


def test_daemon_skips_crashed_engine():
    kernel = Kernel()
    db = SIDatabase()
    _grow(db, 5)
    daemon = AutovacuumDaemon(kernel, db, interval=1.0)
    db.crash()
    kernel.run(until=3.0)
    assert daemon.runs == 0
    assert daemon.versions_reclaimed == 0


def test_daemon_stop_halts_vacuuming():
    kernel = Kernel()
    db = SIDatabase()
    _grow(db, 5)
    daemon = AutovacuumDaemon(kernel, db, interval=1.0)
    kernel.run(until=1.0)
    assert daemon.runs == 1
    daemon.stop()
    _grow(db, 5)
    kernel.run(until=10.0)
    assert daemon.runs == 1            # no further passes
    daemon.stop()                      # idempotent


# ---------------------------------------------------------------------------
# System wiring
# ---------------------------------------------------------------------------

def test_system_spawns_one_daemon_per_site():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=1.0,
                              autovacuum_interval=10.0)
    assert len(system.autovacuums) == 3
    names = {daemon.name for daemon in system.autovacuums}
    assert names == {"autovacuum@primary", "autovacuum@secondary-1",
                     "autovacuum@secondary-2"}


def test_system_default_has_no_daemons():
    system = ReplicatedSystem(num_secondaries=2)
    assert system.autovacuums == []


def test_autovacuum_bounds_version_growth_system_wide():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=1.0,
                              autovacuum_interval=5.0)
    with system.session() as s:
        for i in range(100):
            s.write(f"k{i % 4}", i)
            if i % 20 == 19:
                system.run(until=system.kernel.now + 10.0)
    system.quiesce()
    system.run(until=system.kernel.now + 10.0)   # one more vacuum pass
    for site in [system.primary, *system.secondaries]:
        assert site.engine.version_count <= 8    # 4 live keys, slack 2x
    assert sum(d.versions_reclaimed for d in system.autovacuums) > 0
    # Replication was untouched by vacuuming.
    assert system.secondary_state(0) == system.primary_state()
    assert system.secondary_state(1) == system.primary_state()
