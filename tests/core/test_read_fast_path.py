"""A read that need not wait is served on the caller's stack.

``ClientSession.execute_read_only`` serves a read without a kernel
process when nothing is due at the current instant and the bound replica
is live, holds the read's axes and has reached its requirement; every
other read is spawned as ``_read_process``.  Forcing every read through
the process — ``Kernel.nothing_due`` patched to report an event due —
must change nothing but the kernel's event counts.
"""

import random
from collections import Counter
from dataclasses import fields

import pytest

from repro.core.guarantees import Guarantee
from repro.core.system import ReplicatedSystem

GUARANTEES = (Guarantee.STRONG_SESSION_SI, Guarantee.STRONG_SESSION_SI,
              Guarantee.WEAK_SI, Guarantee.WEAK_SI, Guarantee.STRONG_SI)


def run_mixed_workload(seed, monkeypatch, force_process):
    """One seeded mix of writes, point reads and scans under three
    guarantees on two secondaries, with idle stretches, a stretch of
    ``propagation_delay=0`` (refresh work left due at the instant a read
    is submitted) and a crashed-then-recovered replica (failovers)."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.3)
    kernel = system.kernel
    spawned = Counter()
    spawn = kernel.spawn

    def counting_spawn(gen, name="process", daemon=False):
        spawned[name.partition("@")[0]] += 1
        return spawn(gen, name=name, daemon=daemon)

    monkeypatch.setattr(kernel, "spawn", counting_spawn)
    if force_process:
        monkeypatch.setattr(kernel, "nothing_due", lambda: False)
    rng = random.Random(seed)
    sessions = [system.session(guarantee, secondary=i % 2)
                for i, guarantee in enumerate(GUARANTEES)]
    results = []
    for op in range(400):
        system.propagator.delay = 0.0 if 120 <= op < 200 else 0.3
        if op == 250:
            system.crash_secondary(1)
        elif op == 300:
            system.recover_secondary(1)
        session = rng.choice(sessions)
        key = f"k{rng.randrange(6)}"
        roll = rng.random()
        if roll < 0.3:
            session.execute_update(lambda txn: txn.write(key, op))
        elif roll < 0.6:
            results.append(session.read(key))
        elif roll < 0.85:
            results.append(session.execute_read_only(
                lambda txn: txn.scan(prefix="k")))
        else:
            system.run(until=kernel.now + rng.choice((0.0, 0.1, 0.4)))
    system.quiesce()
    return system, sessions, results, spawned


@pytest.mark.parametrize("seed", [17, 29])
def test_fast_path_changes_nothing_but_event_counts(seed, monkeypatch):
    fast, fast_sessions, fast_results, fast_spawned = run_mixed_workload(
        seed, monkeypatch, force_process=False)
    slow,slow_sessions, slow_results, slow_spawned = run_mixed_workload(
        seed, monkeypatch, force_process=True)

    assert fast_results == slow_results

    def recorded(system):
        return [tuple(getattr(event, field.name) for field in fields(event))
                for event in system.recorder.events]

    assert recorded(fast) == recorded(slow)
    for a, b in zip(fast_sessions, slow_sessions):
        assert (a.reads_executed, a.blocked_reads, a.total_read_wait,
                a.failovers, a._observed) == (
            b.reads_executed, b.blocked_reads, b.total_read_wait,
            b.failovers, b._observed)

    reads = sum(session.reads_executed for session in fast_sessions)
    fast_reads = reads - fast_spawned["read"]
    assert slow_spawned["read"] == reads
    # Both sides of the choice, and every reason to take the process.
    assert 0 < fast_reads < reads
    assert sum(session.blocked_reads for session in fast_sessions) > 0
    assert sum(session.failovers for session in fast_sessions) > 0
    assert fast_spawned["read"] > sum(session.blocked_reads
                                      for session in fast_sessions)

    fast_counts = fast.kernel.counters()
    slow_counts = slow.kernel.counters()
    assert slow_counts["events_dispatched"] \
        - fast_counts["events_dispatched"] == fast_reads
    assert slow_counts["events_scheduled"] \
        - fast_counts["events_scheduled"] == fast_reads
    assert slow_counts["peak_queue_depth"] == fast_counts["peak_queue_depth"]


def test_read_behind_a_same_instant_event_sees_its_effect_first():
    """An event due now runs before a read submitted now: the read takes
    the process path and is served after the event has run — here a
    crash of its replica, so it fails over instead of reading there."""
    system = ReplicatedSystem(num_secondaries=2)
    kernel = system.kernel
    writer = system.session(Guarantee.STRONG_SESSION_SI)
    writer.write("x", 1)
    system.quiesce()
    reader = system.session(Guarantee.WEAK_SI, secondary=0)
    assert kernel.nothing_due()
    kernel.call_at(kernel.now, system.crash_secondary, 0)
    assert not kernel.nothing_due()
    dispatched = kernel.counters()["events_dispatched"]

    assert reader.read("x") == 1
    assert reader.failovers == 1
    assert reader.secondary is system.secondaries[1]
    assert system.recorder.events[-1].site == "secondary-2"
    # The crash, then the spawned read's one step.
    assert kernel.counters()["events_dispatched"] == dispatched + 2


def test_fresh_read_dispatches_no_event():
    system = ReplicatedSystem(num_secondaries=1, propagation_delay=1.0)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    system.quiesce()
    before = system.kernel.counters()
    assert session.read("x") == 1
    assert system.kernel.counters() == before
    assert session.reads_executed == 1 and session.blocked_reads == 0
