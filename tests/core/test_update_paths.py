"""The three ways into ``ClientSession``'s one update attempt agree.

``execute_update`` runs the attempt on the caller's stack, the
``_update_process`` open-loop drivers spawn runs it inside a kernel
process, and ``update_transaction()`` hands its transaction to a
``with`` block.  One seeded update stream, with the primary killed and a
promotion arriving while updates wait for it, must record the same
history, session counters and ``seq(c)`` state through each; the kernel
event counts differ only by the processes each form spawns.
"""

import random
from collections import Counter
from dataclasses import fields

import pytest

from repro.core.guarantees import Guarantee
from repro.core.promotion import PromotionConfig
from repro.core.system import ReplicatedSystem


def inline(system, session, work):
    return session.execute_update(work)


def process(system, session, work):
    kernel = system.kernel
    return kernel.run_until_complete(kernel.spawn(
        session._update_process(work), name=f"update@{session.label}"))


def interactive(system, session, work):
    with session.update_transaction() as txn:
        return work(txn)


def run_update_stream(seed, monkeypatch, update):
    """A seeded mix of updates and reads over three sessions on two
    secondaries; at op 60 the primary is killed (after a quiesce, so the
    promotion truncates nothing) and a promotion is scheduled one virtual
    second later, so the next updates wait for a primary."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.3,
                              promotion=PromotionConfig())
    kernel = system.kernel
    spawned = Counter()
    spawn = kernel.spawn

    def counting_spawn(gen, name="process"):
        spawned[name.partition("@")[0]] += 1
        return spawn(gen, name=name)

    monkeypatch.setattr(kernel, "spawn", counting_spawn)
    rng = random.Random(seed)
    sessions = [system.session(Guarantee.STRONG_SESSION_SI, secondary=i % 2)
                for i in range(3)]
    results = []
    for op in range(150):
        if op == 60:
            system.quiesce()
            system.kill_primary()
            kernel.call_at(kernel.now + 1.0, system.promote_secondary)
        session = rng.choice(sessions)
        keys = [f"k{rng.randrange(6)}" for _ in range(rng.randint(1, 3))]
        if op == 60 or rng.random() < 0.6:
            def work(txn, keys=keys, value=op):
                seen = [txn.read(key, default=None) for key in keys]
                for key in keys:
                    txn.write(key, value)
                return seen
            results.append(update(system, session, work))
        else:
            results.append(session.read_many(keys))
        system.run(until=kernel.now + rng.choice((0.0, 0.1, 0.4)))
    system.quiesce()
    return system, sessions, results, spawned


@pytest.mark.parametrize("seed", [17, 29])
def test_update_entry_points_agree(seed, monkeypatch):
    runs = {update.__name__: run_update_stream(seed, monkeypatch, update)
            for update in (inline, process, interactive)}

    def recorded(system):
        return [tuple(getattr(event, field.name) for field in fields(event))
                for event in system.recorder.events]

    def counters(session):
        return (session.updates_committed, session.fcw_retries,
                session.no_primary_errors, session.reads_executed,
                session.blocked_reads, session.total_read_wait,
                session.failovers, session._observed)

    def tracker(system):
        state = system.tracker
        return state._seq, state._newest, state.lost_windows

    system, sessions, results, spawned = runs["inline"]
    assert system.promotions == 1
    for name in ("process", "interactive"):
        other, other_sessions, other_results, _ = runs[name]
        assert other_results == results
        assert recorded(other) == recorded(system)
        assert [counters(s) for s in other_sessions] \
            == [counters(s) for s in sessions]
        assert tracker(other) == tracker(system)

    # The primary wait ran: spawned by the caller-stack forms, nested in
    # the process form, which spawns one process per update instead.
    updates = sum(session.updates_committed for session in sessions)
    waits = spawned["await-primary"]
    assert waits > 0
    assert runs["interactive"][3]["await-primary"] == waits
    assert runs["process"][3]["await-primary"] == 0
    assert runs["process"][3]["update"] == updates

    inline_counts = system.kernel.counters()
    assert runs["interactive"][0].kernel.counters() == inline_counts
    process_counts = runs["process"][0].kernel.counters()
    for counter in ("events_dispatched", "events_scheduled"):
        assert process_counts[counter] - inline_counts[counter] \
            == updates - waits
