"""The refresh schedule, pinned: recorded histories, queue peaks and
refresher counters.

Each run below is a small seeded mix of updates and strong-session reads
on one refresh discipline.  Its pin is the SHA-256 of the ``repr`` of
every recorded :class:`~repro.txn.history.HistoryEvent` (site, time,
sequence number and transaction ids included), the kernel's peak queue
depth and every secondary's refresher counters.  A change to how refresh
work is *dispatched* — which kernel events carry it — must leave the
history digest and the counters unchanged, and moves the peak depth
exactly when it changes how many events are queued at once; only a
change to what is refreshed, or when in virtual time, may move the
digest or the counters.

The five shapes cover the refresher's every branch: start records that
wait for an empty pending queue in the middle of a batch frame, one
arrival event per record shared by five secondaries, dependency-tracked
parallel refresh, serial refresh under overlapping primary transactions
(commits queue behind the one slot), and a secondary crash and recovery
followed by a primary kill and a promotion (fenced refresh work).
"""

import hashlib
import random

import pytest

from repro.core.guarantees import Guarantee
from repro.core.promotion import PromotionConfig
from repro.core.system import ReplicatedSystem
from repro.errors import ReproError

SHAPES = {
    "batched": dict(num_secondaries=2, propagation_delay=0.5,
                    batch_interval=1.0, refresh_apply_cost=0.05),
    "fanout": dict(num_secondaries=5, propagation_delay=0.5,
                   refresh_apply_cost=0.02),
    "parallel": dict(num_secondaries=3, propagation_delay=0.3,
                     batch_interval=0.5, parallel_refresh=4,
                     refresh_apply_cost=0.05),
    "failures": dict(num_secondaries=3, propagation_delay=0.4,
                     refresh_apply_cost=0.03, promotion=PromotionConfig()),
    "serial": dict(num_secondaries=2, propagation_delay=0.3,
                   serial_refresh=True, refresh_apply_cost=0.05),
}

#: Shapes whose updates come in pairs of interactive transactions open
#: at once, so their commit records reach a secondary without a start
#: record between them.
OVERLAPPING = {"serial"}

COUNTERS = ("refreshes_applied", "peak_pending",
            "max_concurrent_applicators", "max_runnable_depth",
            "out_of_order_commits", "max_watermark_lag",
            "stale_records_dropped")

#: shape -> (history digest, peak queue depth).  The two batching
#: shapes were re-recorded when a batch flush moved from ``batch_interval``
#: after the first buffered record to the first free slot (``max(now,
#: last flush + batch_interval)``): records reach the secondaries at
#: other instants, so every history timestamp after the first frame
#: moves.
RECORDED = {
    "batched": (
        "81b6c786f9b56fad5d86b954e6a18be72929ae6f32426a8ebeec0abff5fa6606",
        3),
    "fanout": (
        "4b4f063ac672ebe99c818cb165d958460bf03cc141feb8502ad878dad2dff7a6",
        21),
    "parallel": (
        "4cc486e8c2a3b0ab7743cad25e4d3061956607c740c2f2398c5f758c379208ba",
        12),
    "failures": (
        "23a5364af8e6512084e5254e7c419987aedfd631711603c87501c1298ba4c39c",
        15),
    "serial": (
        "6f2b05a416fc0204b063f5b37bfc4ead6a783710a77789271d7bccbdc6e4ca9e",
        24),
}

#: shape -> per-secondary refresher counters, in :data:`COUNTERS` order.
#: ``parallel`` was (148, 9, 4, 1, 21, 9, 0) while a flush waited a whole
#: interval: smaller frames leave fewer commits pending at once, so
#: fewer are applied out of order.
RECORDED_COUNTERS = {
    "batched": [(148, 1, 1, 0, 0, 0, 0)] * 2,
    "fanout": [(136, 1, 1, 0, 0, 0, 0)] * 5,
    "parallel": [(148, 8, 4, 0, 15, 8, 0)] * 3,
    "failures": [(99, 1, 1, 0, 0, 0, 0), (115, 1, 1, 0, 0, 0, 0),
                 (150, 1, 1, 0, 0, 0, 0)],
    "serial": [(263, 2, 1, 1, 0, 0, 0)] * 2,
}


def run_shape(shape, seed=17, ops=300):
    system = ReplicatedSystem(**SHAPES[shape])
    kernel = system.kernel
    rng = random.Random(f"{shape}:{seed}")
    sessions = [system.session(Guarantee.STRONG_SESSION_SI)
                for _ in range(6)]
    sessions[0].execute_update(
        lambda txn: [txn.write(f"k{key}", 0) for key in range(12)])
    system.quiesce()
    errors = []
    for op in range(ops):
        if shape == "failures":
            if op == 80:
                system.crash_secondary(1)
            elif op == 130:
                system.recover_secondary(1)
            elif op == 200:
                system.kill_primary()
                system.promote_secondary()
                # Sessions that lost commits are told so once; carry on
                # with fresh ones.
                sessions = [system.session(Guarantee.STRONG_SESSION_SI)
                            for _ in range(6)]
        session = rng.choice(sessions)
        keys = [f"k{rng.randrange(12)}" for _ in range(rng.randint(1, 4))]
        value = rng.randrange(1000)
        try:
            update = rng.random() < 0.5
            if update and shape in OVERLAPPING:
                other = sessions[(sessions.index(session) + 1) % 6]
                with session.update_transaction() as first:
                    with other.update_transaction() as second:
                        second.write(f"k{rng.randrange(12)}", value)
                    for key in keys:
                        first.write(key, value)
            elif update:
                def work(txn, keys=keys, value=value):
                    for key in keys:
                        txn.write(key, value)
                session.execute_update(work)
            else:
                session.execute_read_only(
                    lambda txn, keys=keys: [txn.read(key) for key in keys])
        except ReproError as exc:
            errors.append(type(exc).__name__)
        # Idle gaps, some of them zero: several commits in one instant.
        system.run(until=kernel.now + rng.choice((0.0, 0.0, 0.05, 0.3)))
    system.quiesce()
    return system, errors


def fingerprint(system):
    digest = hashlib.sha256("\n".join(
        repr(event) for event in system.recorder.events).encode())
    return digest.hexdigest(), system.kernel.counters()["peak_queue_depth"]


def counters(system):
    """Each secondary's refresher counters, in :data:`COUNTERS` order."""
    return [tuple(getattr(site.refresher, name) for name in COUNTERS)
            for site in system.secondaries]


@pytest.mark.parametrize("shape", sorted(RECORDED))
def test_refresh_schedule_reproduces_the_recording(shape):
    system, _errors = run_shape(shape)
    assert fingerprint(system) == RECORDED[shape]
    assert counters(system) == RECORDED_COUNTERS[shape]
