"""The failover detector's schedule, pinned: histories, counters, reports.

Each run below is a small seeded mix of updates and reads on a cluster
with autonomous failover, broken in one of four ways mid-run.  Its pin
is the SHA-256 of the ``repr`` of every recorded
:class:`~repro.txn.history.HistoryEvent` (site, time, sequence number
and transaction ids included), every :class:`AutoFailover` counter, the
``repr`` of its reports and the original primary's ``demoted_at``.  A
change to how the detector is *dispatched* — which kernel events carry
heartbeats, suspicion checks, the coordinator and lease checks — must
leave all of them unchanged; only a change to what the detector
decides, or when in virtual time, may move them.  The kernel's event
count and peak queue depth are deliberately not pinned.

The four shapes cover the detector's every path:

* ``zombie`` — every link cut: the primary's lease lapses and it
  self-demotes, the coordinator promotes, the partition heals and the
  zombie's held traffic is fenced;
* ``false-suspicion`` — one link cut briefly: one suspicion, below
  quorum, retracted when heartbeats resume;
* ``kill-crashed`` — the primary killed while one secondary is down:
  the quorum is reached by the live ones, the down one recovers later;
* ``manual-promote`` — the primary killed and a secondary promoted by
  hand between two detector ticks, so the detector learns of the new
  epoch only through ``_check_epoch``.
"""

import hashlib
import random

import pytest

from repro.core.failover import FailoverConfig
from repro.core.guarantees import Guarantee
from repro.core.system import ReplicatedSystem
from repro.errors import ReproError

CONFIG = FailoverConfig(heartbeat_interval=2.0, suspicion_timeout=8.0,
                        lease_duration=12.0)

#: shape -> {op index: action}.  Ops advance virtual time by about
#: 0.3 s each, so op 40 is near t = 12 s.
SCRIPTS = {
    "zombie": {40: "partition", 160: "heal"},
    "false-suspicion": {40: "partition-0", 75: "heal-0"},
    "kill-crashed": {30: "crash-1", 50: "kill", 170: "recover-1"},
    "manual-promote": {45: "kill-promote"},
}

#: shape -> (history digest, counters, reports, demoted_at).
RECORDED = {
    "false-suspicion": (
        "5535d20245c945264dfc3e2f64f9462b18bea2a3f6cf40fcee0fb03aee6f972d",
        (1, 1, 0, 0, 132, 128),
        "[]",
        None),
    "kill-crashed": (
        "e350e94fb4da969a070d584153fba28ff41fc7b0e7049198365fde42846b8644",
        (3, 0, 0, 1, 126, 100),
        "[FailoverReport(at=32.0, suspecting=('secondary-1', "
        "'secondary-3', 'secondary-4'), lease_bound=30.5, "
        "promoted='secondary-1')]",
        None),
    "manual-promote": (
        "b73156fd57951a893c023b8cf4efe7a6a57c829c6b1f659d29c9b4330b363573",
        (0, 0, 0, 0, 109, 109),
        "[]",
        None),
    "zombie": (
        "70120e41e45b2fa38a4581b383e07b5591d4d80dfc0ac00765d678dbfb8a1d6c",
        (4, 0, 1, 1, 122, 95),
        "[FailoverReport(at=24.0, suspecting=('secondary-1', "
        "'secondary-2', 'secondary-3', 'secondary-4'), lease_bound=22.5, "
        "promoted='secondary-1')]",
        22.5),
}

COUNTERS = ("suspicions", "false_suspicions", "lease_expiries",
            "auto_promotions", "heartbeats_sent", "grants_received")


def act(system, action):
    if action == "partition":
        system.partition()
    elif action == "heal":
        system.heal()
    elif action == "partition-0":
        system.partition(0)
    elif action == "heal-0":
        system.heal(0)
    elif action == "crash-1":
        system.crash_secondary(1)
    elif action == "recover-1":
        system.recover_secondary(1)
    elif action == "kill":
        system.kill_primary()
    elif action == "kill-promote":
        system.kill_primary()
        system.promote_secondary()
    else:  # pragma: no cover - a typo in SCRIPTS
        raise ValueError(action)


def run_shape(shape, seed=17, ops=240):
    system = ReplicatedSystem(num_secondaries=4, propagation_delay=0.5,
                              batch_interval=0.0, failover=CONFIG)
    kernel = system.kernel
    original_primary = system.primary
    rng = random.Random(f"{shape}:{seed}")
    script = SCRIPTS[shape]

    def fresh_sessions():
        return [system.session(rng.choice((Guarantee.STRONG_SESSION_SI,
                                           Guarantee.WEAK_SI)),
                               failover_wait=30.0)
                for _ in range(6)]

    sessions = fresh_sessions()
    sessions[0].execute_update(
        lambda txn: [txn.write(f"k{key}", 0) for key in range(12)])
    system.quiesce()
    errors = []
    epoch = system.promotions
    for op in range(ops):
        if op in script:
            act(system, script[op])
        if system.promotions != epoch:
            # Sessions that lost commits are told so once; carry on
            # with fresh ones.
            epoch = system.promotions
            sessions = fresh_sessions()
        session = rng.choice(sessions)
        keys = [f"k{rng.randrange(12)}" for _ in range(rng.randint(1, 4))]
        value = rng.randrange(1000)
        try:
            if rng.random() < 0.5:
                def work(txn, keys=keys, value=value):
                    for key in keys:
                        txn.write(key, value)
                session.execute_update(work)
            else:
                session.execute_read_only(
                    lambda txn, keys=keys: [txn.read(key) for key in keys])
        except ReproError as exc:
            errors.append(type(exc).__name__)
        system.run(until=kernel.now + rng.choice((0.0, 0.05, 0.3, 0.8)))
    system.quiesce()
    return system, original_primary, errors


def fingerprint(system, original_primary):
    detector = system.auto_failover
    history = hashlib.sha256("\n".join(
        repr(event) for event in system.recorder.events).encode())
    return (history.hexdigest(),
            tuple(getattr(detector, name) for name in COUNTERS),
            repr(detector.reports),
            original_primary.demoted_at)


@pytest.mark.parametrize("shape", sorted(SCRIPTS))
def test_failover_schedule_reproduces_the_recording(shape):
    system, original_primary, _errors = run_shape(shape)
    assert fingerprint(system, original_primary) == RECORDED[shape]
