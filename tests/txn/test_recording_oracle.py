"""The recorded history is pinned byte for byte, and stays read-only.

The serving-path rewrite (one-pass ``Transaction.scan``, slot-backed
``HistoryEvent``/``Version``, a recorder that decides to drop before it
builds anything) must not change a single recorded field.  The digests
below were taken at the commit *before* that rewrite, from the frozen
dataclass events and the old scan loop, and are asserted against the
new code.
"""

import hashlib
import random

import pytest

from repro import Guarantee, ReplicatedSystem
from repro.faults.harness import ChaosConfig, run_chaos
from repro.storage.engine import SIDatabase
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.history import HistoryRecorder

EVENT_FIELDS = (
    "seq", "time", "kind", "site", "txn_id", "logical_id", "session",
    "refresh_of", "start_ts", "commit_ts", "key", "value", "deleted",
    "producer", "reason", "update_declared")


def events_digest(events) -> str:
    """SHA-256 over ``repr`` of all 16 fields of every event, in order."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(tuple(getattr(event, name)
                                 for name in EVENT_FIELDS)).encode())
    return digest.hexdigest()


def seeded_run(history_detail: str) -> HistoryRecorder:
    """Updates, deletes, point reads, range and prefix scans (some
    inside update transactions with own writes), an abort, and a
    secondary crash + recovery — all drawn from one fixed seed.  No
    read passes a non-``None`` default for a missing key: that is the
    one recorded field the absent-read bugfix changes on purpose."""
    rng = random.Random(1806)
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.5,
                              batch_interval=1.0,
                              history_detail=history_detail)
    sessions = [system.session(Guarantee.STRONG_SESSION_SI, secondary=i % 2)
                for i in range(4)]
    key = "item:{:02d}".format

    def load(txn):
        for i in range(24):
            txn.write(key(i), i)
        txn.write("pin", 0)         # never deleted: exists() stays True
    sessions[0].execute_update(load)
    system.quiesce()

    def update(txn):
        lo = rng.randrange(20)
        rows = txn.scan(key(lo), key(lo + 4))
        for k, value in rows[:2]:
            txn.write(k, value + 1)
        if rng.random() < 0.4:
            txn.delete(key(rng.randrange(24)))
        if rng.random() < 0.4:
            txn.write(key(rng.randrange(24, 30)), -1)
        txn.read(key(lo), default=None)
        # The second range holds whatever new key this txn just wrote.
        return txn.scan(prefix="item:0") + txn.scan(key(18), key(40))

    def read(txn):
        lo = rng.randrange(24)
        txn.read(key(lo), default=None)
        txn.read("never-written", default=None)
        txn.exists("pin")
        return txn.scan(key(lo), None) + txn.scan(None, key(lo))

    for step in range(60):
        session = sessions[rng.randrange(4)]
        if step == 20:
            system.crash_secondary(0)
        if step == 30:
            system.recover_secondary(0)
        if step == 40:
            with pytest.raises(ZeroDivisionError):
                with session.update_transaction() as txn:
                    txn.write(key(1), "doomed")
                    txn.read(key(2))
                    1 / 0
        if rng.random() < 0.35:
            session.execute_update(update)
        else:
            session.execute_read_only(read)     # fails over while s0 is down
        system.run(until=system.kernel.now + rng.random())
    system.quiesce()
    return system.recorder


#: detail -> (events, digest), recorded at the parent commit.  The
#: "ops" digest was re-recorded when applicators became completion
#: callbacks: a refresh now replays and commits in one kernel event, so
#: secondary-1 commits before secondary-2's applicator writes inside the
#: same virtual instant and the global ``seq`` interleaves the two sites
#: differently.  Nothing any one site does moved (``RECORDED_PER_SITE``,
#: taken before that change), and "commits" records no writes, so its
#: global digest is the original.  Both details, and every site's
#: digest below, were re-recorded again when a batch flush moved from
#: ``batch_interval`` after the first buffered record to the first free
#: slot: frames reach the secondaries sooner, so strong-session reads
#: wait less and every later event moves in time, and secondary-1
#: records one more transaction (687 -> 691 and 197 -> 199 events).
RECORDED = {
    "ops": (691, "ccd9484216eea5f19064d1889d619957"
                 "c2ca997690c9c2f97ebaeadb185379d7"),
    "commits": (199, "0a0affb262aea10250df60dbe62e1617"
                     "d9a11346792ff55efbb556ffcb6bee95"),
}

#: detail -> site -> digest of that site's events, in order, over every
#: field but the global ``seq``.
RECORDED_PER_SITE = {
    "ops": {
        "primary": "6a70aed5e9893040988a24c56e7bbf5a"
                   "b0d0accf6409bcf0a8ff1edad16d0705",
        "secondary-1": "77c80de9a01d873a4f997e25bd85b2d0"
                       "faf081c4ed1d2f12fca1d6f8635b2ad9",
        "secondary-2": "62b6b9ebe620915f193035b1ea1b9c9c"
                       "f91a28b2af34b892f8bb82b71cf485f7",
    },
    "commits": {
        "primary": "c1a5da5d72c9c2fdb04f64d7727c9ca7"
                   "d2baae2a37f2e4fde3fc15892689d730",
        "secondary-1": "b7ee5d15193f5b785d5790ccf45f81e7"
                       "7ef029972ce77b56a4e6007e6b4aeaff",
        "secondary-2": "c96104009f89da4e1ddb0aafad95640c"
                       "80e450e65887b43e49670d475ccd3c51",
    },
}


def per_site_digests(events) -> dict:
    digests = {}
    for event in events:
        digests.setdefault(event.site, hashlib.sha256()).update(
            repr(tuple(getattr(event, name)
                       for name in EVENT_FIELDS[1:])).encode())
    return {site: digest.hexdigest() for site, digest in digests.items()}


@pytest.mark.parametrize("detail", sorted(RECORDED))
def test_seeded_history_matches_the_recording(detail):
    recorder = seeded_run(detail)
    kinds = {event.kind for event in recorder.events}
    assert {"begin", "commit", "abort", "recover"} <= kinds
    assert ({"read", "write", "scan"} <= kinds) == (detail == "ops")
    assert per_site_digests(recorder.events) == RECORDED_PER_SITE[detail]
    assert (len(recorder), events_digest(recorder.events)) \
        == RECORDED[detail]


def test_checkers_do_not_write_to_events():
    """Events are plain slot objects now (nothing stops a store), so the
    read-only contract is checked: every checker, over a chaos history,
    leaves every field of every event as it was."""
    result = run_chaos(ChaosConfig(seed=4))
    recorder = result.recorder
    before = events_digest(recorder.events)
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        fresh = HistoryRecorder(detail=recorder.detail)
        fresh.events = recorder.events
        assert check(fresh).ok
    assert events_digest(recorder.events) == before


class CountingClock:
    def __init__(self):
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return float(self.calls)


def test_commits_detail_drops_ops_before_reading_the_clock():
    clock = CountingClock()
    recorder = HistoryRecorder(detail="commits")
    db = SIDatabase(name="primary", recorder=recorder, clock=clock)
    txn = db.begin(update=True)
    assert (len(recorder), clock.calls) == (1, 1)
    for i in range(10):
        txn.write(f"k{i}", i)
        txn.read(f"k{i}")
        txn.read("missing", default=None)
        txn.delete(f"k{i}")
        txn.scan("k", "l")
        txn.scan(prefix="k")
    assert (len(recorder), clock.calls) == (1, 1)
    txn.commit()
    doomed = db.begin(update=True)
    doomed.write("k0", 1)
    doomed.abort()
    assert [e.kind for e in recorder.events] == [
        "begin", "commit", "begin", "abort"]
    assert clock.calls == 4
    assert [e.time for e in recorder.events] == [1.0, 2.0, 3.0, 4.0]
