"""Tests for read-side options: freshness timeouts and degraded reads."""

import re

import pytest

from repro.core.admission import AdmissionConfig
from repro.core.guarantees import Guarantee
from repro.core.sharding import ShardingConfig
from repro.core.system import ReplicatedSystem
from repro.errors import (
    ConfigurationError,
    FreshnessTimeoutError,
)


def make_system(**kwargs):
    defaults = dict(num_secondaries=1, propagation_delay=10.0)
    defaults.update(kwargs)
    return ReplicatedSystem(**defaults)


# ---------------------------------------------------------------------------
# max_wait / on_timeout
# ---------------------------------------------------------------------------

def test_read_within_max_wait_succeeds():
    system = make_system(propagation_delay=3.0)
    with system.session(Guarantee.STRONG_SESSION_SI) as s:
        s.write("x", 1)
        value = s.execute_read_only(lambda t: t.read("x"), max_wait=5.0)
    assert value == 1


def test_read_times_out_with_error():
    system = make_system(propagation_delay=50.0)
    s = system.session(Guarantee.STRONG_SESSION_SI)
    s.write("x", 1)
    with pytest.raises(FreshnessTimeoutError, match="not at sequence"):
        s.execute_read_only(lambda t: t.read("x"), max_wait=5.0)
    assert s.freshness_timeouts == 1
    system.quiesce()


def test_read_times_out_with_stale_fallback():
    system = make_system(propagation_delay=50.0)
    s = system.session(Guarantee.STRONG_SESSION_SI)
    s.write("x", 1)
    value = s.execute_read_only(lambda t: t.read("x", default="stale"),
                                max_wait=5.0, on_timeout="stale")
    assert value == "stale"
    assert s.freshness_timeouts == 1
    system.quiesce()


def test_stale_fallback_records_wait_time():
    system = make_system(propagation_delay=50.0)
    s = system.session(Guarantee.STRONG_SESSION_SI)
    s.write("x", 1)
    s.execute_read_only(lambda t: t.read("x", default=None),
                        max_wait=4.0, on_timeout="stale")
    assert s.total_read_wait == pytest.approx(4.0)
    system.quiesce()


def test_invalid_on_timeout_rejected():
    system = make_system()
    s = system.session()
    with pytest.raises(ConfigurationError, match="on_timeout"):
        s.execute_read_only(lambda t: None, max_wait=1.0,
                            on_timeout="retry")


def test_negative_max_wait_rejected_when_the_read_need_not_wait():
    system = make_system()
    s = system.session(Guarantee.WEAK_SI)
    before = system.kernel.counters()
    with pytest.raises(ConfigurationError, match="max_wait"):
        s.execute_read_only(lambda t: t.read("x", default=None),
                            max_wait=-1.0)
    assert s.reads_executed == 0
    assert system.kernel.counters() == before


def test_negative_max_wait_rejected_when_the_read_must_wait():
    system = make_system()
    s = system.session(Guarantee.STRONG_SESSION_SI)
    s.write("x", 1)
    with pytest.raises(ConfigurationError, match="max_wait"):
        s.execute_read_only(lambda t: t.read("x"), max_wait=-1.0)
    assert s.reads_executed == 0 and s.blocked_reads == 0


def test_negative_max_wait_rejected_by_the_process_form():
    system = make_system()
    s = system.session(Guarantee.WEAK_SI)
    process = system.kernel.spawn(s.read_only_process(
        lambda t: t.read("x", default=None), max_wait=-1.0))
    with pytest.raises(ConfigurationError, match="max_wait"):
        system.kernel.run_until_complete(process)
    assert s.reads_executed == 0


def test_max_wait_ignored_when_replica_fresh():
    system = make_system(propagation_delay=1.0)
    with system.session(Guarantee.WEAK_SI) as s:
        assert s.execute_read_only(lambda t: t.read("x", default="none"),
                                   max_wait=0.0) == "none"
    assert s.freshness_timeouts == 0


def test_session_remains_usable_after_timeout():
    system = make_system(propagation_delay=6.0)
    s = system.session(Guarantee.STRONG_SESSION_SI)
    s.write("x", 1)
    with pytest.raises(FreshnessTimeoutError):
        s.execute_read_only(lambda t: t.read("x"), max_wait=2.0)
    # Without the cap, the same read eventually succeeds.
    assert s.execute_read_only(lambda t: t.read("x")) == 1


def _lagging_reader(sharded: bool):
    """A session whose two-key read cannot be fresh within the deadline:
    its replica is three commits behind on one key's axis and one behind
    on the other's.  Returns (system, session, replica, keys, axis)
    where ``axis`` is the one furthest behind."""
    sharding = None
    if sharded:
        # secondary-1 holds every shard, secondary-2 only the first half.
        sharding = ShardingConfig(shards=4, placement=((0, 1, 2, 3), (0, 1)))
    system = ReplicatedSystem(
        num_secondaries=2, propagation_delay=50.0, sharding=sharding,
        admission=AdmissionConfig(rate=1e9, read_deadline=2.0,
                                  degrade_to_stale=True))
    far, near = "far", "near"
    if sharded:
        by_shard = {}
        for i in range(64):
            by_shard.setdefault(
                next(iter(sharding.shards_touched([f"k{i}"]))), f"k{i}")
        far, near = by_shard[0], by_shard[1]
    session = system.session(Guarantee.STRONG_SESSION_SI, secondary=1)
    session.write(far, 1)
    session.write(near, 1)
    session.write(far, 2)          # commit 3: `far` is the axis furthest behind
    axis = next(iter(sharding.shards_touched([far]))) if sharded else None
    return system, session, system.secondaries[1], [far, near], axis


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["unsharded", "half-subscriber"])
def test_timeout_and_degraded_read_name_the_axis_furthest_behind(sharded):
    """One read path, one report: the timeout message and the staleness
    report carry the sequence required on the axis furthest behind and
    the frontier the replica had reached there — in both modes."""
    system, session, replica, keys, axis = _lagging_reader(sharded)
    required = session._read_plan(keys)
    assert required[axis] == 3 and replica.frontier(axis) == 0

    with pytest.raises(FreshnessTimeoutError) as caught:
        session.execute_read_only(lambda t: None, keys=keys, max_wait=2.0)
    numbers = [int(n) for n in re.findall(r"\d+", str(caught.value))]
    assert numbers[:2] == [2, 3]            # "secondary-2 not at sequence 3"
    assert numbers[-1] == replica.frontier(axis)
    if sharded:
        assert f"shard {axis}" in str(caught.value)

    # No explicit max_wait: the admission deadline degrades the read.
    session.execute_read_only(lambda t: None, keys=keys)
    report = session.staleness_reports[-1]
    assert (report.required_seq, report.served_seq, report.bound) \
        == (required[axis], replica.frontier(axis), 3)
