"""Microbenchmarks of the functional replicated system and the kernel."""

import pytest

from repro.core.failover import FailoverConfig
from repro.core.guarantees import Guarantee
from repro.core.sharding import ShardingConfig
from repro.core.system import ReplicatedSystem
from repro.kernel import Kernel
from repro.sim.resources import ProcessorSharingServer


def test_functional_update_propagate_read_cycle(benchmark):
    """One full write -> propagate -> refresh -> session read cycle."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              record_history=False)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    counter = iter(range(10**9))

    def cycle():
        value = next(counter)
        session.write("x", value)
        assert session.read("x") == value

    benchmark(cycle)


def test_functional_weak_read_cycle(benchmark):
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              record_history=False)
    session = system.session(Guarantee.WEAK_SI)
    session.write("x", 1)
    system.quiesce()

    def cycle():
        assert session.read("x") == 1

    benchmark(cycle)


def test_functional_fresh_read_dispatches_no_event(benchmark):
    """A strong-session read whose replica has caught up is served on
    the caller's stack: the kernel dispatches nothing for it."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              record_history=False)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write("x", 1)
    system.quiesce()
    kernel = system.kernel

    def cycle():
        dispatched = kernel.counters()["events_dispatched"]
        assert session.read("x") == 1
        assert kernel.counters()["events_dispatched"] == dispatched

    benchmark(cycle)
    assert session.blocked_reads == 0


def test_functional_read_after_own_write_blocks(benchmark):
    """Read-your-writes still waits for refresh: the read right after
    the session's own write blocks, and returns that write."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              record_history=False)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    counter = iter(range(10**9))

    def cycle():
        value = next(counter)
        blocked = session.blocked_reads
        session.write("x", value)
        assert session.read("x") == value
        assert session.blocked_reads == blocked + 1

    benchmark(cycle)


@pytest.mark.parametrize("secondaries", [1, 3, 5])
def test_functional_write_refresh_dispatches_three_events_per_secondary(
        benchmark, secondaries):
    """An unbatched write reaches each secondary as a start and a commit
    record.  Each is handled inside its own arrival event, and the
    commit's applicator is one callback: three events per secondary,
    with no refresher process to resume."""
    system = ReplicatedSystem(num_secondaries=secondaries,
                              propagation_delay=0.1, record_history=False)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    kernel = system.kernel
    counter = iter(range(10**9))

    def cycle():
        dispatched = kernel.counters()["events_dispatched"]
        session.write("x", next(counter))
        system.quiesce()
        assert kernel.counters()["events_dispatched"] - dispatched \
            == 3 * secondaries

    benchmark(cycle)


@pytest.mark.parametrize("secondaries,events", [(1, 32), (3, 72), (5, 112)])
def test_idle_failover_detector_dispatches_one_tick_per_interval(
        benchmark, secondaries, events):
    """Twenty idle seconds of the failover detector: ten ticks (each one
    callback), a heartbeat arrival and a lease-grant arrival per
    secondary per tick, and two lease checks — one armed check re-arms
    at the renewed deadline instead of one check per grant."""

    def idle():
        system = ReplicatedSystem(
            num_secondaries=secondaries, propagation_delay=0.5,
            batch_interval=0.0, record_history=False,
            failover=FailoverConfig(2.0, 8.0, 12.0))
        kernel = system.kernel
        system.run(until=21.0)
        dispatched = kernel.counters()["events_dispatched"]
        system.run(until=41.0)
        assert kernel.counters()["events_dispatched"] - dispatched == events

    benchmark(idle)


def test_functional_sharded_update_read_cycle(benchmark):
    """The strong-session cycle under partial replication: write-sets
    are split into per-shard streams (reusing the fingerprints cached on
    each UpdateRecord at log time — no second hash) and the read is
    shard-routed to a subscribing replica."""
    system = ReplicatedSystem(
        num_secondaries=2, propagation_delay=0.1, record_history=False,
        sharding=ShardingConfig(shards=8, placement=((0, 1, 2, 3),
                                                     (4, 5, 6, 7))))
    session = system.session(Guarantee.STRONG_SESSION_SI)
    counter = iter(range(10**9))

    def cycle():
        value = next(counter)
        session.write("x", value)
        assert session.read("x") == value

    benchmark(cycle)


def test_kernel_event_throughput(benchmark):
    """Raw event-loop speed: sleep-chain of 1000 events."""

    def run_chain():
        kernel = Kernel()

        def chain():
            for _ in range(1000):
                yield kernel.sleep(1.0)

        kernel.spawn(chain())
        kernel.run()

    benchmark(run_chain)


def test_ps_server_event_throughput(benchmark):
    """PS server with heavy arrival churn (200 overlapping jobs)."""

    def run_batch():
        kernel = Kernel()
        server = ProcessorSharingServer(kernel)

        def jobproc(delay, demand):
            yield kernel.sleep(delay)
            yield server.request(demand)

        for i in range(200):
            kernel.spawn(jobproc(i * 0.01, 0.5 + (i % 7) * 0.1))
        kernel.run()

    benchmark(run_batch)
