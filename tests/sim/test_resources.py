"""Tests for the shared-server resources: PS, round-robin, FIFO."""

import pytest

from repro.kernel import Kernel
from repro.sim.resources import (
    FifoServer,
    ProcessorSharingServer,
    RoundRobinServer,
)


@pytest.fixture
def kernel():
    return Kernel()


def job(kernel, server, demand, done, tag=None):
    def body():
        yield server.request(demand)
        done.append((tag, kernel.now))
    return body()


# ---------------------------------------------------------------------------
# Processor sharing
# ---------------------------------------------------------------------------

def test_ps_single_job_takes_demand(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 2.0, done))
    kernel.run()
    assert done == [(None, 2.0)]


def test_ps_two_equal_jobs_share_equally(kernel):
    """Two jobs of demand d arriving together finish together at 2d."""
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 1.0, done, "a"))
    kernel.spawn(job(kernel, server, 1.0, done, "b"))
    kernel.run()
    assert [t for _, t in done] == [2.0, 2.0]


def test_ps_short_job_finishes_first(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 0.5, done, "short"))
    kernel.spawn(job(kernel, server, 2.0, done, "long"))
    kernel.run()
    # Short job: shares until it accumulates 0.5 of service at rate 1/2
    # -> finishes at t=1.0; long job then runs alone: 2.0-0.5 remaining
    # at full rate -> finishes at 1.0 + 1.5 = 2.5.
    assert done == [("short", 1.0), ("long", 2.5)]


def test_ps_late_arrival(kernel):
    server = ProcessorSharingServer(kernel)
    done = []

    def late():
        yield kernel.sleep(1.0)
        yield server.request(1.0)
        done.append(("late", kernel.now))

    kernel.spawn(job(kernel, server, 2.0, done, "early"))
    kernel.spawn(late())
    kernel.run()
    # t=0..1: early alone (1.0 of 2.0 done). t=1..3: both share (rate 1/2):
    # late needs 1.0 -> 2 wall seconds -> t=3; early finishes at t=3 too.
    assert sorted(t for _, t in done) == [3.0, 3.0]


def test_ps_zero_demand_completes_instantly(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 0.0, done))
    kernel.run()
    assert done == [(None, 0.0)]


def test_ps_capacity_scales_rate(kernel):
    server = ProcessorSharingServer(kernel, capacity=2.0)
    done = []
    kernel.spawn(job(kernel, server, 2.0, done))
    kernel.run()
    assert done == [(None, 1.0)]


def test_ps_utilization_and_counters(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 2.0, done))
    kernel.run(until=4.0)
    assert server.jobs_completed == 1
    assert server.utilization(4.0) == pytest.approx(0.5)


def test_ps_active_jobs(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 5.0, done))
    kernel.spawn(job(kernel, server, 5.0, done))
    kernel.run(until=1.0)
    assert server.active_jobs == 2
    kernel.run()
    assert server.active_jobs == 0


def test_ps_killed_job_evicted(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    victim = kernel.spawn(job(kernel, server, 10.0, done, "victim"))
    kernel.spawn(job(kernel, server, 2.0, done, "survivor"))
    kernel.run(until=1.0)
    kernel.kill(victim)
    kernel.run()
    # Survivor: 0.5 done by t=1 (sharing), then full rate: 1.5 more -> 2.5.
    assert done == [("survivor", 2.5)]
    assert server.active_jobs == 0


def test_ps_many_jobs_conserve_work(kernel):
    """Total completion time of a batch equals total demand (work
    conservation: the server is never idle while jobs remain)."""
    server = ProcessorSharingServer(kernel)
    done = []
    demands = [0.3, 1.1, 0.7, 2.0, 0.9]
    for i, demand in enumerate(demands):
        kernel.spawn(job(kernel, server, demand, done, i))
    kernel.run()
    assert max(t for _, t in done) == pytest.approx(sum(demands))
    assert server.jobs_completed == len(demands)


def test_ps_negative_demand_rejected(kernel):
    server = ProcessorSharingServer(kernel)
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        server.request(-1.0)


# ---------------------------------------------------------------------------
# Round-robin
# ---------------------------------------------------------------------------

def test_rr_single_job(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    kernel.spawn(job(kernel, server, 0.01, done))
    kernel.run()
    assert done[0][1] == pytest.approx(0.01)


def test_rr_two_jobs_interleave(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    kernel.spawn(job(kernel, server, 0.01, done, "a"))
    kernel.spawn(job(kernel, server, 0.01, done, "b"))
    kernel.run()
    times = sorted(t for _, t in done)
    # Both finish around 0.02 — within one slice of each other.
    assert times[0] == pytest.approx(0.02, abs=0.002)
    assert times[1] == pytest.approx(0.02, abs=0.002)


def test_rr_approximates_ps(kernel):
    """With a slice much smaller than demands, RR matches PS closely —
    the justification for the default PS server (Section 5's 1 ms slice
    vs 20 ms operations)."""
    rr_kernel, ps_kernel = Kernel(), Kernel()
    rr = RoundRobinServer(rr_kernel, time_slice=0.001)
    ps = ProcessorSharingServer(ps_kernel)
    rr_done, ps_done = [], []
    demands = [0.2, 0.14, 0.3]
    for i, demand in enumerate(demands):
        rr_kernel.spawn(job(rr_kernel, rr, demand, rr_done, i))
        ps_kernel.spawn(job(ps_kernel, ps, demand, ps_done, i))
    rr_kernel.run()
    ps_kernel.run()
    rr_times = dict(rr_done)
    ps_times = dict(ps_done)
    for i in range(len(demands)):
        assert rr_times[i] == pytest.approx(ps_times[i], abs=0.01)


def test_rr_time_slice_validation(kernel):
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        RoundRobinServer(kernel, time_slice=0.0)


# ---------------------------------------------------------------------------
# FIFO
# ---------------------------------------------------------------------------

def test_fifo_serves_in_arrival_order(kernel):
    server = FifoServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 1.0, done, "first"))
    kernel.spawn(job(kernel, server, 1.0, done, "second"))
    kernel.run()
    assert done == [("first", 1.0), ("second", 2.0)]


def test_fifo_idle_then_busy(kernel):
    server = FifoServer(kernel)
    done = []

    def late():
        yield kernel.sleep(5.0)
        yield server.request(1.0)
        done.append(("late", kernel.now))

    kernel.spawn(late())
    kernel.run()
    assert done == [("late", 6.0)]
    assert server.utilization(6.0) == pytest.approx(1 / 6)


def test_rr_killed_job_does_not_stall_others(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    victim = kernel.spawn(job(kernel, server, 0.05, done, "victim"))
    kernel.spawn(job(kernel, server, 0.01, done, "other"))
    kernel.run(until=0.002)
    kernel.kill(victim)
    kernel.run()
    assert [tag for tag, _ in done] == ["other"]


def test_rr_worker_respawns_after_idle(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    kernel.spawn(job(kernel, server, 0.01, done, "first"))
    kernel.run()

    def late():
        yield kernel.sleep(5.0)
        yield server.request(0.01)
        done.append(("late", kernel.now))

    kernel.spawn(late())
    kernel.run()
    assert len(done) == 2
    assert done[-1][0] == "late"


# ---------------------------------------------------------------------------
# request_call: the one service interface, on all three disciplines
# ---------------------------------------------------------------------------

DISCIPLINES = {
    "ps": ProcessorSharingServer,
    "rr": lambda kernel: RoundRobinServer(kernel, time_slice=0.01),
    "fifo": FifoServer,
}

#: (arrival instant, demand): overlapping jobs, a same-instant pair, an
#: idle gap and a late burst.
ARRIVALS = [(0.0, 0.5), (0.1, 0.2), (0.1, 0.35), (0.3, 0.05), (2.0, 0.4),
            (2.0, 0.4), (2.25, 0.1)]


def serve_arrivals(make_server, through_callbacks):
    kernel = Kernel()
    server = make_server(kernel)
    done = {}

    def finished(tag):
        done[tag] = kernel.now

    def process_job(tag, arrival, demand):
        yield kernel.sleep(arrival)
        yield server.request(demand)
        finished(tag)

    for tag, (arrival, demand) in enumerate(ARRIVALS):
        if through_callbacks:
            kernel.call_at(arrival, server.request_call, demand,
                           finished, tag)
        else:
            kernel.spawn(process_job(tag, arrival, demand))
    kernel.run()
    return done, server.jobs_completed, server.utilization(kernel.now)


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_request_call_matches_request(discipline):
    """A process's ``request`` is ``request_call`` with its resume as the
    callback: same completion instants, same counters."""
    make_server = DISCIPLINES[discipline]
    by_process = serve_arrivals(make_server, through_callbacks=False)
    by_callback = serve_arrivals(make_server, through_callbacks=True)
    assert by_callback == by_process
    assert by_callback[1] == len(ARRIVALS)


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_request_call_zero_demand_runs_at_once(kernel, discipline):
    server = DISCIPLINES[discipline](kernel)
    server.request_call(5.0, lambda: None)
    ran = []
    server.request_call(0.0, ran.append, "now")
    assert ran == ["now"]
    assert server.active_jobs == 1


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_negative_demand_rejected_everywhere(kernel, discipline):
    from repro.errors import SimulationError
    server = DISCIPLINES[discipline](kernel)
    with pytest.raises(SimulationError):
        server.request(-1.0)
    with pytest.raises(SimulationError):
        server.request_call(-1.0, lambda: None)


def test_ps_callback_may_admit_to_the_completing_server(kernel):
    """The re-entrant admission is seen by the completion's one re-arm:
    no event is armed for it, and PS arithmetic places its finish."""
    server = ProcessorSharingServer(kernel)
    done = {}

    def finished(tag):
        done[tag] = kernel.now

    def first_done():
        finished("a")
        server.request_call(0.5, finished, "b")

    server.request_call(1.0, first_done)
    server.request_call(2.0, finished, "c")
    # a and c share until a has its 1.0 at t=2.0; the completion admits b.
    kernel.run(until=2.0)
    assert done == {"a": 2.0}
    assert kernel.pending_events == 1           # the one re-armed event
    scheduled = kernel.counters()["events_scheduled"]
    # b (0.5) and c (1.0 left) share: b at 3.0, then c alone until 3.5.
    kernel.run()
    assert done == {"a": 2.0, "b": 3.0, "c": 3.5}
    counters = kernel.counters()
    # One event per departure, none orphaned: arm, early fire at 1.0 (c
    # slowed a down), a's completion, b's, c's.
    assert counters["events_scheduled"] == scheduled + 1 == 4
    assert counters["events_dispatched"] == 4


@pytest.mark.parametrize("discipline", ["rr", "fifo"])
def test_queued_callback_may_admit_to_the_completing_server(kernel,
                                                            discipline):
    server = DISCIPLINES[discipline](kernel)
    done = {}

    def finished(tag):
        done[tag] = kernel.now

    def first_done():
        finished("a")
        server.request_call(0.5, finished, "b")
        # The service loop is this completion event: it picks b up when
        # the callback returns, and no second worker is spawned.
        assert kernel.pending_events == 0

    server.request_call(1.0, first_done)
    kernel.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.5)
    assert server.jobs_completed == 2


@pytest.mark.parametrize("discipline,kill_at,expected", [
    # Three jobs share to t=0.5 (1/6 each), then two: 0.5 + 2 * 5/6.
    ("ps", 0.5, 0.5 + 2 * 5 / 6),
    # The victim never reaches the head: "last" follows "first".
    ("fifo", 0.5, 2.0),
    # Evicted from the queue before its first slice: two jobs alternate.
    ("rr", 0.0, 2.0),
])
def test_killed_process_job_leaves_callback_jobs_alone(kernel, discipline,
                                                       kill_at, expected):
    server = DISCIPLINES[discipline](kernel)
    done = {}

    def finished(tag):
        done[tag] = kernel.now

    server.request_call(1.0, finished, "first")
    victim = kernel.spawn(job(kernel, server, 10.0, [], "victim"))
    kernel.run(until=0.0)                 # the victim joins behind "first"
    server.request_call(1.0, finished, "last")
    kernel.run(until=kill_at)
    kernel.kill(victim)
    kernel.run()
    assert sorted(done) == ["first", "last"]
    assert done["last"] == pytest.approx(expected, abs=0.011)
    assert server.active_jobs == 0
    assert server.jobs_completed == 2
