"""Tests for the extension surface: PCSI, session migration, bounded
staleness.

These go beyond the paper's evaluated algorithms but implement exactly the
distinctions its Section 7 draws (PCSI orders a session's reads after its
updates but not after each other) and the freshness-bound idea from the
fine-grained-freshness line of work it cites.
"""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError
from repro.txn.checkers import check_strong_session_si, check_weak_si


def make_system(**kwargs):
    defaults = dict(num_secondaries=2, propagation_delay=2.0)
    defaults.update(kwargs)
    return ReplicatedSystem(**defaults)


# ---------------------------------------------------------------------------
# PCSI vs strong session SI
# ---------------------------------------------------------------------------

def test_pcsi_reads_own_updates():
    """PCSI still guarantees a session sees its own earlier updates."""
    system = make_system()
    with system.session(Guarantee.PCSI) as s:
        s.write("x", 1)
        assert s.read("x") == 1
        assert s.blocked_reads == 1


def test_pcsi_allows_backwards_reads_across_replicas():
    """The Section 7 separation: after moving to a stale replica, a PCSI
    session's second read can observe an older state than its first."""
    system = make_system(propagation_delay=0.0)
    writer = system.session(Guarantee.WEAK_SI, secondary=1)
    # secondary-1 is up to date; pause propagation, then advance primary.
    writer.write("x", 1)
    system.quiesce()
    system.propagator.pause()
    writer.write("x", 2)        # only the primary has x=2 now... but
    system.run()                # secondary-1 and 2 both missed it
    system.propagator.resume()
    # Deliver only to secondary index 0 by... simpler: both get it; make
    # one replica stale by pausing again after a partial quiesce.
    system.quiesce()
    system.propagator.pause()
    writer.write("x", 3)
    system.run()
    # Now: primary at x=3; both secondaries at x=2.  Bring secondary 0
    # alone up to date with a Section 3.4 copy of the primary.
    system.recover_secondary(0)
    assert system.secondaries[0].seq_db == 3
    assert system.secondaries[1].seq_db == 2

    pcsi = system.session(Guarantee.PCSI, secondary=0)
    assert pcsi.read("x") == 3            # fresh replica
    pcsi.move_to(1)
    assert pcsi.read("x") == 2            # PCSI: time went backwards!
    result = check_strong_session_si(system.recorder)
    assert not result.ok                  # formally a session inversion
    assert check_weak_si(system.recorder).ok
    system.propagator.resume()
    system.quiesce()


def test_strong_session_si_monotonic_across_migration():
    """Strong session SI must NOT go backwards after move_to: the next
    read waits for the new replica to catch up."""
    system = make_system(propagation_delay=0.0)
    writer = system.session(Guarantee.WEAK_SI, secondary=1)
    writer.write("x", 1)
    system.quiesce()
    system.propagator.pause()
    writer.write("x", 2)
    system.run()
    system.recover_secondary(0)           # a copy of the primary at x=2
    session = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    assert session.read("x") == 2
    session.move_to(1)                    # stale replica (still at x=1)
    system.propagator.resume()            # let it catch up while we wait

    assert session.read("x") == 2         # waited instead of regressing
    assert session.blocked_reads == 1
    result = check_strong_session_si(system.recorder)
    assert result.ok, [v.message for v in result.violations]


def test_weak_si_migration_allows_regression_without_blocking():
    system = make_system(propagation_delay=5.0)
    s = system.session(Guarantee.WEAK_SI, secondary=0)
    s.write("x", 1)
    s.move_to(1)
    assert s.read("x", default="stale") == "stale"
    assert s.blocked_reads == 0
    system.quiesce()


@pytest.mark.parametrize("guarantee,time_travels", [
    (Guarantee.WEAK_SI, True),
    (Guarantee.PCSI, True),
    (Guarantee.STRONG_SESSION_SI, False),
    (Guarantee.STRONG_SI, False),
])
def test_move_to_time_travel_matrix(guarantee, time_travels):
    """Pin both halves of the move_to() docstring: after rebinding to a
    stale replica, PCSI/WEAK_SI sessions observe time going backwards,
    while STRONG_SESSION_SI/STRONG_SI sessions wait for the new replica
    to reach everything the session already saw."""
    from repro.errors import FreshnessTimeoutError

    system = make_system(propagation_delay=0.0)
    writer = system.session(Guarantee.WEAK_SI, secondary=1)
    writer.write("x", 1)
    system.quiesce()
    system.propagator.pause()
    writer.write("x", 2)
    system.run()
    # Replica 0 gets the second commit from a copy of the primary;
    # replica 1 stays one state behind.
    system.recover_secondary(0)
    assert system.secondaries[0].seq_db == 2
    assert system.secondaries[1].seq_db == 1

    session = system.session(guarantee, secondary=0)
    assert session.read("x") == 2         # observes S^2 at the fresh site
    session.move_to(1)
    if time_travels:
        # Time goes backwards, immediately and without blocking.
        assert session.read("x") == 1
        assert session.blocked_reads == 0
    else:
        # The read refuses to regress: it blocks until the stale replica
        # reaches S^2, which cannot happen while propagation is paused.
        with pytest.raises(FreshnessTimeoutError):
            session.execute_read_only(lambda t: t.read("x"),
                                      max_wait=5.0)
        system.propagator.resume()
        assert session.read("x") == 2     # catch-up, then the fresh value
        assert session.blocked_reads >= 1
    system.propagator.resume()
    system.quiesce()


def test_move_to_validates_index():
    system = make_system()
    s = system.session()
    with pytest.raises(ConfigurationError):
        s.move_to(9)


# ---------------------------------------------------------------------------
# Bounded staleness
# ---------------------------------------------------------------------------

def test_freshness_bound_zero_equals_strong_si():
    """k=0: every read waits for full freshness, like ALG-STRONG-SI."""
    system = make_system(propagation_delay=3.0)
    writer = system.session(Guarantee.WEAK_SI, secondary=0)
    reader = system.session(Guarantee.WEAK_SI, secondary=1,
                            freshness_bound=0)
    writer.write("x", 1)
    assert reader.read("x") == 1
    assert reader.blocked_reads == 1


def test_freshness_bound_allows_bounded_lag():
    """k=5: a read proceeds while the replica is <= 5 commits behind."""
    system = make_system(propagation_delay=100.0)
    writer = system.session(Guarantee.WEAK_SI, secondary=0)
    reader = system.session(Guarantee.WEAK_SI, secondary=1,
                            freshness_bound=5)
    for i in range(4):
        writer.write("x", i)
    # Replica is 4 commits behind: within the bound, no blocking.
    assert reader.read("x", default=None) is None
    assert reader.blocked_reads == 0
    system.quiesce()


def test_freshness_bound_blocks_beyond_lag():
    system = make_system(propagation_delay=4.0)
    writer = system.session(Guarantee.WEAK_SI, secondary=0)
    reader = system.session(Guarantee.WEAK_SI, secondary=1,
                            freshness_bound=2)
    for i in range(6):
        writer.write("x", i)
    value = reader.read("x")
    assert value >= 3          # at most 2 commits stale
    assert reader.blocked_reads == 1


def test_freshness_bound_validation():
    system = make_system()
    with pytest.raises(ConfigurationError):
        system.session(freshness_bound=-1)


def test_freshness_bound_composes_with_session_si():
    system = make_system(propagation_delay=3.0)
    s = system.session(Guarantee.STRONG_SESSION_SI, secondary=0,
                       freshness_bound=10)
    s.write("x", 1)
    assert s.read("x") == 1    # session rule still applies


# ---------------------------------------------------------------------------
# Simulation-model extension knob
# ---------------------------------------------------------------------------

def test_sim_freshness_bound_interpolates_between_weak_and_strong():
    from repro.simmodel.experiment import run_once
    from repro.simmodel.params import SimulationParameters

    def run(bound, algorithm=Guarantee.WEAK_SI):
        params = SimulationParameters(
            num_sec=2, clients_per_secondary=8, duration=240.0,
            warmup=60.0, algorithm=algorithm, freshness_bound=bound,
            seed=9)
        return run_once(params)

    weak = run(None)
    tight = run(0)
    loose = run(50)
    # k=0 behaves like strong SI (large read RT); k=50 is close to weak.
    assert tight.read_response_time > weak.read_response_time + 1.0
    assert loose.read_response_time < tight.read_response_time
    assert loose.read_response_time < weak.read_response_time + 1.0
