"""Chaos property tests: the SI guarantees survive seeded fault storms.

Each run drives a full system — lossy channels on every propagation link,
two secondary crash/recovery windows, one primary crash with WAL restart,
one propagator stall — under a concurrent multi-session client workload,
then audits the recorded history with the checkers and requires replica
convergence.  Marked ``chaos`` so CI can run the sweep as its own job.
"""

import dataclasses
import hashlib

import pytest

from repro.core.admission import AdmissionConfig
from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError
from repro.faults.channel import ChannelFaults
from repro.faults.harness import (
    ChaosConfig,
    ChaosResult,
    _dispatch,
    run_chaos,
)

from tests.txn.reference_checkers import (
    reference_check_completeness,
    reference_check_strong,
    reference_check_weak_si,
)

pytestmark = pytest.mark.chaos

SEEDS = range(20)


def _sites(result):
    """Every secondary's status, those a promotion retired included."""
    return result.status.secondaries + result.status.retired


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_converges_and_passes_checkers(seed):
    result = run_chaos(ChaosConfig(seed=seed))
    # The schedule must actually have exercised the fault machinery...
    assert result.plan.count("crash_secondary") >= 1
    assert result.plan.count("crash_primary") == 1
    sites = _sites(result)
    assert sum(site.channel_dropped for site in sites) > 0
    assert sum(site.channel_duplicated for site in sites) > 0
    assert sum(site.retransmissions for site in sites) > 0
    crashes = sum(site.crash_count for site in sites)
    assert crashes >= 1
    assert sum(site.recover_count for site in sites) == crashes
    primary = result.status.primary
    assert primary.crash_count == 1 and primary.recover_count == 1
    # ... and the paper's guarantees must have survived it.
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok


#: Memory bound for the autovacuum storm: no site may hold more than
#: this multiple of the live key count in version-chain entries once the
#: run has settled (vacuum keeps chains near one version per key; the
#: slack absorbs updates committed after the final vacuum pass).
MEMORY_BOUND_MULTIPLE = 3


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_memory_bounded_with_autovacuum(seed):
    """A fault storm with autovacuum running stays memory-bounded: the
    guarantees survive AND version chains do not grow with update count."""
    result = run_chaos(ChaosConfig(seed=seed, autovacuum_interval=5.0))
    assert result.ok, result.describe()
    assert result.status.vacuum_runs > 0
    assert result.status.versions_reclaimed > 0
    bound = MEMORY_BOUND_MULTIPLE * max(result.live_keys, 1)
    max_store = max(site.stored_versions
                    for site in (result.status.primary, *_sites(result)))
    assert max_store <= bound, (
        f"seed {seed}: {max_store} versions for "
        f"{result.live_keys} live keys exceeds {bound}\n"
        + result.describe())


def test_chaos_survives_full_throughput_pipeline():
    """Batch shipping + autovacuum, both enabled, under the same fault
    storm: convergence and checkers must hold."""
    result = run_chaos(ChaosConfig(seed=5, batch_interval=0.5,
                                   autovacuum_interval=5.0))
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok


def test_chaos_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=3))
    b = run_chaos(ChaosConfig(seed=3))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


def test_different_seeds_differ():
    a = run_chaos(ChaosConfig(seed=1))
    b = run_chaos(ChaosConfig(seed=2))
    assert a.plan != b.plan


def _pinned(result):
    """SHA-256 of ``describe()`` without its ``kernel:`` line (integers
    only, so host-independent), then events dispatched and peak queue
    depth: what the ``RECORDED_*`` tables below pin per storm."""
    summary = result.describe()
    digest = hashlib.sha256("\n".join(
        line for line in summary.split("\n")
        if "kernel:" not in line).encode()).hexdigest()
    return (digest, result.status.kernel_events_dispatched,
            result.status.kernel_peak_queue_depth)


#: Per seed, for the partition + auto-failover storm: SHA-256 of
#: ``describe()`` without its ``kernel:`` line (integers only, so
#: host-independent), then events dispatched and peak queue depth.  The
#: digests are of the text printed at the last commit whose applicators
#: were kernel processes; making them completion callbacks removed
#: events (1567 / 1729 / 2347 before) and so moved the dispatch count
#: and same-instant percentage on the ``kernel:`` line, and nothing else.
#: Serving a read that need not wait on the caller's stack removed one
#: spawn event per such read (1437 / 1552 / 2163 before), likewise.
#: Handling each delivered record inside its arrival event, instead of
#: resuming a refresher process, did the same (1388 / 1499 / 2121).
#: So did running the failover detector as one periodic callback
#: instead of 2 + N daemon processes, with at most one lease check
#: armed (1277 / 1358 / 1977).  Fast retransmit (a link resends the
#: missing record at the first duplicate ack instead of waiting for its
#: timer) changes every lossy storm's fault realization, so it moved
#: the digests as well as the counts (952 / 1071 / 1449 events before).
#: Every storm here promotes once; since the summary counts the promoted
#: site's own link, the ``channel:`` line rose by its counters and only
#: the digests moved (seed 0's line read ``71 dropped, 62 duplicated, 68
#: reordered, 130 retransmitted, 112 dup-filtered`` before).  A link no
#: longer retransmits into a partition (its timer stops until the heal),
#: so fewer held copies re-enter the lossy channel at heal and every
#: storm's fault realization moved, digests and counts both (989 / 1170
#: / 1436 events and peak depths 44 / 56 / 59 before; seed 0 now fences
#: no zombie record, 6 before: those were retransmitted copies that the
#: partition held).
RECORDED_STORMS = {
    0: ("36953c1ce4e566ad78f8e76e59bb18b369ec9b068ea10da0efa41480d8abd585",
        991, 44),
    1: ("ff45672805c0b1fa634401b1eb42f568f5b23f1972c85316baff9e42fc95de17",
        1165, 56),
    2: ("012736e4d94a77f0bfc8d760fd54fe60a2832f0cd8eb5c13918318c498cf60b4",
        1339, 72),
}


@pytest.mark.parametrize("seed", sorted(RECORDED_STORMS))
def test_chaos_identical_across_schedulers(seed):
    """The heaviest fault schedule reproduces the recorded storm.

    Partitions plus autonomous failover exercise every timer user in
    the stack (heartbeats, leases, retransmit backoffs, partition
    windows); the summary must match the recording byte for byte, and
    the kernel counters — properties of the event stream — exactly.
    """
    result = run_chaos(ChaosConfig(seed=seed, partitions=2,
                                   primary_kill=True, auto_failover=True))
    assert _pinned(result) == RECORDED_STORMS[seed], result.describe()


#: The same pins for partial replication, recorded at the last commit
#: that served sharded reads, failover and flushes through their own
#: copies of the classic functions.  ``composed`` is every subsystem at
#: once; ``plain`` is the unbatched storm with a propagator stall — the
#: one shape in which the two flush copies ordered their sends
#: differently (endpoint-major vs record-major after ``resume()``).
#: Reads served on the caller's stack moved only the event counts
#: (composed 980 / 1078 / 1253, plain 363 / 453 / 716 before), and so
#: did records handled in their arrival event (composed 909 / 1011 /
#: 1187, plain 290 / 384 / 651 before) and the one-callback failover
#: detector (composed 849 / 935 / 1090; plain storms run no detector).
#: Fast retransmit moved every digest and count (composed 558 / 653 /
#: 779, plain 238 / 316 / 540 before).  Under it, composed seed 0's
#: primary lease-demotes with only a half subscriber live to elect; the
#: demoted primary keeps its WAL and the settle phase restarts it,
#: which is where its 1966 events come from.  Counting the promoted
#: sites' links raised each composed storm's ``channel:`` line and moved
#: its digest; composed seed 0 is the one storm promoting twice, and
#: since the second promotion no longer re-attaches the first promoted
#: site, the 13 deliveries that site could only drop are gone (1966
#: events before).  Stopping a link's timer while it is partitioned
#: moved composed seeds 0 and 2, digests and counts (1953 / 821 events,
#: peak depths 23 / 54 before); in seed 1 no timer expires on a
#: partitioned link with records unacked, and it did not move.
RECORDED_SHARDED_STORMS = {
    ("composed", 0): (
        "b16b4b7f59a8c7abad6b72b384d86309c0d588f142c3891ab664870b5ce479f8",
        1954, 23),
    ("composed", 1): (
        "0dd7718b20896b2b559e26bed710d9ab045baaf871988c7072295ae078d09c43",
        669, 33),
    ("composed", 2): (
        "92fc463d6b96bae31c8acde9a19520d5ebd780b535cf936e29766be219b1ce1c",
        813, 49),
    ("plain", 0): (
        "99e3289fe6c9ddad03cce7b557cae4284c3d0c0f82ca03167000f745780ed0c0",
        261, 27),
    ("plain", 1): (
        "357d54eef7cff83049f5e2327a36765fc3f7c2d38ebc57556f008de4de9f1f32",
        338, 25),
    ("plain", 2): (
        "67fccf6d384a02d45462340fc1bae90396f4b6356731f6e092e640608b582cca",
        564, 28),
}


@pytest.mark.parametrize("shape,seed", sorted(RECORDED_SHARDED_STORMS))
def test_sharded_storm_reproduces_the_recording(shape, seed):
    """Partial replication has one serving path, the classic one; the
    storms it used to serve through a second copy reproduce byte for
    byte."""
    config = ChaosConfig(seed=seed, shards=8)
    if shape == "composed":
        config = ChaosConfig(seed=seed, shards=8, partitions=2,
                             primary_kill=True, auto_failover=True,
                             parallel_refresh=4, refresh_apply_cost=0.01)
    result = run_chaos(config)
    assert _pinned(result) == RECORDED_SHARDED_STORMS[shape, seed], \
        result.describe()


#: The same pins for three promotion storms the tables above miss:
#: ``overload`` is the CLI's ``--overload --primary-kill
#: --auto-failover`` storm (its admission and degradation lines);
#: ``autovacuum`` and ``parallel`` kill the primary under autovacuum and
#: under parallel refresh, so their vacuum totals and out-of-order
#: counts include sites retired by the promotion (the parallel seeds are
#: ones whose promoted site applied commits out of order).  Fast
#: retransmit moved all nine digests and counts (overload 1084 / 1510 /
#: 1396, autovacuum 915 / 928 / 1046, parallel 950 / 850 / 931 before).
#: Counting the promoted site's link raised every ``channel:`` line and
#: moved every digest, no event count.  autovacuum-2 moved when a
#: promotion began to copy every replica not at the surviving prefix
#: in place (1 203 events before): its two lagging replicas take the copy
#: instead of a replay of the commits they missed, and the copies are
#: counted on the ``promotion:`` line, not as crashes and recoveries.
RECORDED_PROMOTED_STORMS = {
    ("overload", 0): (
        "eb21c8466ac4cdf89b5f0dfa1d38679856e5da560500ac4e451a49cbb46eaea0",
        1066, 78),
    ("overload", 1): (
        "5e098194b07e915f20a7c7f76945ab9374bd14b398e4b681c856a88d97eca783",
        1305, 88),
    ("overload", 2): (
        "f2ed0e41721ab2d47fbe778cd84e55ce5f002857cf7d009d9952b012a7b24b23",
        1463, 101),
    ("autovacuum", 0): (
        "70e5be7c243c54051b67ade3aabf3c089a5bc15ef5e58e49dc28cf5ffbdebc01",
        909, 41),
    ("autovacuum", 1): (
        "099dcd43457bc9dcc0e6593c027939a789d131390e725c5e82b9c786e2807e2b",
        1049, 57),
    ("autovacuum", 2): (
        "f7ae94f9893e5128d0a57ae7c56e793a203566e58888f27a49bfa111142ad36b",
        1179, 54),
    ("parallel", 7): (
        "65607c615ceffe7de94e398199483643ec41288863b4cd5600e6514168cb0f33",
        963, 63),
    ("parallel", 8): (
        "43f3f298f1ba5b4dd7004d667a2854deb18fa7fa39136e0020d7bbfc799dd5c0",
        894, 98),
    ("parallel", 10): (
        "2bfa9d3e59dc33608a5f0731a4eea8f06787b2aae17382b3f780a27354917671",
        971, 63),
}

#: The admission settings of ``python -m repro.faults --overload``.
CLI_OVERLOAD = AdmissionConfig(rate=2.0, queue_limit=2, retry_budget=3,
                               breaker_threshold=6, breaker_cooldown=2.0,
                               lag_bound=24, read_deadline=5.0,
                               degrade_to_stale=True)

PROMOTED_SHAPES = {
    "overload": dict(auto_failover=True, admission=CLI_OVERLOAD,
                     arrival_pattern="flash-crowd",
                     refresh_apply_cost=0.02),
    "autovacuum": dict(autovacuum_interval=5.0),
    "parallel": dict(parallel_refresh=4, refresh_apply_cost=0.02),
}


@pytest.mark.parametrize("shape,seed", sorted(RECORDED_PROMOTED_STORMS))
def test_promoted_storm_reproduces_the_recording(shape, seed):
    """A promotion retires a secondary; its counters (crashes, vacuum
    passes, out-of-order commits) still belong in the summary."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True,
                                   **PROMOTED_SHAPES[shape]))
    assert result.ok, result.describe()
    assert _pinned(result) == RECORDED_PROMOTED_STORMS[shape, seed], \
        result.describe()


#: The same pins for the shapes the tables above miss: the CLI's
#: ``--overload`` storm under its two other shed policies (the
#: by-session-priority one is the only reader of session priorities),
#: and shaped arrivals with admission off, which the client serves one
#: op at a time on the caller's stack.  Fast retransmit moved the eight
#: storms in which a duplicate ack reached a sender (reject-oldest 428 /
#: 831, by-session-priority 353 / 819, diurnal 294 / 330 / 1243 and
#: flash-crowd 1146 events before); the four short storms it left alone
#: never saw one.
RECORDED_ARRIVAL_STORMS = {
    ("reject-oldest", 0): (
        "0f683098888cee53c6060f28aa992f9c77fd13ceda88232caa15c9fa5167c166",
        176, 3),
    ("reject-oldest", 1): (
        "3821de751e31c929c07a00bb90023e29db63904926d2ad1bce7b44ad6e926efa",
        413, 77),
    ("reject-oldest", 2): (
        "82b79cdc19868359eb19bc3c0e2f4e6e12d4e40fcc2bbff27836b07fcdeab9a5",
        841, 91),
    ("by-session-priority", 0): (
        "b89e92382a535e21ce2d2f8a38ad20571cd2ff86396ed5c8313c607fea83bff4",
        164, 3),
    ("by-session-priority", 1): (
        "4eb64c84780308363724b28b5f93f36211ee1a4fd90e88d979f78fc11b7bc056",
        379, 74),
    ("by-session-priority", 2): (
        "df3fa3ea70e111ea0d1409ab81430630bef8840835f33d0fc8ced501b3e4df96",
        798, 92),
    ("diurnal", 0): (
        "05da6b68fa548d3930de85c1b8821b676a332c6dd18304f33361f61657d99588",
        256, 35),
    ("diurnal", 1): (
        "2456e5424d03fe101b0ba57b2b5d0e1898d35502ce368861e0f5588791429f16",
        423, 54),
    ("diurnal", 2): (
        "5a8b916a0ffa6f9b0ac85101dfab4b667d605ca1d6d0fe1bc12d0ebaf8c01787",
        1228, 84),
    ("flash-crowd", 0): (
        "4dbcf52a5a8cbd778fbc3dd2d56c6533f12d3dccdb0740cd6e6b3e6140f5f9a6",
        10, 1),
    ("flash-crowd", 1): (
        "0f714f988fa7b33ffeaa2710e6badd498005babefdcb55a3dd332238f92fd5a8",
        51, 16),
    ("flash-crowd", 2): (
        "a2c54648a316792bba3e6b3475db0c37852eff78d85c3e525f9f38d09290d789",
        1189, 105),
}

ARRIVAL_SHAPES = {
    policy: dict(admission=dataclasses.replace(CLI_OVERLOAD,
                                               shed_policy=policy),
                 arrival_pattern="flash-crowd", refresh_apply_cost=0.02)
    for policy in ("reject-oldest", "by-session-priority")
} | {pattern: dict(arrival_pattern=pattern)
     for pattern in ("diurnal", "flash-crowd")}


@pytest.mark.parametrize("shape,seed", sorted(RECORDED_ARRIVAL_STORMS))
def test_arrival_storm_reproduces_the_recording(shape, seed):
    result = run_chaos(ChaosConfig(seed=seed, **ARRIVAL_SHAPES[shape]))
    assert result.ok, result.describe()
    assert _pinned(result) == RECORDED_ARRIVAL_STORMS[shape, seed], \
        result.describe()


class _ReadsOfK0:
    """A workload stream whose every op is session 0 reading ``k0``."""

    def randint(self, lo, hi):
        return lo

    def bernoulli(self, probability):
        return False


@pytest.mark.parametrize("admission", [None, CLI_OVERLOAD])
def test_read_with_every_replica_down_is_deferred(admission):
    """A read that outwaits its failover budget with the whole replica
    tier down is a deferred read in both dispatch modes; it used to
    escape the run as ``SiteUnavailableError``."""
    system = ReplicatedSystem(num_secondaries=2, admission=admission)
    for index in range(2):
        system.crash_secondary(index)
    config = ChaosConfig(seed=0, num_sessions=1, admission=admission)
    result = ChaosResult(seed=0, converged=False)
    _dispatch(system, config, result, _ReadsOfK0(), [1.0],
              [system.session(failover_wait=0.0)], replace_lost=None)
    assert result.deferred_reads == 1
    assert result.reads == result.updates == 0


def test_chaos_summary_reports_kernel_counters():
    result = run_chaos(ChaosConfig(seed=0))
    assert result.status.kernel_events_dispatched > 0
    summary = result.describe()
    assert "kernel:" in summary
    assert "events dispatched" in summary
    assert "peak queue depth" in summary


def test_fault_injection_disabled_means_no_links():
    """The bit-identical contract: without channel faults the propagator
    routes records exactly as before (no links, no extra RNG draws)."""
    plain = ReplicatedSystem(num_secondaries=2)
    assert all(s.link is None for s in plain.secondaries)
    faulty = ReplicatedSystem(num_secondaries=2,
                              channel_faults=ChannelFaults(drop=0.1),
                              fault_seed=1)
    assert all(s.link is not None for s in faulty.secondaries)


def test_faulty_system_converges_without_fault_plan():
    """Channel faults alone (no crashes) must be fully absorbed by the
    link protocol: clients and checkers cannot tell the difference."""
    system = ReplicatedSystem(
        num_secondaries=2, propagation_delay=1.0,
        channel_faults=ChannelFaults(drop=0.3, duplicate=0.2, jitter=2.0,
                                     reorder=0.2, reorder_delay=3.0),
        fault_seed=42)
    session = system.session(secondary=0)
    for i in range(20):
        session.write(f"k{i % 4}", i)
    system.quiesce()
    assert system.secondary_state(0) == system.primary_state()
    assert system.secondary_state(1) == system.primary_state()
    total_dropped = sum(s.link.data_channel.dropped
                        for s in system.secondaries)
    assert total_dropped > 0        # faults actually fired


# ---------------------------------------------------------------------------
# Promotion storms: permanent primary kill + epoch-fenced failover
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_promotion_storm_converges_and_passes_checkers(seed):
    """Every storm permanently kills the primary and promotes a
    secondary mid-run; the surviving replicas must converge on the new
    primary and the history must pass all checkers across the promotion
    epoch (no transaction inversion for any surviving session)."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True))
    assert result.plan.count("kill_primary") == 1
    assert result.plan.count("promote_secondary") == 1
    assert result.primary_kills == 1
    assert result.status.promotions == 1
    assert result.status.primary.recover_count == 0
    # Acknowledged-commit loss, when it happens, is accounted: a lost
    # window implies lost sessions were poisoned (or nobody owned the
    # truncated commits), never silently absorbed.
    assert result.status.lost_update_windows in (0, 1)
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()
    assert result.ok


def test_promotion_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=4, primary_kill=True))
    b = run_chaos(ChaosConfig(seed=4, primary_kill=True))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


# ---------------------------------------------------------------------------
# Parallel-refresh storms: dependency-tracked out-of-order apply
# ---------------------------------------------------------------------------

#: Nonzero apply cost is what makes out-of-order apply actually happen:
#: with free applies every commit finishes instantly and in order.
PARALLEL = dict(parallel_refresh=4, refresh_apply_cost=0.02)


def _reference_checks(result):
    """Re-audit the run's history with the reference checkers: the
    storm must satisfy them too, not just the production checkers used
    inside ``run_chaos``."""
    return [reference_check_completeness(result.recorder),
            reference_check_weak_si(result.recorder),
            reference_check_strong(result.recorder, same_session_only=True)]


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_refresh_storm_converges_and_passes_checkers(seed):
    """Out-of-order apply under the full fault storm: convergence plus
    completeness/weak-SI/strong-session-SI, by the production and the
    reference checkers, for every seed."""
    result = run_chaos(ChaosConfig(seed=seed, **PARALLEL))
    assert result.converged, result.describe()
    for check in result.checks + _reference_checks(result):
        assert check.ok, result.describe()
    assert result.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_refresh_promotion_storm(seed):
    """Parallel refresh must survive a permanent primary kill: fencing
    a secondary mid-apply (workers in flight, parked commits above the
    watermark) must not wedge promotion or leak phantom versions."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True,
                                   **PARALLEL))
    assert result.primary_kills == 1
    assert result.status.promotions == 1
    assert result.converged, result.describe()
    for check in result.checks + _reference_checks(result):
        assert check.ok, result.describe()
    assert result.ok


def test_parallel_refresh_storms_actually_reorder():
    """The storms above only prove something if apply really runs out
    of order somewhere in the sweep — guard against a silently serial
    configuration."""
    total = sum(
        site.out_of_order_commits
        for seed in range(4)
        for site in _sites(run_chaos(ChaosConfig(seed=seed, **PARALLEL))))
    assert total > 0


def test_parallel_refresh_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=6, **PARALLEL))
    b = run_chaos(ChaosConfig(seed=6, **PARALLEL))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


def test_promotion_disabled_same_seed_is_bit_identical():
    """The promotion=None guard: a primary_kill=False run draws the
    same plan and produces the identical execution with every promotion
    counter dormant — the new machinery is invisible until enabled."""
    a = run_chaos(ChaosConfig(seed=3))
    b = run_chaos(ChaosConfig(seed=3))
    assert a.describe() == b.describe()
    assert a.status.promotions == a.primary_kills == 0
    assert a.status.lost_update_windows == a.clients.lost_sessions == 0
    assert a.clients.no_primary_errors == 0
    assert "promotion:" not in a.describe()
    assert a.plan.count("kill_primary") == 0
    # The failover/partition machinery is equally dormant by default:
    # no detector, no control traffic, no partition draws, no fencing.
    assert a.plan.count("partition") == a.plan.count("heal") == 0
    assert a.status.suspicions == a.status.false_suspicions == 0
    assert a.status.lease_expiries == a.status.auto_promotions == 0
    assert a.partitions == a.heals == a.status.zombie_records_fenced == 0
    assert "failover:" not in a.describe()


# ---------------------------------------------------------------------------
# Autonomous-failover storms: partitions + permanent kill, no scripted
# promotion trigger — the heartbeat/lease/suspicion control plane must
# detect the death and elect on its own.
# ---------------------------------------------------------------------------

AUTO = dict(primary_kill=True, auto_failover=True, partitions=2)


@pytest.mark.parametrize("seed", SEEDS)
def test_auto_failover_partition_storm(seed):
    """Every storm kills the primary for good and cuts links with seeded
    partition windows, with *no* promote_secondary event in the plan:
    promotion must come from the AutoFailover coordinator.  Convergence
    and all three checkers (production and reference) must hold, every
    zombie record must be fenced, and any acknowledged-commit loss must
    be surfaced as a poisoned session — never silent."""
    result = run_chaos(ChaosConfig(seed=seed, **AUTO))
    assert result.plan.count("kill_primary") == 1
    assert result.plan.count("promote_secondary") == 0
    assert result.plan.count("partition") == 2
    assert result.plan.count("heal") == 2
    assert result.primary_kills == 1
    assert result.status.promotions == 1
    assert result.status.auto_promotions == 1
    assert result.status.suspicions >= 1
    # At most the one kill can truncate acknowledged commits, and the
    # loss is accounted, never silently absorbed.
    assert result.status.lost_update_windows in (0, 1)
    assert result.converged, result.describe()
    for check in result.checks + _reference_checks(result):
        assert check.ok, result.describe()
    assert result.ok


def test_auto_failover_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=7, **AUTO))
    b = run_chaos(ChaosConfig(seed=7, **AUTO))
    assert a.describe() == b.describe()
    assert a.plan == b.plan


def test_lease_demoted_primary_without_successor_restarts():
    """With two secondaries, a lease demotion can leave no live
    full-coverage replica to elect: the demoted primary keeps its WAL,
    so the settle phase restarts it instead of ending with no primary.
    This seed ended in ``NoLiveSecondariesError`` while a demotion was a
    permanent failure."""
    result = run_chaos(ChaosConfig(seed=6, num_secondaries=2, **AUTO))
    assert result.status.lease_expiries >= 1
    assert result.ok, result.describe()


@pytest.mark.parametrize("kwargs", [
    dict(ops=-3),
    dict(keys=-1),
    dict(secondary_outages=-1),
    dict(partitions=-1),
    dict(num_sessions=0),
    dict(num_secondaries=0),
])
def test_chaos_config_rejects_bad_counts(kwargs):
    with pytest.raises(ConfigurationError):
        ChaosConfig(seed=1, **kwargs)


def test_partitions_alone_are_absorbed():
    """Partition windows without any primary failure: the held traffic
    is delivered on heal and the run is indistinguishable from a slow
    network — no suspicion quorum, no election, full convergence."""
    result = run_chaos(ChaosConfig(seed=9, primary_crash=False,
                                   partitions=2))
    assert result.partitions >= 1
    assert result.status.promotions == 0
    assert result.converged, result.describe()
    for check in result.checks:
        assert check.ok, result.describe()


def test_auto_failover_plan_has_no_scripted_trigger():
    """The same-draws discipline end to end: the auto-failover plan is
    the scripted kill plan minus its promote_secondary event, with no
    other seeded choice shifted."""
    scripted = run_chaos(ChaosConfig(seed=11, primary_kill=True)).plan
    auto = run_chaos(ChaosConfig(seed=11, **AUTO)).plan
    scripted_events = [(e.at, e.action, e.target) for e in scripted
                       if e.action != "promote_secondary"]
    auto_events = [(e.at, e.action, e.target) for e in auto
                   if e.action not in ("partition", "heal")]
    assert scripted_events == auto_events


# -- keyspace sharding / partial replication (PR 9) ----------------------------

SHARDED = dict(shards=8)


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_storm_converges_and_passes_checkers(seed):
    """Partial replication under the full fault storm: per-shard
    convergence (each replica against its subscription-projected primary
    state) plus completeness/weak-SI/strong-session-SI verified against
    projected sub-histories, by the production and reference checkers."""
    result = run_chaos(ChaosConfig(seed=seed, **SHARDED))
    assert result.status.num_shards == 8
    assert result.converged, result.describe()
    for check in result.checks + _reference_checks(result):
        assert check.ok, result.describe()
    assert result.ok


#: Seeds 9, 15 and 18 failed until ISSUE 19: 9 parked a read across the
#: promotion forever (``DeadlockError``); in 15 and 18 a half-subscriber
#: had run ahead of the promoted candidate and kept serving the
#: truncated tail (completeness / weak SI violations).
@pytest.mark.parametrize("seed", [*range(8), 9, 15, 18])
def test_sharded_promotion_storm(seed):
    """A permanent primary kill under partial placement: only a
    full-coverage replica may be promoted, and the rebuilt per-shard
    frontier map must keep every surviving session and recovery
    satisfiable (no frontier-wait deadlocks)."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True,
                                   **SHARDED))
    assert result.primary_kills == 1
    assert result.status.promotions == 1
    assert result.converged, result.describe()
    for check in result.checks + _reference_checks(result):
        assert check.ok, result.describe()
    assert result.ok


@pytest.mark.parametrize("seed", [9, 18])
def test_a_promotion_resync_is_not_counted_as_a_crash(seed):
    """Each of these storms injects two secondary crashes, and its
    promotion resyncs a half-subscriber that ran ahead of the candidate.
    The crash and recovery counts are the injected ones; the resync is
    counted once, on the ``promotion:`` line."""
    result = run_chaos(ChaosConfig(seed=seed, primary_kill=True,
                                   **SHARDED))
    assert result.ok, result.describe()
    sites = _sites(result)
    assert result.plan.count("crash_secondary") == 2
    assert sum(site.crash_count for site in sites) == 2
    assert sum(site.recover_count for site in sites) == 2
    assert result.status.resynced_replicas == 1
    summary = result.describe()
    assert "crashes: 2 secondary (+2 recoveries)" in summary
    assert summary.count("1 replicas resynced") == 1
    assert "  promotion: 1 kills, 1 promotions, 1 replicas resynced, " \
        in summary


@pytest.mark.parametrize("seed", range(4))
def test_sharded_combined_storm(seed):
    """Sharding composed with everything else at once: partitions,
    permanent kill and dependency-tracked parallel refresh."""
    result = run_chaos(ChaosConfig(seed=seed, shards=4, num_secondaries=5,
                                   partitions=2, primary_kill=True,
                                   parallel_refresh=4,
                                   refresh_apply_cost=0.02))
    assert result.status.num_shards == 4
    assert result.converged, result.describe()
    for check in result.checks + _reference_checks(result):
        assert check.ok, result.describe()
    assert result.ok


def test_sharded_storm_is_deterministic_per_seed():
    a = run_chaos(ChaosConfig(seed=5, **SHARDED))
    b = run_chaos(ChaosConfig(seed=5, **SHARDED))
    assert a.describe() == b.describe()
    assert a.plan == b.plan
