"""Keyspace sharding & partial replication (PR 9).

Covers the deterministic key→shard map, ``ShardingConfig`` validation,
per-shard propagation streams (projection, link volume), shard-aware
session routing/blocking/failover, recovery floors, promotion under
partial placement, the SI checkers over subscription-projected
sub-histories, and the dormant-default contract (``sharding=None``
builds none of the machinery).
"""

import pytest

from repro.core.guarantees import Guarantee
from repro.core.promotion import PromotionConfig
from repro.core.records import key_fingerprint
from repro.core.sharding import ShardingConfig, shard_of, shard_of_fp
from repro.core.system import ReplicatedSystem
from repro.errors import ConfigurationError, ShardUnavailableError
from repro.faults.channel import ChannelFaults
from repro.sim.rng import RandomStreams
from repro.storage.engine import SIDatabase
from repro.txn.checkers import (
    check_completeness,
    check_strong_session_si,
    check_weak_si,
)
from repro.txn.history import HistoryRecorder

from tests.core.test_parallel_refresh import drain_flood
from tests.txn.reference_checkers import assert_matches_reference
from tests.txn.test_incremental_checkers import read, update

SHARDS = 8

#: Two secondaries subscribing to complementary halves of the keyspace.
HALVES = ShardingConfig(shards=SHARDS, placement=((0, 1, 2, 3),
                                                  (4, 5, 6, 7)))


def keys_for(shard, count=3, shards=SHARDS, prefix="key"):
    """Deterministic keys that map onto ``shard``."""
    found, i = [], 0
    while len(found) < count:
        key = f"{prefix}{i}"
        if shard_of(key, shards) == shard:
            found.append(key)
        i += 1
    return found


def projected(state, subscription, shards=SHARDS):
    return {key: value for key, value in state.items()
            if shard_of(key, shards) in subscription}


# -- the key→shard map ---------------------------------------------------------


def test_shard_of_is_fingerprint_modulo():
    for key in ("a", "book:42:stock", 17, ("t", 3)):
        assert shard_of(key, SHARDS) == key_fingerprint(key) % SHARDS
        assert shard_of(key, SHARDS) == \
            shard_of_fp(key_fingerprint(key), SHARDS)


def test_shard_of_covers_all_shards():
    seen = {shard_of(f"key{i}", SHARDS) for i in range(200)}
    assert seen == set(range(SHARDS))


# -- configuration validation --------------------------------------------------


def test_config_rejects_nonpositive_shards():
    with pytest.raises(ConfigurationError):
        ShardingConfig(shards=0)


def test_config_rejects_empty_placement_entry():
    with pytest.raises(ConfigurationError):
        ShardingConfig(shards=4, placement=((0, 1), ()))


def test_config_rejects_out_of_range_shard_ids():
    with pytest.raises(ConfigurationError):
        ShardingConfig(shards=4, placement=((0, 1), (2, 4)))


def test_config_normalizes_placement():
    config = ShardingConfig(shards=4, placement=((3, 1, 3), (0, 2)))
    assert config.placement == ((1, 3), (0, 2))
    assert config.subscription_for(0) == frozenset({1, 3})


def test_validate_for_requires_matching_length_and_coverage():
    config = ShardingConfig(shards=4, placement=((0, 1), (2, 3)))
    config.validate_for(2)
    with pytest.raises(ConfigurationError):
        config.validate_for(3)
    with pytest.raises(ConfigurationError):
        ShardingConfig(shards=4, placement=((0, 1), (1, 2))).validate_for(2)


def test_no_placement_means_full_subscription():
    config = ShardingConfig(shards=4)
    assert config.subscription_for(0) == frozenset(range(4))
    config.validate_for(7)  # any secondary count fits


def test_system_rejects_misfitting_placement():
    with pytest.raises(ConfigurationError):
        ReplicatedSystem(num_secondaries=3, propagation_delay=0.1,
                         sharding=HALVES)


# -- per-shard propagation streams ---------------------------------------------


def test_partial_replication_projects_state():
    """Each secondary converges to exactly the subscription-projected
    primary state, and ships only its subscribed shards' commits."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              sharding=HALVES)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    for shard in range(SHARDS):
        for key in keys_for(shard):
            session.write(key, f"s{shard}:{key}")
    system.quiesce()
    primary = system.primary_state()
    assert len(primary) == SHARDS * 3
    for index in range(2):
        subscription = HALVES.subscription_for(index)
        assert system.secondary_state(index) == \
            projected(primary, subscription)
    # The propagator counted per-shard deliveries, and every commit went
    # to exactly one endpoint (single-shard write sets, halves placement)
    # — half the link volume of full replication.
    shipped = system.propagator.records_shipped_by_shard
    assert set(shipped) == set(range(SHARDS))
    assert system.propagator.records_sent == SHARDS * 3


def test_unsharded_system_has_no_shard_bookkeeping():
    """Dormant default: ``sharding=None`` engages none of the machinery
    and client results match a sharded-but-fully-subscribed system."""
    def drive(system):
        session = system.session(Guarantee.STRONG_SESSION_SI)
        results = []
        for i in range(12):
            session.write(f"key{i}", i)
            results.append(session.read(f"key{i}"))
        system.quiesce()
        return results, system.primary_state(), system.secondary_state(0)

    plain = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1)
    sharded = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                               sharding=ShardingConfig(shards=SHARDS))
    assert plain.sharding is None
    assert drive(plain) == drive(sharded)
    assert plain.propagator.records_shipped_by_shard == {}
    assert plain.secondaries[0].subscription is None
    # No subscribe events pollute an unsharded history.
    assert not [e for e in plain.recorder.events
                if getattr(e, "kind", None) == "subscribe"]


# -- the protocol fact: what partial replication buys --------------------------

#: Secondary ``i`` of four holds the width-4 shard window starting at
#: ``2i``: each replica subscribes to half the keyspace and every shard
#: has exactly two holders.
WINDOWS = ShardingConfig(shards=SHARDS, placement=tuple(
    tuple((2 * i + j) % SHARDS for j in range(4)) for i in range(4)))


def _single_shard_browsing_updates():
    """The update transactions among 3 000 client ops at a 95/5 mix,
    heavy-tailed like the parallel-refresh stream (~90 % carry 1-2
    operations, ~10 % carry 25-40), each writing a contiguous run of one
    shard's key pool: a commit touches exactly one shard, so it is owed
    to exactly the holders of that shard."""
    pools = [[] for _ in range(SHARDS)]
    index = 0
    while min(map(len, pools)) < 64:
        pools[shard_of(f"k{index}", SHARDS)].append(f"k{index}")
        index += 1
    stream = RandomStreams(42).stream("shard-bench")
    txns = []
    for _ in range(3000):
        if not stream.bernoulli(0.05):
            continue
        size = stream.randint(25, 40) if stream.bernoulli(0.10) \
            else stream.randint(1, 2)
        pool = pools[stream.randint(0, SHARDS - 1)]
        base = stream.randint(0, len(pool) - 1)
        txns.append([(pool[(base + j) % len(pool)], stream.randint(0, 9999))
                     for j in range(size)])
    return txns


def _flood(txns, sharding):
    """Drain the flood through four secondaries: (virtual seconds,
    commits applied at each secondary, records sent)."""
    system = ReplicatedSystem(num_secondaries=4, propagation_delay=0.1,
                              record_history=False, refresh_apply_cost=0.05,
                              sharding=sharding)
    drained = drain_flood(system, txns)
    primary = system.primary_state()
    for index, secondary in enumerate(system.secondaries):
        assert system.secondary_state(index) == (
            primary if sharding is None
            else projected(primary, secondary.subscription))
    return (round(drained, 3),
            [s.refresher.refreshes_applied for s in system.secondaries],
            system.propagator.records_sent)


def test_half_subscription_halves_the_commit_volume():
    txns = _single_shard_browsing_updates()
    assert (len(txns), sum(map(len, txns))) == (149, 749)
    slots = len(txns) * 4                   # commits x endpoints
    drained, applied, sent = _flood(txns, None)
    assert (drained, applied, sent / slots) == (37.55, [149] * 4, 2.0)
    # Every shard has two holders of four, so half the commit deliveries
    # happen and nothing else is sent: the partial-replication saving of
    # Sutra & Shapiro (PAPERS.md).  One replica's share is its shards'
    # share of the stream, 0.5 on average.
    drained, applied, sent = _flood(txns, WINDOWS)
    assert (drained, applied) == (2.1, [64, 66, 85, 83])
    assert sum(applied) / slots == sent / slots == 0.5
    # The drain is 17.9x shorter, not 2x, because the two systems also
    # differ in the wire (ROADMAP item 3): a full-replication stream
    # carries a start record per commit (2.0 records per slot) and each
    # start makes ordered refresh wait out the pending queue, so the
    # 749 x 0.05 = 37.45 s of apply work runs end to end; the commit-only
    # projected stream has no starts, its applicators overlap, and the
    # drain is the largest transaction's 40 x 0.05 s plus the link delay.


# -- shard-aware sessions ------------------------------------------------------


def test_reads_route_to_a_subscribing_replica():
    """A session homed on the wrong half is re-routed (and counts the
    miss); declared keys narrow the wait to the touched shards."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              sharding=HALVES)
    session = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    low = keys_for(0, count=1)[0]       # shard 0 -> secondary 0
    high = keys_for(4, count=1)[0]      # shard 4 -> secondary 1
    session.write(low, "lo")
    session.write(high, "hi")
    assert session.read(low) == "lo"
    misses_before = session.shard_routing_misses
    assert session.read(high) == "hi"   # not on the home secondary
    assert session.shard_routing_misses > misses_before


def test_cross_half_read_without_full_replica_is_unavailable():
    """No single live replica holds both halves: a read touching both
    raises the typed error instead of silently merging stale shards."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              sharding=HALVES)
    session = system.session(Guarantee.WEAK_SI)
    low, high = keys_for(0, count=1)[0], keys_for(4, count=1)[0]
    session.write(low, 1)
    session.write(high, 2)
    system.quiesce()
    with pytest.raises(ShardUnavailableError):
        session.read_many([low, high])
    # Each half alone is still readable.
    assert session.read(low) == 1
    assert session.read(high) == 2


def test_crash_of_only_holder_raises_shard_unavailable():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              sharding=HALVES)
    session = system.session(Guarantee.WEAK_SI)
    high = keys_for(4, count=1)[0]
    session.write(high, "hi")
    system.quiesce()
    system.crash_secondary(1)
    with pytest.raises(ShardUnavailableError):
        session.read(high)
    system.recover_secondary(1)
    assert session.read(high) == "hi"


def test_strong_session_blocks_on_touched_shard_frontier():
    """Read-your-writes holds per shard: a strong-session read of a
    just-written key waits for that shard's frontier, not for a scalar
    sequence number the partial replica can never reach."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.5,
                              sharding=HALVES)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    for shard in (0, 4):
        for round_no in range(5):
            key = keys_for(shard, count=1)[0]
            session.write(key, (shard, round_no))
            assert session.read(key) == (shard, round_no)


def test_read_of_no_keys_requires_nothing():
    """``keys=[]`` touches no axis: nothing to wait for, never blocks,
    every replica holds it — so it fails over to any live one."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=5.0,
                              sharding=HALVES)
    session = system.session(Guarantee.STRONG_SI, secondary=0,
                             freshness_bound=0)
    session.write(keys_for(0, count=1)[0], 1)      # nowhere near applied
    assert session._read_plan([]) == {}
    assert session.execute_read_only(lambda t: "ran", keys=[]) == "ran"
    assert session.blocked_reads == 0 and session.failovers == 0
    system.crash_secondary(0)
    assert session.execute_read_only(lambda t: "ran", keys=[]) == "ran"
    assert session.secondary is system.secondaries[1]
    assert (session.blocked_reads, session.failovers,
            session.shard_routing_misses) == (0, 1, 0)


def test_unsubscribed_axis_is_never_reached():
    """Frontier 0 is not a wildcard: a replica has not "reached sequence
    0" on a shard it does not subscribe to, nor a full-replication
    replica on any shard, nor anyone an axis nobody committed on."""
    system = ReplicatedSystem(num_secondaries=2, sharding=HALVES)
    low, high = system.secondaries
    assert low.holds(frozenset({0, 3})) and not low.holds(frozenset({3, 4}))
    assert low.reached({0: 0, 3: 0}) and not low.reached({4: 0})
    assert high.reached({4: 0}) and not high.reached({4: 1})
    assert not low.reached({0: 0, 4: 0})
    assert low.reached({})
    assert (low.full_coverage, high.full_coverage) == (False, False)
    plain = ReplicatedSystem(num_secondaries=1).secondaries[0]
    assert plain.full_coverage and plain.holds(frozenset({None}))
    assert plain.reached({None: 0}) and not plain.reached({None: 1})
    assert not plain.holds(frozenset({0})) and not plain.reached({0: 0})


def test_observed_axes_name_surviving_commits_after_promotion():
    """The frontier invariant: whatever a surviving session remembers
    having read, on every axis, is the timestamp of a surviving commit
    that touched that axis — never the truncation point itself, which
    need not have."""
    everything = tuple(range(SHARDS))
    sharding = ShardingConfig(shards=SHARDS, placement=(
        everything, everything, (0, 1, 2, 3)))
    system = ReplicatedSystem(num_secondaries=3, propagation_delay=0.1,
                              sharding=sharding,
                              channel_faults=ChannelFaults(),
                              promotion=PromotionConfig())
    writer = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    k0, k1 = keys_for(0, count=2)
    k5 = keys_for(5, count=1)[0]
    writer.write(k0, "kept")                   # commit 1: shard 0
    writer.write(k5, "kept")                   # commit 2: shard 5
    system.quiesce()
    system.partition(0)                        # both full replicas cut off
    system.partition(1)
    system.session(Guarantee.WEAK_SI).write(k1, "truncated")    # commit 3
    system.run(until=system.kernel.now + 1.0)
    # A PCSI reader on the half-subscriber sees shard 0 at the doomed
    # commit; it makes no cross-read promise, so it survives, clamped.
    reader = system.session(Guarantee.PCSI, secondary=2)
    assert reader.read(k1) == "truncated"
    assert reader._observed == {0: 3, None: 3}
    assert writer.read_many([k0, k5]) == {k0: "kept", k5: "kept"}
    assert writer._observed == {0: 1, 5: 2, None: 2}

    system.kill_primary()
    assert system.promote_secondary().base_commit_ts == 2
    touched = {}                               # axis -> surviving commit ts
    for commit_ts, key in enumerate((k0, k5), start=1):
        touched[shard_of(key, SHARDS)] = touched[None] = commit_ts
    for session in (writer, reader):
        assert session._lost_window is None
        assert session._observed.keys() <= touched.keys()
        for axis, seen in session._observed.items():
            assert seen == touched[axis]       # shard 0: commit 1, not base 2
    newcomer = system.session(Guarantee.STRONG_SI, secondary=2)
    assert newcomer.read(k0) == "kept"         # requires {0: 1}: reachable


@pytest.mark.parametrize("secondaries", [1, 3])
def test_one_shard_cluster_is_as_stale_as_an_unsharded_one(secondaries):
    """``max_staleness`` is one path over the replicas' axes: unbatched
    and with zero apply cost the two wire formats deliver every commit
    at the same instant, so after every op of the same workload the
    whole-database axis and the single shard's axis lag alike."""
    def drive(sharding):
        system = ReplicatedSystem(num_secondaries=secondaries,
                                  propagation_delay=1.5, sharding=sharding)
        session = system.session(Guarantee.WEAK_SI)
        lags = []
        for op in range(50):
            if op % 3 == 2:
                session.read(f"key{op % 7}")
            else:
                session.write(f"key{op % 7}", op)
            system.run(until=system.kernel.now + (op % 4) * 0.5)
            lags.append(system.max_staleness())
        return lags

    plain = drive(None)
    assert plain == drive(ShardingConfig(shards=1))
    assert max(plain) > 1 and min(plain) == 0


# -- recovery & promotion ------------------------------------------------------


def test_partial_secondary_recovers_with_exact_frontiers():
    """Crash a half-subscriber, commit into both halves, recover: the
    replica converges to the projected state and its sessions stay
    read-your-writes consistent."""
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.1,
                              sharding=HALVES)
    session = system.session(Guarantee.STRONG_SESSION_SI)
    session.write(keys_for(4, count=1)[0], "before")
    system.quiesce()
    system.crash_secondary(1)
    for shard in range(SHARDS):
        key = keys_for(shard, count=2)[1]
        session.write(key, f"during:{shard}")
    system.recover_secondary(1)
    system.quiesce()
    assert system.secondary_state(1) == \
        projected(system.primary_state(), HALVES.subscription_for(1))
    key = keys_for(4, count=3)[2]
    session.write(key, "after")
    assert session.read(key) == "after"


def test_promotion_picks_full_coverage_holder():
    """Under partial placement only a full-coverage replica can become
    the new axis; the promoted system keeps serving sharded traffic."""
    placement = ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3), (4, 5, 6, 7))
    sharding = ShardingConfig(shards=SHARDS, placement=placement)
    system = ReplicatedSystem(num_secondaries=3, propagation_delay=0.1,
                              sharding=sharding,
                              promotion=PromotionConfig())
    session = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)
    for shard in range(SHARDS):
        session.write(keys_for(shard, count=1)[0], f"pre:{shard}")
    system.quiesce()
    system.kill_primary()
    report = system.promote_secondary()
    assert report.new_primary == "secondary-1"  # the only full-coverage one
    writer = system.session(Guarantee.STRONG_SESSION_SI)
    for shard in (0, 5):
        key = keys_for(shard, count=2)[1]
        writer.write(key, f"post:{shard}")
        assert writer.read(key) == f"post:{shard}"
    system.quiesce()
    primary = system.primary_state()
    for index in (1, 2):
        assert system.secondary_state(index) == \
            projected(primary, sharding.subscription_for(index))


def test_partial_subscriber_ahead_of_the_candidate_is_resynced():
    """Gap-tolerant refresh lets a half-subscriber apply commits the
    freshest *full-coverage* replica never received.  Promotion truncates
    them; a fence alone would leave them installed and readable, so the
    replica is resynced from the new primary (Section 3.4 path) with its
    per-shard frontiers set back to the surviving prefix."""
    everything = tuple(range(SHARDS))
    sharding = ShardingConfig(shards=SHARDS, placement=(
        everything, everything, (0, 1, 2, 3)))
    system = ReplicatedSystem(num_secondaries=3, propagation_delay=0.1,
                              sharding=sharding, channel_faults=ChannelFaults(),
                              promotion=PromotionConfig())
    writer = system.session(Guarantee.STRONG_SESSION_SI, secondary=2)
    keys = keys_for(0)
    writer.write(keys[0], "kept")
    system.quiesce()
    system.partition(0)                        # both full replicas cut off
    system.partition(1)
    writer.write(keys[1], "truncated")
    writer.write(keys[2], "truncated")
    assert writer.read(keys[2]) == "truncated"
    half = system.secondaries[2]
    assert half.seq_db == 3 and half.shard_frontier[0] == 3
    assert system.secondaries[0].seq_db == 1

    system.kill_primary()
    report = system.promote_secondary()
    assert report.base_commit_ts == 1
    assert report.resynced == ("secondary-3",)
    assert half.live and half.recover_count == 1
    assert half.seq_db == 1 and half.shard_frontier[0] == 1
    assert system.secondary_state(2) == {keys[0]: "kept"}

    fresh = system.session(Guarantee.STRONG_SESSION_SI, secondary=2)
    fresh.write(keys[1], "new era")
    assert fresh.read(keys[1]) == "new era"
    system.quiesce()
    assert system.secondary_state(2) == \
        projected(system.primary_state(), half.subscription)
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        result = check(system.recorder)
        assert result.ok, result.violations


# -- checkers over projected sub-histories -------------------------------------


def test_checkers_pass_on_sharded_history():
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=0.2,
                              sharding=HALVES)
    sessions = [system.session(Guarantee.STRONG_SESSION_SI),
                system.session(Guarantee.STRONG_SESSION_SI)]
    for round_no in range(6):
        for shard in (0, 2, 4, 6):
            key = keys_for(shard, count=2)[round_no % 2]
            sessions[round_no % 2].write(key, (round_no, shard))
            sessions[round_no % 2].read(key, default=None)
    system.quiesce()
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        result = check(system.recorder)
        assert result.ok, result.summary()


# -- litmus verdicts: hand-built sharded histories ------------------------------
#
# Tiny adversarial histories with the verdict each must get, from the
# production checkers and the reference alike.  Two replicas subscribe
# to complementary halves of a four-shard keyspace; A0/A1 live on the
# first half, B2 on the second.

LITMUS_SHARDS = 4
A0, A1, B2 = (keys_for(shard, count=1, shards=LITMUS_SHARDS)[0]
              for shard in (0, 1, 2))


class Litmus:
    """A primary and two half-subscribers recording into one history."""

    def __init__(self, subscriptions=((0, 1), (2, 3))):
        self.recorder = HistoryRecorder()
        self.primary = SIDatabase(name="primary", recorder=self.recorder)
        self.replicas = []
        for index, shards in enumerate(subscriptions, start=1):
            name = f"secondary-{index}"
            self.replicas.append(SIDatabase(name=name,
                                            recorder=self.recorder))
            if shards is not None:
                self.recorder.record_subscription(
                    name, frozenset(shards), LITMUS_SHARDS, 0.0)

    def refresh(self, replica, of_logical, commit_ts, writes):
        """Apply (a projection of) primary commit ``commit_ts``."""
        db = self.replicas[replica]
        txn = db.begin(update=True, metadata={
            "logical_id": f"refresh-{of_logical}@{db.name}",
            "refresh_of": of_logical})
        for key, value in writes.items():
            txn.write(key, value)
        db.commit_refresh_at(txn, commit_ts)
        db.advance_commit_counter(commit_ts)

    def verdicts(self, check):
        assert_matches_reference(self.recorder)
        return check(self.recorder)


def test_litmus_projected_write_dropped_is_divergence():
    h = Litmus()
    update(h.primary, "t1", "c1", {A0: 1, A1: 1})
    h.refresh(0, "t1", 1, {A0: 1})             # A1 lost on the way
    result = h.verdicts(check_completeness)
    assert [v.kind for v in result.violations] == ["state-divergence"]
    assert "'secondary-1' state S^1" in result.violations[0].message


def test_litmus_unsubscribed_commit_delivered_anyway_is_flagged():
    h = Litmus()
    update(h.primary, "t1", "c1", {B2: 1})
    h.refresh(1, "t1", 1, {B2: 1})
    h.refresh(0, "t1", 1, {B2: 1})             # replica 0 holds shards 0-1
    result = h.verdicts(check_completeness)
    assert [v.kind for v in result.violations] == ["state-divergence"]
    assert "'secondary-1'" in result.violations[0].message


def test_litmus_gap_over_unsubscribed_commits_passes():
    h = Litmus()
    update(h.primary, "t1", "c1", {A0: 1})
    update(h.primary, "t2", "c1", {B2: 2})
    update(h.primary, "t3", "c1", {A1: 3})
    h.refresh(0, "t1", 1, {A0: 1})
    h.refresh(0, "t3", 3, {A1: 3})             # S^2 never shipped here
    h.refresh(1, "t2", 2, {B2: 2})
    read(h.replicas[0], "r1", "c1", [A0, A1])
    completeness = h.verdicts(check_completeness)
    assert completeness.ok, completeness.violations
    assert completeness.checked_transactions == 3
    assert h.verdicts(check_weak_si).ok
    assert h.verdicts(check_strong_session_si).ok


def test_litmus_gap_over_a_subscribed_commit_truncates_the_run():
    """The complement: past a *subscribed* gap nothing was ever visible,
    so the tail is not audited (and not counted)."""
    h = Litmus()
    update(h.primary, "t1", "c1", {A0: 1})
    update(h.primary, "t2", "c1", {A1: 2})
    update(h.primary, "t3", "c1", {A0: 3})
    h.refresh(0, "t1", 1, {A0: 1})
    h.refresh(0, "t3", 3, {A0: "garbage"})     # above the hole at S^2
    completeness = h.verdicts(check_completeness)
    assert completeness.ok
    assert completeness.checked_transactions == 1


def test_litmus_stale_read_on_the_written_shard_is_an_inversion():
    h = Litmus()
    update(h.primary, "t1", "c1", {A0: 1})
    read(h.replicas[0], "r1", "c1", [A0])      # own write not applied yet
    result = h.verdicts(check_strong_session_si)
    assert [v.kind for v in result.violations] == ["transaction-inversion"]
    assert "requires at least S^1" in result.violations[0].message
    assert h.verdicts(check_weak_si).ok


def nmsi_history(subscriptions):
    h = Litmus(subscriptions)
    update(h.primary, "t1", "c9", {A0: 1})
    update(h.primary, "t2", "c1", {B2: 2})
    update(h.primary, "t3", "c9", {A0: 3})
    update(h.primary, "t4", "c1", {B2: 4})
    h.refresh(0, "t1", 1, {A0: 1})
    # c1 wrote S^4, then reads A0 where only S^1 has arrived: in commit
    # numbers the read is three states behind the session's own write.
    read(h.replicas[0], "r1", "c1", [A0])
    return h


def test_litmus_same_staleness_on_an_untouched_shard_passes():
    """The NMSI weakening, stated as a test: c1 only ever wrote shard 2,
    so it left no obligation on shard 0, the one shard its read touches.
    The identical events without the subscriptions are an inversion."""
    assert nmsi_history(((0, 1), (2, 3))).verdicts(
        check_strong_session_si).ok
    unsharded = nmsi_history((None, None)).verdicts(check_strong_session_si)
    assert [v.kind for v in unsharded.violations] == \
        ["transaction-inversion"]
    assert "requires at least S^4" in unsharded.violations[0].message


def promoted_litmus():
    """secondary-1 (full coverage) is promoted at S^1; c1's acknowledged
    S^2 died with the old primary and the new axis reuses the number."""
    h = Litmus(((0, 1, 2, 3), (0, 1), (0, 1)))
    update(h.primary, "t1", "c9", {A0: 1})
    h.refresh(0, "t1", 1, {A0: 1})
    update(h.primary, "t2", "c1", {A0: 2})     # obligation S^2, truncated
    h.recorder.record_promotion(old_site="primary", new_site="secondary-1",
                                time=10.0, truncation_ts=1)
    update(h.replicas[0], "t3", "c9", {A0: 30})     # the new axis' S^2
    h.refresh(1, "t1", 1, {A0: 1})
    return h


def test_litmus_cross_era_obligation_clamps_to_the_shared_prefix():
    h = promoted_litmus()
    read(h.replicas[1], "r1", "c1", [A0])      # S^1: all that survived
    assert h.verdicts(check_strong_session_si).ok
    assert h.verdicts(check_completeness).ok


def test_litmus_clamped_cross_era_obligation_still_binds():
    h = promoted_litmus()
    read(h.replicas[2], "r1", "c1", [A0])      # S^0: behind the prefix
    result = h.verdicts(check_strong_session_si)
    assert [v.kind for v in result.violations] == ["transaction-inversion"]
    assert "requires at least S^1" in result.violations[0].message


def test_litmus_unprojected_recovery_copy_is_flagged():
    h = Litmus()
    update(h.primary, "t1", "c1", {A0: 1, B2: 1})
    h.recorder.record_recovery("secondary-1", 1.0, {A0: 1, B2: 1}, 1)
    h.recorder.record_recovery("secondary-2", 1.0, {B2: 1}, 1)
    result = h.verdicts(check_completeness)
    assert [v.kind for v in result.violations] == ["state-divergence"]
    assert "'secondary-1' recovery copy S^1" in result.violations[0].message
    assert result.checked_transactions == 2    # secondary-2's copy is right
