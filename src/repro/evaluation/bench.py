"""Perf baseline harness: ``python -m repro.evaluation --bench``.

Times three layers of the stack and writes the numbers to
``BENCH_evaluation.json`` at the repo root so future changes have a perf
trajectory to regress against (``benchmarks/test_perf_regression.py``
compares re-measured numbers to this baseline with a generous
tolerance):

* **kernel events/sec** — raw event-dispatch rate of the virtual-time
  kernel, measured on a sleep-heavy process mix;
* **run_once wall-clock per algorithm** — one representative Figure 2
  simulation point for each of the three guarantees;
* **figure-2-small end-to-end** — the full Figure 2 sweep at the
  ``small`` scale with ``jobs=1`` versus ``jobs=N``, recording the
  speedup and verifying the parallel CSV is byte-identical to serial
  (skipped on single-CPU hosts, where a "parallel" run is just the
  serial run racing itself);
* **checker timings** (schema 3) — incremental vs legacy SI checkers
  over a generated 10k-commit, 5-secondary history, plus the recorded
  history's approximate byte size;
* **parallel refresh** (schema 4) — secondary apply throughput and
  replication lag of the dependency-tracked parallel scheduler at
  1/2/4/8 workers vs ordered (paper) refresh under the 80/20 and 95/5
  transaction mixes.  These legs run in *virtual* time, so the numbers
  are deterministic per seed (they measure scheduling, not the host);
* **overload** (schema 7) — a flash-crowd burst driven open-loop
  through per-session runner processes, admission control on vs off on
  the same seed: sustained burst goodput and bounded read p99 under
  admission vs the unbounded-queue read-latency cliff without it, plus
  exact shed/retry/degraded-read accounting.  Runs in virtual time —
  deterministic per seed.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.kernel import Kernel
from repro.evaluation.figures import ALGORITHMS, ALL_FIGURES, SCALES, Scale
from repro.evaluation.parallel import default_jobs
from repro.evaluation.runner import figure_series, run_sweep, write_csv

#: Schema version of BENCH_evaluation.json.  Schema 2 added per-sweep
#: ``figure_timings`` and storage ``version_stats``.  Schema 3 adds
#: ``checker_timings`` (incremental vs legacy SI verification over a
#: generated 10k-commit history) + ``history_bytes``, and replaces the
#: meaningless single-CPU figure-2 speedup with ``jobs_effective`` and a
#: ``null`` speedup.  Schema 4 adds ``parallel_refresh``: secondary
#: apply throughput and replication lag, ordered refresh vs
#: dependency-tracked parallel scheduler, per worker count and mix.  Schema 6
#: adds ``partial_replication``: per-secondary apply volume, link volume
#: fraction and drain speedup of keyspace sharding at subscription
#: fraction 1/2 vs full replication on the 95/5 mix.  Schema 7 adds
#: ``overload``: flash-crowd goodput and read p99 with admission
#: control on vs off, peak refresh backlog, and exact shed/degraded
#: accounting (virtual time, deterministic per seed).  Schema 8 removes
#: the ``kernel`` block's ``dispatch``, ``scaleup_95_5`` and
#: ``scheduler`` keys: the kernel has one event queue.
BENCH_SCHEMA = 8

#: Representative Figure 2 point timed per algorithm (100 clients on the
#: 5-secondary 80/20 clients sweep — mid-load, past the warm-up knee).
RUN_ONCE_X = 100

#: Scale for the per-algorithm run_once timing (kept short; the numbers
#: track relative regressions, not paper fidelity).
RUN_ONCE_SCALE = Scale("bench-once", duration=240.0, warmup=60.0,
                       replications=1)


#: Timing repetitions per measurement; the minimum is kept.  Like
#: ``timeit``, the fastest run is the closest to the code's true cost —
#: anything slower is scheduler or cache noise, which dominates on the
#: small shared containers these baselines are recorded on.
BENCH_REPEATS = 3


def bench_kernel(num_processes: int = 50,
                 sleeps_per_process: int = 2000,
                 repeats: int = BENCH_REPEATS) -> dict:
    """Measure raw kernel event throughput on a sleep-heavy mix."""

    def one_run() -> tuple[int, float]:
        kernel = Kernel()

        def ticker(rank: int):
            delay = 0.5 + rank * 0.01  # staggered so the heap stays mixed
            for _ in range(sleeps_per_process):
                yield kernel.sleep(delay)

        for rank in range(num_processes):
            kernel.spawn(ticker(rank), name=f"ticker-{rank}")
        started = perf_counter()
        kernel.run()
        elapsed = perf_counter() - started
        return kernel._seq, elapsed    # every scheduled event, incl. spawns

    events, elapsed = min((one_run() for _ in range(max(1, repeats))),
                          key=lambda pair: pair[1])
    return {
        "events": events,
        "seconds": round(elapsed, 6),
        "events_per_sec": round(events / elapsed, 1),
    }


def bench_run_once(seed: int = 42, repeats: int = BENCH_REPEATS) -> dict:
    """Wall-clock one representative simulation run per algorithm."""
    from repro.simmodel.experiment import run_once
    spec = ALL_FIGURES["2"]
    timings = {}
    for algorithm in ALGORITHMS:
        params = spec.sweep.params_for(RUN_ONCE_X, algorithm,
                                       RUN_ONCE_SCALE, seed=seed)
        best = None
        for _ in range(max(1, repeats)):
            started = perf_counter()
            run_once(params, seed=seed)
            elapsed = perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        timings[algorithm.value] = round(best, 4)
    return timings


def bench_figure_timings(seed: int = 42,
                         repeats: int = BENCH_REPEATS) -> dict:
    """Wall-clock one representative run per figure sweep (schema 2).

    The seven figures share three sweeps; each is timed at its middle
    x-value under the strictest algorithm, so every figure family has a
    number to regress against without re-running whole sweeps.
    """
    from repro.simmodel.experiment import run_once
    timings = {}
    for spec in ALL_FIGURES.values():
        sweep = spec.sweep
        if sweep.key in timings:
            continue
        x = sweep.x_values[len(sweep.x_values) // 2]
        params = sweep.params_for(x, ALGORITHMS[0], RUN_ONCE_SCALE,
                                  seed=seed)
        best = None
        for _ in range(max(1, repeats)):
            started = perf_counter()
            run_once(params, seed=seed)
            elapsed = perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        timings[sweep.key] = round(best, 4)
    return timings


def bench_version_stats(updates: int = 300, seed: int = 42) -> dict:
    """Version-chain growth on the functional system, with and without
    autovacuum (schema 2): the same update workload run twice.
    """
    from repro.core.guarantees import Guarantee
    from repro.core.system import ReplicatedSystem

    def workload(system) -> None:
        with system.session(Guarantee.WEAK_SI) as session:
            for i in range(updates):
                session.write(f"k{i % 10}", i)
                if i % 25 == 24:
                    system.run(until=system.kernel.now + 30.0)
        system.quiesce()

    unvacuumed = ReplicatedSystem(num_secondaries=2,
                                  propagation_delay=1.0,
                                  record_history=False)
    workload(unvacuumed)
    grown = max(site.engine.version_count
                for site in [unvacuumed.primary, *unvacuumed.secondaries])

    vacuumed = ReplicatedSystem(num_secondaries=2,
                                propagation_delay=1.0,
                                record_history=False,
                                autovacuum_interval=10.0)
    workload(vacuumed)
    bounded = max(site.engine.version_count
                  for site in [vacuumed.primary, *vacuumed.secondaries])
    return {
        "updates": updates,
        "max_versions_unvacuumed": grown,
        "max_versions_autovacuum": bounded,
        "versions_reclaimed": sum(d.versions_reclaimed
                                  for d in vacuumed.autovacuums),
        "vacuum_runs": sum(d.runs for d in vacuumed.autovacuums),
    }


#: Checker-bench history shape: long enough that the legacy O(commits²)
#: path visibly walls (tens of seconds) while the incremental path stays
#: around a second; the read count is bounded so timing the legacy path
#: stays affordable in a baseline run.
CHECKER_BENCH_COMMITS = 10_000
CHECKER_BENCH_SECONDARIES = 5
CHECKER_BENCH_READS = 2_000

#: The three criteria timed by :func:`bench_checkers`.
_CHECKER_CRITERIA = ("weak_si", "strong_session_si", "completeness")


def bench_checkers(commits: int = CHECKER_BENCH_COMMITS,
                   secondaries: int = CHECKER_BENCH_SECONDARIES,
                   reads: int = CHECKER_BENCH_READS,
                   seed: int = 42,
                   include_legacy: bool = True) -> dict:
    """Time incremental vs legacy SI checkers over a generated history.

    The history comes from
    :func:`repro.txn.histgen.generate_replicated_history` — ``commits``
    primary commits fully replicated to ``secondaries`` replicas — and
    is checker-clean by construction, so every timed run must come back
    ``ok``.  The shared aggregation caches — per-transaction views and
    the per-site committed/event lists — are warmed first so both paths
    time *checking*, not shared event aggregation.
    """
    from repro.txn import checkers
    from repro.txn.histgen import generate_replicated_history

    started = perf_counter()
    recorder = generate_replicated_history(
        commits, secondaries=secondaries, reads=reads, seed=seed)
    generate_seconds = perf_counter() - started
    recorder.transactions()            # warm the shared aggregation caches
    recorder.committed()
    for site in recorder.sites():
        recorder.committed(site=site)

    check_fns = {
        "weak_si": checkers.check_weak_si,
        "strong_session_si": checkers.check_strong_session_si,
        "completeness": checkers.check_completeness,
    }
    methods = ("incremental", "legacy") if include_legacy \
        else ("incremental",)
    timings: dict = {method: {} for method in methods}
    for method in methods:
        for criterion in _CHECKER_CRITERIA:
            started = perf_counter()
            result = check_fns[criterion](recorder, method=method)
            elapsed = perf_counter() - started
            if not result.ok:        # pragma: no cover - generator bug
                raise RuntimeError(
                    f"generated history failed {criterion} ({method}): "
                    f"{result.violations[:1]}")
            timings[method][criterion] = round(elapsed, 4)
    out = {
        "commits": commits,
        "secondaries": secondaries,
        "reads": reads,
        "history_events": len(recorder.events),
        "history_bytes": recorder.nbytes(),
        "generate_seconds": round(generate_seconds, 4),
        **timings,
    }
    if include_legacy:
        out["speedup"] = {
            criterion: round(timings["legacy"][criterion]
                             / max(timings["incremental"][criterion], 1e-9),
                             2)
            for criterion in _CHECKER_CRITERIA}
    return out


# -- schema 4: dependency-tracked parallel refresh ---------------------------

#: Worker counts compared (parallel_refresh=N; the ordered engine reads
#: the same at every N — relationship 2 serialises a sequential stream).
APPLY_BENCH_WORKERS = (1, 2, 4, 8)

#: Transaction mixes: label -> update-transaction probability.  80/20 is
#: Table 1's shopping mix, 95/5 the browsing mix; reads ship nothing, so
#: the mix sets how many update transactions hit the refresh pipeline.
APPLY_BENCH_MIXES = (("80/20", 0.20), ("95/5", 0.05))

#: Client operations drawn per mix (each is an update with the mix's
#: probability, a read otherwise).
APPLY_BENCH_OPS = 3000

#: Keyspace the update transactions write over — small enough that real
#: write-write conflicts occur, large enough that most commits are
#: independent and can legally reorder.
APPLY_BENCH_KEYS = 512

#: Virtual seconds of apply work per update operation at the secondary.
APPLY_BENCH_COST = 0.05

#: Virtual seconds between paced update transactions in the lag leg —
#: an offered load well above one worker's apply capacity (the mean
#: transaction carries ~4.6 ops = ~0.23 s of work), so a scheduler that
#: cannot overlap applies falls behind and its lag grows.
APPLY_BENCH_PACE = 0.15


def _apply_bench_txns(update_prob: float, seed: int) -> list[list]:
    """The deterministic update-transaction stream for one mix.

    Sizes are heavy-tailed — ~90% of update transactions carry 1-2
    operations, ~10% carry 25-40 — so a strict-FIFO pipeline stalls the
    whole feed behind each big transaction (head-of-line blocking)
    while the conflict scheduler keeps its workers busy.  Each
    transaction writes a *contiguous* key range from a random base
    (bulk-update locality): big transactions are expensive to apply but
    overlap each other rarely, so most of them may legally reorder —
    the regime dependency tracking exists for.
    """
    from repro.sim.rng import RandomStreams
    stream = RandomStreams(seed).stream(f"apply-bench-{update_prob}")
    txns: list[list] = []
    for _ in range(APPLY_BENCH_OPS):
        if not stream.bernoulli(update_prob):
            continue                     # a read: nothing to replicate
        size = stream.randint(25, 40) if stream.bernoulli(0.10) \
            else stream.randint(1, 2)
        base = stream.randint(0, APPLY_BENCH_KEYS - 1)
        txns.append([(f"k{(base + j) % APPLY_BENCH_KEYS}",
                      stream.randint(0, 9999))
                     for j in range(size)])
    return txns


def _apply_bench_system(mode: str, workers: int):
    from repro.core.system import ReplicatedSystem
    knob = {} if mode == "fifo" else {"parallel_refresh": workers}
    return ReplicatedSystem(num_secondaries=1, propagation_delay=0.1,
                            record_history=False,
                            refresh_apply_cost=APPLY_BENCH_COST, **knob)


def _commit_txn(system, updates) -> None:
    txn = system.primary.begin_update()
    for key, value in updates:
        txn.write(key, value)
    txn.commit()


def _drain_throughput(txns: list[list], mode: str, workers: int) -> float:
    """Secondary apply throughput (commits per virtual second).

    The whole stream is committed at the primary behind a paused
    propagator, then released at once: the drain time from release to
    quiescence is pure refresh-pipeline time, uncontaminated by client
    pacing.
    """
    system = _apply_bench_system(mode, workers)
    system.propagator.pause()
    for updates in txns:
        _commit_txn(system, updates)
    released_at = system.kernel.now
    system.propagator.resume()
    system.quiesce()
    drained = system.kernel.now - released_at
    if system.secondary_state(0) != system.primary_state():
        raise RuntimeError(           # pragma: no cover - scheduler bug
            f"apply bench diverged ({mode}, {workers} workers)")
    return len(txns) / drained


def _paced_lag(txns: list[list], mode: str, workers: int) -> float:
    """Mean replication lag (commits behind) under a paced feed.

    One update transaction commits every ``APPLY_BENCH_PACE`` virtual
    seconds; lag is sampled right after each commit at the identical
    instants for every configuration.
    """
    system = _apply_bench_system(mode, workers)
    secondary = system.secondaries[0]
    samples = []
    when = 0.0
    for updates in txns:
        if when > system.kernel.now:
            system.run(until=when)
        _commit_txn(system, updates)
        samples.append(system.primary.latest_commit_ts - secondary.seq_db)
        when += APPLY_BENCH_PACE
    system.quiesce()
    return sum(samples) / len(samples)


def bench_parallel_refresh(seed: int = 42) -> dict:
    """Ordered vs dependency-tracked parallel refresh (schema 4)."""
    result: dict = {
        "workers": list(APPLY_BENCH_WORKERS),
        "apply_cost": APPLY_BENCH_COST,
        "pace": APPLY_BENCH_PACE,
        "keys": APPLY_BENCH_KEYS,
        "mixes": {},
    }
    for mix, update_prob in APPLY_BENCH_MIXES:
        txns = _apply_bench_txns(update_prob, seed)
        per_mix: dict = {
            "update_txns": len(txns),
            "update_ops": sum(len(t) for t in txns),
            "fifo": {},
            "parallel": {},
        }
        for workers in APPLY_BENCH_WORKERS:
            for mode in ("fifo", "parallel"):
                per_mix[mode][str(workers)] = {
                    "apply_throughput": round(
                        _drain_throughput(txns, mode, workers), 3),
                    "mean_lag": round(_paced_lag(txns, mode, workers), 3),
                }
        fifo8 = per_mix["fifo"]["8"]["apply_throughput"]
        par8 = per_mix["parallel"]["8"]["apply_throughput"]
        per_mix["throughput_speedup_at_8"] = round(par8 / fifo8, 2)
        result["mixes"][mix] = per_mix
    return result


# -- schema 6: keyspace sharding / partial replication -----------------------

SHARD_BENCH_SHARDS = 8
SHARD_BENCH_SECONDARIES = 4
#: Secondary ``i`` subscribes to the width-4 shard window starting at
#: ``2i``: every shard is held by exactly two of the four replicas, so
#: each replica's subscription fraction — and, for single-shard
#: transactions, its share of the update volume — is exactly 1/2.
SHARD_BENCH_PLACEMENT = tuple(
    tuple((2 * i + j) % SHARD_BENCH_SHARDS for j in range(4))
    for i in range(SHARD_BENCH_SECONDARIES))
#: Keys kept per shard pool (large enough for the biggest transaction).
SHARD_BENCH_POOL = 64


def _shard_bench_txns(seed: int) -> list[list]:
    """A 95/5-mix update stream whose transactions are single-shard.

    Sizes reuse the heavy-tailed shape of :func:`_apply_bench_txns`, but
    each transaction draws a shard and writes keys only from that
    shard's pool: a commit then touches exactly one shard, which is
    what makes the per-secondary volume fraction *exactly* the
    subscription fraction (a multi-shard commit would be shipped to
    every subscriber of any touched shard, blurring the bar).
    """
    from repro.core.sharding import shard_of
    from repro.sim.rng import RandomStreams

    pools: list[list[str]] = [[] for _ in range(SHARD_BENCH_SHARDS)]
    key_index = 0
    while min(len(pool) for pool in pools) < SHARD_BENCH_POOL:
        key = f"k{key_index}"
        pools[shard_of(key, SHARD_BENCH_SHARDS)].append(key)
        key_index += 1
    stream = RandomStreams(seed).stream("shard-bench")
    txns: list[list] = []
    for _ in range(APPLY_BENCH_OPS):
        if not stream.bernoulli(0.05):   # 95/5 browsing mix
            continue
        size = stream.randint(25, 40) if stream.bernoulli(0.10) \
            else stream.randint(1, 2)
        pool = pools[stream.randint(0, SHARD_BENCH_SHARDS - 1)]
        base = stream.randint(0, len(pool) - 1)
        txns.append([(pool[(base + j) % len(pool)],
                      stream.randint(0, 9999))
                     for j in range(size)])
    return txns


def _shard_bench_drain(txns: list[list], sharding) -> tuple:
    """Drain time + per-secondary applied-commit counts for one config.

    Same paused-propagator flood as :func:`_drain_throughput`: the whole
    stream commits at the primary first, then the release-to-quiescence
    time is pure refresh-pipeline time.
    """
    from repro.core.sharding import shard_of
    from repro.core.system import ReplicatedSystem

    system = ReplicatedSystem(num_secondaries=SHARD_BENCH_SECONDARIES,
                              propagation_delay=0.1, record_history=False,
                              refresh_apply_cost=APPLY_BENCH_COST,
                              sharding=sharding)
    system.propagator.pause()
    for updates in txns:
        _commit_txn(system, updates)
    released_at = system.kernel.now
    system.propagator.resume()
    system.quiesce()
    drained = system.kernel.now - released_at
    primary_state = system.primary_state()
    for index, secondary in enumerate(system.secondaries):
        expected = primary_state if sharding is None else {
            key: value for key, value in primary_state.items()
            if shard_of(key, sharding.shards) in secondary.subscription}
        if system.secondary_state(index) != expected:
            raise RuntimeError(       # pragma: no cover - scheduler bug
                f"partial-replication bench diverged at secondary "
                f"{index}")
    applied = [secondary.refresher.refreshes_applied
               for secondary in system.secondaries]
    return drained, applied, system.propagator


def bench_partial_replication(seed: int = 42) -> dict:
    """Partial replication vs full replication (schema 6).

    The same single-shard 95/5 update stream drains through two
    four-secondary systems: the classic fully-replicated one, and a
    sharded one where every replica subscribes to half the keyspace.
    Records the per-secondary applied-volume speedup (exactly 2x by
    construction of the placement), the link volume fraction (commit
    deliveries per endpoint relative to full replication's
    one-per-commit) and the drain-time speedup.  All legs run in
    virtual time — deterministic per seed.
    """
    from repro.core.sharding import ShardingConfig

    txns = _shard_bench_txns(seed)
    total_ops = sum(len(txn) for txn in txns)
    sharding = ShardingConfig(shards=SHARD_BENCH_SHARDS,
                              placement=SHARD_BENCH_PLACEMENT)

    full_drain, full_applied, _ = _shard_bench_drain(txns, None)
    shard_drain, shard_applied, propagator = _shard_bench_drain(
        txns, sharding)

    commits = len(txns)
    endpoints = SHARD_BENCH_SECONDARIES
    full_fraction = sum(full_applied) / (commits * endpoints)
    shard_fraction = sum(shard_applied) / (commits * endpoints)
    # Commit-record deliveries per endpoint, relative to full
    # replication's one-delivery-per-commit-per-endpoint.
    link_fraction = propagator.records_sent / (commits * endpoints)
    return {
        "shards": SHARD_BENCH_SHARDS,
        "secondaries": endpoints,
        "placement": [list(entry) for entry in SHARD_BENCH_PLACEMENT],
        "subscription_fraction": 0.5,
        "mix": "95/5",
        "update_txns": commits,
        "update_ops": total_ops,
        "apply_cost": APPLY_BENCH_COST,
        "full": {
            "drain_seconds": round(full_drain, 3),
            "per_secondary_commit_fraction": round(full_fraction, 4),
        },
        "sharded": {
            "drain_seconds": round(shard_drain, 3),
            "per_secondary_commit_fraction": round(shard_fraction, 4),
        },
        "per_secondary_volume_speedup": round(
            full_fraction / shard_fraction, 3),
        "link_volume_fraction": round(link_fraction, 4),
        "drain_speedup": round(full_drain / shard_drain, 3),
    }


# -- schema 7: overload resilience --------------------------------------------

OVERLOAD_BENCH_OPS = 600
OVERLOAD_BENCH_SESSIONS = 8
OVERLOAD_BENCH_HORIZON = 120.0
OVERLOAD_BENCH_KEYS = 64
#: Keys written per update transaction; with ``OVERLOAD_BENCH_COST`` of
#: apply work per write, every commit costs the secondary 0.3 s of
#: refresh work.  The burst offers ~30 updates/s — far past the ~3.3
#: commits/s one secondary can absorb, the regime where an unprotected
#: system's refresh backlog (and freshness-wait latency) explodes.
OVERLOAD_BENCH_WRITES = 6
OVERLOAD_BENCH_UPDATE_PROB = 0.7
OVERLOAD_BENCH_COST = 0.05
#: Flash-crowd burst window of :func:`~repro.workload.arrival_times`:
#: 90% of the ops arrive inside the middle tenth of the horizon.
OVERLOAD_BURST_WINDOW = (0.45 * OVERLOAD_BENCH_HORIZON,
                         0.55 * OVERLOAD_BENCH_HORIZON)


def _overload_admission():
    """The admission-on configuration of the overload leg.

    ``rate`` is deliberately a shade *supercritical* (4 commits/s x
    0.3 s = 1.2 s of refresh work per second), so the token bucket alone
    cannot hold the line and every protection layer gets exercised:
    ``queue_limit`` sits below the session count so a full-burst
    convergence actually sheds, ``lag_bound`` brownouts the admitted
    rate when the refresh backlog drifts anyway, and reads past
    ``read_deadline`` degrade to a reported bounded-staleness snapshot
    instead of queueing behind the backlog.
    """
    from repro.core.admission import AdmissionConfig
    return AdmissionConfig(rate=4.0, queue_limit=4, retry_budget=3,
                           lag_bound=10, read_deadline=1.0,
                           degrade_to_stale=True)


def _overload_ops(seed: int) -> list[tuple]:
    """The deterministic flash-crowd op stream, one tuple per op.

    Arrival instants and the op mix come from dedicated streams
    (``overload-arrivals`` / ``overload-mix``), so both legs replay the
    identical offered load and no other consumer's sequences shift.
    """
    from repro.sim.rng import RandomStreams
    from repro.workload.generator import arrival_times

    streams = RandomStreams(seed)
    arrivals = arrival_times("flash-crowd", OVERLOAD_BENCH_OPS,
                             OVERLOAD_BENCH_HORIZON,
                             streams["overload-arrivals"])
    mix = streams["overload-mix"]
    ops = []
    for when in arrivals:
        index = mix.randint(0, OVERLOAD_BENCH_SESSIONS - 1)
        base = mix.randint(0, OVERLOAD_BENCH_KEYS - 1)
        if mix.bernoulli(OVERLOAD_BENCH_UPDATE_PROB):
            writes = {f"k{(base + j) % OVERLOAD_BENCH_KEYS}":
                      mix.randint(0, 9999)
                      for j in range(OVERLOAD_BENCH_WRITES)}
            ops.append((when, index, writes, None))
        else:
            ops.append((when, index, None, f"k{base}"))
    return ops


def _overload_run(ops: list[tuple], admission) -> dict:
    """Drive one open-loop flash-crowd leg; return its raw measurements.

    Ops are handed to per-session runner processes at their arrival
    instants (the same dispatch shape as the ``--overload`` chaos storm):
    sessions execute concurrently with each other, serialized internally,
    so the burst genuinely converges on the admission queue — and, with
    admission off, on the secondary's unbounded refresh backlog.
    """
    from repro.core.guarantees import Guarantee
    from repro.core.system import ReplicatedSystem
    from repro.errors import OverloadError
    from repro.kernel.sync import Condition

    system = ReplicatedSystem(num_secondaries=1, propagation_delay=0.1,
                              record_history=False,
                              refresh_apply_cost=OVERLOAD_BENCH_COST,
                              admission=admission)
    sessions = [system.session(Guarantee.STRONG_SESSION_SI)
                for _ in range(OVERLOAD_BENCH_SESSIONS)]
    kernel = system.kernel
    pending: list[list] = [[] for _ in sessions]
    closed = [False]
    cond = Condition(kernel, name="overload-ops")
    commit_times: list[float] = []
    read_latencies: list[float] = []
    client_shed = [0]
    peak_lag = [0]

    def sample_lag() -> None:
        # The same backlog gauge the brownout watches: shipped-but-
        # unapplied commits plus the in-flight refresh watermark gap.
        for secondary in system.secondaries:
            lag = secondary.lag + secondary.refresher.watermark_lag
            if lag > peak_lag[0]:
                peak_lag[0] = lag

    def runner(i: int):
        session = sessions[i]
        while True:
            if not pending[i]:
                if closed[0]:
                    return
                yield cond.wait_for(lambda: pending[i] or closed[0])
                continue
            writes, key = pending[i].pop(0)
            if writes is not None:
                def work(txn, w=writes):
                    for k, v in w.items():
                        txn.write(k, v)
                try:
                    yield from session._update_process(work)
                    commit_times.append(kernel.now)
                except OverloadError:
                    client_shed[0] += 1
            else:
                started = kernel.now
                yield from session._read_only_process(
                    lambda txn, k=key: txn.read(k, default=None),
                    keys=[key])
                # Service time (start-of-execution to completion): the
                # freshness wait that read_deadline governs, isolated
                # from same-session queueing, which both legs share.
                read_latencies.append(kernel.now - started)

    runners = [kernel.spawn(runner(i), name=f"overload-client@{i}")
               for i in range(len(sessions))]
    for when, index, writes, key in ops:
        if when > kernel.now:
            system.run(until=when)
        sample_lag()
        pending[index].append((writes, key))
        cond.notify_all()
    closed[0] = True
    cond.notify_all()
    for process in runners:
        kernel.run_until_complete(process)
    system.quiesce()

    burst_lo, burst_hi = OVERLOAD_BURST_WINDOW
    steady = sum(1 for t in commit_times if t < burst_lo) / burst_lo
    burst = sum(1 for t in commit_times if burst_lo <= t <= burst_hi) \
        / (burst_hi - burst_lo)
    p99 = 0.0
    if read_latencies:
        ordered = sorted(read_latencies)
        p99 = ordered[int(0.99 * (len(ordered) - 1))]
    leg = {
        "updates_committed": len(commit_times),
        "reads": len(read_latencies),
        "steady_goodput": round(steady, 4),
        "burst_goodput": round(burst, 4),
        "burst_over_steady": round(burst / steady, 4) if steady else None,
        "read_p99": round(p99, 4),
        "peak_lag": peak_lag[0],
        "finished_at": round(kernel.now, 4),
    }
    controller = system.admission_controller
    if controller is not None:
        retries = sum(s.overload_retries for s in sessions)
        errors = sum(s.overload_errors for s in sessions)
        reports = [r for s in sessions for r in s.staleness_reports]
        leg.update({
            "attempts": controller.attempts,
            "admitted": controller.admitted,
            "shed": controller.shed,
            "throttled": controller.throttled,
            "peak_queue": controller.peak_queue_depth,
            "brownouts": controller.brownouts,
            "min_brownout_factor": round(
                controller.min_brownout_factor, 4),
            "retries": retries,
            "client_shed": errors,
            "degraded_reads": controller.degraded_reads,
            "max_reported_staleness": max(
                (r.staleness for r in reports), default=0),
            # Exact conservation laws, asserted by the perf test:
            # every attempt is admitted or shed, every shed is either
            # retried or surfaced, every degraded read kept its bound.
            "attempts_balance_exact":
                controller.attempts
                == controller.admitted + controller.shed,
            "shed_balance_exact":
                controller.shed == retries + errors,
            "client_shed_matches": errors == client_shed[0],
            "staleness_within_bounds":
                all(r.staleness <= r.bound for r in reports),
        })
    return leg


def bench_overload(seed: int = 42) -> dict:
    """Admission on vs off under the same flash crowd (schema 7)."""
    admission = _overload_admission()
    ops = _overload_ops(seed)
    on = _overload_run(ops, admission)
    off = _overload_run(ops, None)
    return {
        "ops": OVERLOAD_BENCH_OPS,
        "sessions": OVERLOAD_BENCH_SESSIONS,
        "horizon": OVERLOAD_BENCH_HORIZON,
        "update_prob": OVERLOAD_BENCH_UPDATE_PROB,
        "writes_per_update": OVERLOAD_BENCH_WRITES,
        "apply_cost": OVERLOAD_BENCH_COST,
        "burst_window": list(OVERLOAD_BURST_WINDOW),
        "admission": {
            "rate": admission.rate,
            "queue_limit": admission.queue_limit,
            "retry_budget": admission.retry_budget,
            "lag_bound": admission.lag_bound,
            "read_deadline": admission.read_deadline,
        },
        "on": on,
        "off": off,
        "read_p99_ratio_off_over_on": round(
            off["read_p99"] / on["read_p99"], 3)
            if on["read_p99"] else None,
    }


def run_profile(scale: str = "quick", seed: int = 42, top: int = 20,
                x: int = RUN_ONCE_X) -> int:
    """``--profile``: cProfile one run_once per algorithm, dump top-N.

    This is the profile that justifies hot-path optimizations: it runs
    the same representative Figure 2 point as the bench, under the
    chosen scale preset, and prints the top functions by internal time
    and by cumulative time.
    """
    import cProfile
    import pstats

    from repro.simmodel.experiment import run_once
    spec = ALL_FIGURES["2"]
    scale_obj = SCALES.get(scale, RUN_ONCE_SCALE)
    profiler = cProfile.Profile()
    for algorithm in ALGORITHMS:
        params = spec.sweep.params_for(x, algorithm, scale_obj, seed=seed)
        profiler.enable()
        run_once(params, seed=seed)
        profiler.disable()
    print(f"cProfile over one run_once per algorithm "
          f"(figure 2, x={x}, scale {scale_obj.name!r})")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    print(f"\n== top {top} by internal time ==")
    stats.sort_stats("tottime").print_stats(top)
    print(f"== top {top} by cumulative time ==")
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def bench_figure2_small(jobs: Optional[int] = None, seed: int = 42) -> dict:
    """Figure 2 end-to-end at the ``small`` scale, serial vs parallel.

    On a single-CPU host a "parallel" sweep is the serial run racing
    itself through pool overhead — the speedup it used to record (e.g.
    0.822x) was noise, not signal — so the parallel leg and the speedup
    are skipped (``None``) when ``default_jobs() == 1``.  The actual
    host parallelism is recorded as ``jobs_effective``.
    """
    jobs_effective = default_jobs()
    jobs = jobs_effective if jobs is None else max(1, int(jobs))
    spec = ALL_FIGURES["2"]
    scale = SCALES["small"]

    started = perf_counter()
    serial = run_sweep(spec.sweep, scale, seed=seed, jobs=1)
    serial_seconds = perf_counter() - started

    result = {
        "scale": scale.name,
        "jobs": jobs,
        "jobs_effective": jobs_effective,
        "seconds_serial": round(serial_seconds, 4),
        "seconds_parallel": None,
        "speedup": None,
        "csv_identical": None,
    }
    if jobs_effective == 1:
        return result

    started = perf_counter()
    parallel = run_sweep(spec.sweep, scale, seed=seed, jobs=jobs)
    parallel_seconds = perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        serial_csv = Path(tmp) / "serial.csv"
        parallel_csv = Path(tmp) / "parallel.csv"
        write_csv(figure_series(spec, serial), serial_csv)
        write_csv(figure_series(spec, parallel), parallel_csv)
        identical = serial_csv.read_bytes() == parallel_csv.read_bytes()

    result.update(
        seconds_parallel=round(parallel_seconds, 4),
        speedup=round(serial_seconds / parallel_seconds, 3),
        csv_identical=identical,
    )
    return result


def run_bench(jobs: Optional[int] = None, out: Optional[Path] = None,
              seed: int = 42) -> int:
    """Run all benches, print a summary, write the baseline JSON."""
    out = Path("BENCH_evaluation.json") if out is None else out
    jobs = default_jobs() if jobs is None else max(1, int(jobs))

    print("Benchmarking kernel event dispatch ...")
    kernel = bench_kernel()
    print(f"  {kernel['events']} events in {kernel['seconds']:.3f}s "
          f"-> {kernel['events_per_sec']:,.0f} events/sec")

    print("Benchmarking run_once per algorithm "
          f"(figure 2, x={RUN_ONCE_X}) ...")
    run_once_timings = bench_run_once(seed=seed)
    for algorithm, seconds in run_once_timings.items():
        print(f"  {algorithm:<20} {seconds:.3f}s")

    print("Benchmarking one representative point per figure sweep ...")
    figure_timings = bench_figure_timings(seed=seed)
    for sweep_key, seconds in figure_timings.items():
        print(f"  {sweep_key:<20} {seconds:.3f}s")

    print("Measuring version-chain growth with/without autovacuum ...")
    version_stats = bench_version_stats(seed=seed)
    print(f"  {version_stats['max_versions_unvacuumed']} versions grown "
          f"-> {version_stats['max_versions_autovacuum']} with autovacuum "
          f"({version_stats['versions_reclaimed']} reclaimed over "
          f"{version_stats['vacuum_runs']} runs)")

    print(f"Benchmarking SI checkers over a generated "
          f"{CHECKER_BENCH_COMMITS}-commit history ...")
    checker_timings = bench_checkers(seed=seed)
    for criterion in _CHECKER_CRITERIA:
        print(f"  {criterion:<20} incremental "
              f"{checker_timings['incremental'][criterion]:.3f}s, legacy "
              f"{checker_timings['legacy'][criterion]:.3f}s "
              f"({checker_timings['speedup'][criterion]:.1f}x)")
    print(f"  history: {checker_timings['history_events']} events, "
          f"{checker_timings['history_bytes'] / 1e6:.1f} MB")

    print("Benchmarking parallel vs ordered refresh "
          f"(workers {APPLY_BENCH_WORKERS}) ...")
    parallel_refresh = bench_parallel_refresh(seed=seed)
    for mix, stats in parallel_refresh["mixes"].items():
        fifo8 = stats["fifo"]["8"]
        par8 = stats["parallel"]["8"]
        print(f"  {mix:<6} {stats['update_txns']} txns: "
              f"fifo {fifo8['apply_throughput']:.1f} c/s "
              f"(lag {fifo8['mean_lag']:.1f}) vs parallel "
              f"{par8['apply_throughput']:.1f} c/s "
              f"(lag {par8['mean_lag']:.1f}) at 8 workers "
              f"-> {stats['throughput_speedup_at_8']:.2f}x")

    print("Benchmarking partial replication vs full replication "
          f"({SHARD_BENCH_SHARDS} shards, subscription 1/2, 95/5) ...")
    partial = bench_partial_replication(seed=seed)
    print(f"  {partial['update_txns']} txns: drain "
          f"{partial['full']['drain_seconds']:.1f}s full vs "
          f"{partial['sharded']['drain_seconds']:.1f}s sharded "
          f"({partial['drain_speedup']:.2f}x), per-secondary volume "
          f"{partial['per_secondary_volume_speedup']:.2f}x, link "
          f"fraction {partial['link_volume_fraction']:.2f}")

    print("Benchmarking overload resilience under a flash crowd "
          "(admission on vs off) ...")
    overload = bench_overload(seed=seed)
    on, off = overload["on"], overload["off"]
    print(f"  on : burst {on['burst_goodput']:.2f} c/s vs steady "
          f"{on['steady_goodput']:.2f} c/s "
          f"({on['burst_over_steady']:.2f}x), read p99 "
          f"{on['read_p99']:.2f}s, {on['shed']} shed "
          f"({on['client_shed']} client-visible), "
          f"{on['degraded_reads']} degraded reads "
          f"(max staleness {on['max_reported_staleness']}), "
          f"peak lag {on['peak_lag']}")
    print(f"  off: burst {off['burst_goodput']:.2f} c/s, read p99 "
          f"{off['read_p99']:.2f}s, peak lag "
          f"{off['peak_lag']} "
          f"(p99 ratio off/on "
          f"{overload['read_p99_ratio_off_over_on']:.1f}x)")

    print(f"Benchmarking figure 2 end-to-end at scale 'small' "
          f"(jobs=1 vs jobs={jobs}) ...")
    figure2 = bench_figure2_small(jobs=jobs, seed=seed)
    if figure2["speedup"] is None:
        print(f"  serial {figure2['seconds_serial']:.2f}s "
              f"(single-CPU host: parallel comparison skipped)")
    else:
        print(f"  serial {figure2['seconds_serial']:.2f}s, "
              f"parallel {figure2['seconds_parallel']:.2f}s "
              f"(speedup {figure2['speedup']:.2f}x, csv identical: "
              f"{figure2['csv_identical']})")

    baseline = {
        "schema": BENCH_SCHEMA,
        "generated_by": "python -m repro.evaluation --bench",
        "host": {
            "cpu_count": default_jobs(),
            "python": platform.python_version(),
        },
        "kernel": kernel,
        "run_once_seconds": run_once_timings,
        "figure_timings": figure_timings,
        "version_stats": version_stats,
        "checker_timings": checker_timings,
        "history_bytes": checker_timings["history_bytes"],
        "parallel_refresh": parallel_refresh,
        "partial_replication": partial,
        "overload": overload,
        "figure2_small": figure2,
    }
    out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":               # pragma: no cover - convenience
    sys.exit(run_bench())
