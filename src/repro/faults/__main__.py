"""Chaos CLI: ``python -m repro.faults --seeds 20``.

Runs one seeded chaos schedule per seed (lossy channels, secondary
crash/recovery, primary crash with WAL restart — or a permanent kill
plus promotion with ``--primary-kill`` — propagator stall, seeded
network-partition windows with ``--partitions N``, all under a
concurrent client workload), prints one summary block per run, and
exits non-zero if any run fails its convergence or SI checks —
reproduce a failure exactly with ``--seed <n>``.  With
``--auto-failover`` the promotion is unscripted: the heartbeat/lease
control plane must detect the kill and elect a successor on its own.
With ``--overload`` each run becomes a flash-crowd storm under
admission control: shaped arrivals, a token bucket with a bounded shed
queue, client retry budgets with jittered backoff, circuit breakers,
lag-driven brownout and degraded bounded-staleness reads — composable
with every other fault flag (e.g. ``--overload --primary-kill
--auto-failover`` kills the primary mid-burst).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.admission import SHED_POLICIES, AdmissionConfig
from repro.faults.channel import ChannelFaults
from repro.faults.harness import DEFAULT_FAULTS, ChaosConfig, run_chaos


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Seeded chaos runs against the replicated system.")
    parser.add_argument("--seeds", type=int, default=20, metavar="N",
                        help="number of consecutive seeds to run "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="run exactly one seed (overrides --seeds)")
    parser.add_argument("--first-seed", type=int, default=0, metavar="S",
                        help="first seed of the range (default: %(default)s)")
    parser.add_argument("--secondaries", type=int, default=3,
                        help="number of secondary sites (default: %(default)s)")
    parser.add_argument("--ops", type=int, default=120,
                        help="client operations per run (default: %(default)s)")
    parser.add_argument("--horizon", type=float, default=120.0,
                        help="virtual-time length of each run "
                             "(default: %(default)s)")
    parser.add_argument("--drop", type=float, default=DEFAULT_FAULTS.drop,
                        help="per-message drop probability "
                             "(default: %(default)s)")
    parser.add_argument("--duplicate", type=float,
                        default=DEFAULT_FAULTS.duplicate,
                        help="per-message duplication probability "
                             "(default: %(default)s)")
    parser.add_argument("--jitter", type=float, default=DEFAULT_FAULTS.jitter,
                        help="max extra per-message delay "
                             "(default: %(default)s)")
    parser.add_argument("--reorder", type=float,
                        default=DEFAULT_FAULTS.reorder,
                        help="per-message reorder probability "
                             "(default: %(default)s)")
    parser.add_argument("--no-primary-crash", action="store_true",
                        help="skip the primary crash/restart window")
    parser.add_argument("--primary-kill", action="store_true",
                        help="make the primary failure permanent: kill "
                             "it and promote the freshest secondary "
                             "under a new cluster epoch")
    parser.add_argument("--partitions", type=int, default=0, metavar="N",
                        help="seeded network-partition windows per run, "
                             "each blackholing one secondary's link "
                             "(default: %(default)s)")
    parser.add_argument("--auto-failover", action="store_true",
                        help="run the heartbeat/lease/suspicion control "
                             "plane: a killed primary is detected and a "
                             "secondary promoted autonomously instead of "
                             "by a scripted plan event")
    parser.add_argument("--parallel-refresh", type=int, default=None,
                        metavar="N",
                        help="dependency-tracked parallel refresh with N "
                             "workers per secondary (default: the paper's "
                             "ordered refresh, one applicator per commit)")
    parser.add_argument("--refresh-apply-cost", type=float, default=None,
                        metavar="T",
                        help="virtual seconds of apply work per update "
                             "operation (default: 0.02 when "
                             "--parallel-refresh is set, else 0)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="keyspace sharding with partial replication: "
                             "N shards, the first two secondaries "
                             "full-coverage and the rest subscribing to "
                             "alternating halves (default: off)")
    parser.add_argument("--arrival",
                        choices=("uniform", "flash-crowd", "diurnal"),
                        default=None,
                        help="client-op arrival pattern (default: uniform; "
                             "--overload defaults to flash-crowd)")
    parser.add_argument("--overload", action="store_true",
                        help="flash-crowd overload storm under admission "
                             "control: token-bucket rate limiting, a "
                             "bounded shed queue, retry budgets, circuit "
                             "breakers, lag-driven brownout and degraded "
                             "bounded-staleness reads")
    parser.add_argument("--admission-rate", type=float, default=2.0,
                        metavar="R",
                        help="sustained admitted updates per virtual "
                             "second under --overload "
                             "(default: %(default)s)")
    parser.add_argument("--shed-policy", choices=SHED_POLICIES,
                        default="reject-newest",
                        help="which waiter a full admission queue sheds "
                             "(default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="only print failing runs and the final tally")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    faults = ChannelFaults(drop=args.drop, duplicate=args.duplicate,
                           jitter=args.jitter, reorder=args.reorder,
                           reorder_delay=DEFAULT_FAULTS.reorder_delay)
    seeds = ([args.seed] if args.seed is not None
             else list(range(args.first_seed, args.first_seed + args.seeds)))

    apply_cost = args.refresh_apply_cost
    if apply_cost is None:
        # Free applies finish instantly and in order; charge a default
        # cost so parallel runs actually exercise reordering — and so
        # overload storms build the refresh backlog the brownout watches.
        apply_cost = 0.02 if (args.parallel_refresh is not None
                              or args.overload) else 0.0

    arrival = args.arrival or "uniform"
    admission = None
    if args.overload:
        # A burst-prone storm: flash-crowd arrivals (unless overridden),
        # a bucket refilling slower than the burst arrives, a small shed
        # queue, a modest retry budget with jittered backoff, breakers
        # against a dead primary, brownout on refresh lag, and reads
        # that degrade to a bounded-staleness snapshot at the deadline.
        arrival = args.arrival or "flash-crowd"
        # queue_limit sits *below* the session count so a full-burst
        # convergence of all four chaos sessions can actually shed.
        admission = AdmissionConfig(
            rate=args.admission_rate,
            queue_limit=2,
            shed_policy=args.shed_policy,
            retry_budget=3,
            breaker_threshold=6,
            breaker_cooldown=2.0,
            lag_bound=24,
            read_deadline=5.0,
            degrade_to_stale=True)

    failures = 0
    for seed in seeds:
        config = ChaosConfig(seed=seed, num_secondaries=args.secondaries,
                             ops=args.ops, horizon=args.horizon,
                             faults=faults,
                             primary_crash=not args.no_primary_crash,
                             primary_kill=args.primary_kill,
                             partitions=args.partitions,
                             auto_failover=args.auto_failover,
                             parallel_refresh=args.parallel_refresh,
                             refresh_apply_cost=apply_cost,
                             shards=args.shards,
                             arrival_pattern=arrival,
                             admission=admission)
        result = run_chaos(config)
        if not result.ok:
            failures += 1
        if not result.ok or not args.quiet:
            print(result.describe())
    print(f"{len(seeds) - failures}/{len(seeds)} chaos runs passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
