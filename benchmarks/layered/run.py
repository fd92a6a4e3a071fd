#!/usr/bin/env python3
"""Layered benchmark of the lazy-replication reproduction.

    python benchmarks/layered/run.py [--workload W] [--seed N]
        [--seconds S | --reps K] [--trace 0|1] [--smoke] [--selfcheck]

With ``--workload`` the workload runs in this process (which the caller
started fresh for it) and the last line of output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Without it, each workload runs in
a child process of its own.  ``--selfcheck`` runs the whole set twice
and compares.  See README.md for what every number means.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers                                    # noqa: E402
from hostcal import (                            # noqa: E402
    Calibrator, Stopwatch, best_of, normalise, total)

SPEC = json.loads((layers.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

DEFAULT_SEED = 17
SMOKE_SCALE = 0.1
TRACED_PASSES = 3
#: A run is marked noisy beyond these (README, "Normalisation").
NOISY_REP_SPREAD = 0.10
NOISY_WALL_OVER_CPU = 1.5


@dataclass
class Rep:
    """Raw measurements of one repetition (CPU seconds unless named)."""

    setup: float
    drive: list             # (name or None, seconds) per segment
    check: list
    cal: float              # the faster of the two slices beside it
    cpu: float              # whole repetition, slices included
    wall: float
    outcome: object


def repetition(workload, calibrator: Calibrator, profile=None) -> Rep:
    # Collect now and not again until the repetition is over, as timeit
    # does: a full collection lands in drive or in check depending on
    # the seed, which made txn_per_s bimodal across seeds.
    gc.collect()
    gc.disable()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    cal_before = calibrator.slice()
    t0 = time.process_time()
    run = workload.setup()
    t1 = time.process_time()
    if profile is not None:
        profile.enable()
    drive = Stopwatch()
    workload.drive(run, drive)
    check = Stopwatch()
    workload.check(run, check)
    if profile is not None:
        profile.disable()
    cal_after = calibrator.slice()
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - wall_started
    gc.enable()
    return Rep(setup=t1 - t0, drive=drive.segments, check=check.segments,
               cal=min(cal_before, cal_after), cpu=cpu, wall=wall,
               outcome=workload.outcome(run))


def run_workload(args) -> int:
    """Measure one workload in this process; print the result line."""
    import_started = time.process_time()
    sys.path.insert(0, str(layers.SRC))
    import workloads
    import_s = time.process_time() - import_started

    scale = SMOKE_SCALE if args.smoke else 1.0
    workload = workloads.WORKLOADS[args.workload](args.seed, scale)
    calibrator = Calibrator()
    gc.freeze()         # the op stream and calibration set are not garbage
    print(f"workload {workload.name}  seed {args.seed}  scale {scale}")
    print(f"load_digest {workload.load_digest}")

    repetition(workload, calibrator)             # warm-up, discarded
    # A traced run spends a third of its time on untraced repetitions
    # (checker times, trace overhead) and the rest under the profiler.
    budget = args.seconds / 3 if args.trace else args.seconds
    min_reps = 2 if args.trace else 3
    reps: list[Rep] = []
    started = time.perf_counter()
    while (len(reps) < args.reps if args.reps
           else len(reps) < min_reps
           or time.perf_counter() - started < budget):
        rep = repetition(workload, calibrator)
        reps.append(rep)
        if len(reps) <= min_reps:
            # The high-water mark creeps up a few MB with every further
            # repetition; read it after the same number in every run.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"rep {len(reps)}: setup_cpu_s {rep.setup:.4f}  "
              f"drive_cpu_s {total(rep.drive):.4f}  "
              f"check_cpu_s {total(rep.check):.4f}  "
              f"cal_s {rep.cal:.5f}  cpu_s {rep.cpu:.3f}  "
              f"wall_s {rep.wall:.3f}  "
              f"drive_norm_s {normalise(total(rep.drive), rep.cal):.4f}")

    first = reps[0].outcome
    for rep in reps:
        if (rep.outcome.digest != first.digest
                or rep.outcome.exact != first.exact):
            print("FAILED: repetitions of one seed disagree "
                  f"({rep.outcome.digest} != {first.digest})")
            return 1
    print(f"outcome_digest {first.digest}")

    txns = first.attempted
    cal = calibrator.best()

    def best(*regions: str, name=None) -> float:
        """Best-of-k cost of the regions over best-of-k calibration.

        Minima, not medians: under contention a median moves with how
        much of the run was disturbed, the fastest segment and the
        fastest slice hardly at all (README, "Normalisation").
        """
        return normalise(sum(best_of([getattr(rep, region) for rep in reps],
                                     name) for region in regions), cal)

    drives = [total(rep.drive) for rep in reps]
    host = {
        "host.cal_s": cal,
        "host.wall_over_cpu": statistics.median(
            rep.wall / rep.cpu for rep in reps),
        "host.rep_spread":
            (statistics.median(drives) - min(drives)) / min(drives),
        "host.import_s": import_s,
    }
    noisy = (host["host.rep_spread"] > NOISY_REP_SPREAD
             or host["host.wall_over_cpu"] > NOISY_WALL_OVER_CPU)

    if not args.trace:
        values = {
            "txn_per_s": txns / best("drive"),
            "checked_txn_per_s": txns / best("drive", "check"),
            "setup_s": normalise(min(rep.setup for rep in reps), cal),
            "peak_rss_mb": peak_rss_mb,
            "vt_goodput_tps": first.exact["vt_goodput_tps"],
            "vt_lag_mean_s": first.exact["vt_lag_mean_s"],
        }
        declared, dormant = END_TO_END, []
    else:
        values = {name: value for name, value in first.exact.items()
                  if name in PER_LAYER}
        values.update(host)
        # Per-layer host costs that are timed directly, profiler off:
        # the checkers and the sim-figures points are named segments.
        checkers = [name for name, _seconds in reps[0].check if name]
        for name in checkers:
            values[f"txn.checkers.{name}"] = best("check", name=name)
        if checkers:
            values["txn.checkers.verify_txn_per_s"] = txns / best("check")
        for name in (name for name, _seconds in reps[0].drive if name):
            values[f"simmodel.{name}.cpu_s"] = best("drive", name=name)
        traced = trace(workload, calibrator, first, reps)
        if traced is None:
            return 1
        values.update(traced)
        # A layer that is dormant on this workload reports zero.
        dormant = sorted(set(PER_LAYER) - set(values))
        values = {name: values.get(name, 0.0) for name in PER_LAYER}
        declared = PER_LAYER

    undeclared = [name for name in {**first.exact, **values}
                  if name not in END_TO_END and name not in PER_LAYER]
    if undeclared or set(values) != set(declared):
        print(f"FAILED: metrics differ from BENCHMARK.json: "
              f"{sorted(undeclared) or sorted(set(declared) ^ set(values))}")
        return 1

    print(f"reps {len(reps)}  attempted {first.attempted}  "
          f"failed {first.failed}  noisy {str(noisy).lower()}")
    for name, value in values.items():
        print(f"  {name:<44}{value:>16.6g} {declared[name]['unit']}")
    # What must repeat exactly for a seed: virtual-time results and counts.
    exact = sorted(name for name in values
                   if name in first.exact or name.endswith(".calls_per_txn"))
    print("DETAIL " + json.dumps({
        "workload": workload.name, "seed": args.seed, "noisy": noisy,
        "load_digest": workload.load_digest,
        "outcome_digest": first.digest, "exact": exact,
        "dormant": dormant}))
    print(json.dumps({
        "correct": True, "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in values.items()}}))
    return 0


def trace(workload, calibrator: Calibrator, first, reps: list):
    """Three passes under cProfile; per-layer metrics of the fastest.

    Writes ``out/trace-<workload>.json`` (layer table, entry-point
    table, overhead).  Returns None when the passes disagree on calls.
    """
    passes = []
    for index in range(TRACED_PASSES):
        profile = cProfile.Profile()
        rep = repetition(workload, calibrator, profile)
        seconds, calls, lookup = layers.attribute(profile.getstats())
        if rep.outcome.digest != first.digest:
            print("FAILED: traced pass changed the outcome")
            return None
        passes.append((rep, seconds, calls, lookup))
        print(f"traced pass {index + 1}: drive+check_cpu_s "
              f"{total(rep.drive + rep.check):.4f}  profile_s "
              f"{sum(seconds.values()):.4f}")
    if any(calls != passes[0][2] for _r, _s, calls, _l in passes):
        print("FAILED: calls per layer differ between traced passes")
        return None
    rep, seconds, calls, lookup = min(
        passes, key=lambda item: sum(item[1].values()))
    cal = calibrator.best()

    # Profile seconds are wall seconds under the hook; the same
    # calibration puts them on the reference host as well.
    def micros(cost: tuple) -> float:
        total_s, count = cost
        return normalise(total_s, cal) * 1e6 / count if count else 0.0

    txns = first.attempted
    profiled = sum(seconds.values())
    values = {}
    for layer in layers.LAYERS:
        values[f"{layer}.self_share"] = seconds[layer] / profiled
        values[f"{layer}.calls_per_txn"] = calls[layer] / txns
    entry_points = {}
    for name, targets in layers.ENTRY_POINTS.items():
        cost = layers.path_cost(lookup, targets)
        values[name] = micros(cost)
        entry_points[name] = {"calls": cost[1], "us_per_call": values[name]}

    # Per primary commit: what the propagator does as the log grows.
    _s, commits = lookup(layers.ENTRY_POINTS["core.sessions.update_us"][0])
    values["core.propagation.us_per_commit"] = micros(
        (layers.path_cost(lookup, layers.PROPAGATION_PATH)[0], commits))
    # Per refresh transaction at one secondary: begin, apply, commit.
    _s, refreshes = lookup(layers.REFRESH_APPLY_PATH[0])
    apply_us = values["core.refresh.apply_us_per_commit"] = micros(
        (layers.path_cost(lookup, layers.REFRESH_APPLY_PATH)[0], refreshes))
    # C5's "the backup keeps up", in host terms: above 1, one secondary
    # applies a commit faster than the primary executes it.
    values["core.refresh.keepup_ratio"] = (
        values["core.sessions.update_us"] / apply_us if apply_us else 0.0)
    events = first.exact["kernel.events_per_txn"] * txns
    values["kernel.us_per_event"] = micros((seconds["kernel"], events))
    values["host.trace_overhead"] = (
        total(rep.drive + rep.check)
        / min(total(r.drive + r.check) for r in reps))

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed,
        "layers": {layer: {"self_s": normalise(seconds[layer], cal),
                           "self_share": seconds[layer] / profiled,
                           "calls": calls[layer]}
                   for layer in layers.LAYERS},
        "entry_points": entry_points,
        "trace_overhead": values["host.trace_overhead"],
    }, indent=1) + "\n")
    return values


# ---------------------------------------------------------------------------
# Several workloads: one child process each
# ---------------------------------------------------------------------------

def child(args, workload: str, trace_flag: int):
    """Run one workload in a fresh child; return (result, detail)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace_flag)]
    if args.reps:
        command += ["--reps", str(args.reps)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode:
        return None, None
    lines = done.stdout.splitlines()
    detail = next(json.loads(line[len("DETAIL "):])
                  for line in reversed(lines) if line.startswith("DETAIL "))
    return json.loads(lines[-1]), detail


def run_set(args) -> dict | None:
    """Every workload once (traced as well when asked)."""
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace_flag in ((0, 1) if args.trace else (0,)):
            result, detail = child(args, workload, trace_flag)
            if result is None:
                print(f"FAILED: {workload} (trace {trace_flag})")
                return None
            results[workload, trace_flag] = (result, detail)
    return results


def selfcheck(args) -> int:
    """Two full sets back to back; exact metrics and digests must be
    equal, bounded metrics within their bounds."""
    args.trace = 1
    first = run_set(args)
    second = first and run_set(args)
    if not second:
        return 1
    bad = 0
    print(f"\n{'run':<22}{'metric':<42}{'first':>13}{'second':>13}"
          f"{'rule':>9}  verdict")
    for (workload, traced), (a, detail_a) in first.items():
        b, detail_b = second[workload, traced]
        label = workload + (" --trace" if traced else "")
        rows = [(name, detail_a[name], detail_b[name], "equal")
                for name in ("load_digest", "outcome_digest")]
        for name, metric in a["metrics"].items():
            x, y = metric["value"], b["metrics"][name]["value"]
            if name in detail_a["exact"]:
                rows.append((name, x, y, "equal"))
            elif name in END_TO_END:
                rows.append((name, x, y, END_TO_END[name]["bound"]))
        for name, x, y, rule in rows:
            if rule == "equal":
                ok = x == y
            else:
                worse = (y - x if END_TO_END[name]["better"] == "lower"
                         else x - y)
                ok = worse <= rule * x
            bad += not ok
            # Of the hundred-odd per-layer counts, print those that differ.
            if not ok or name in END_TO_END or name.endswith("digest"):
                shown = [v[:10] if isinstance(v, str) else f"{v:.6g}"
                         for v in (x, y)]
                print(f"{label:<22}{name:<42}{shown[0]:>13}{shown[1]:>13}"
                      f"{rule!s:>9}  {'ok' if ok else 'DIFFERS'}")
        if detail_a["noisy"] or detail_b["noisy"]:
            print(f"{label:<22}(a run was marked noisy)")
    print(f"selfcheck: {bad} metric(s) outside their rule")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="how long to keep measuring repetitions")
    parser.add_argument("--reps", type=int, default=0,
                        help="measure exactly this many repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="report per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the work, two repetitions")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke and not args.reps:
        args.reps = 2
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_workload(args)
    return 0 if run_set(args) else 1


if __name__ == "__main__":
    sys.exit(main())
