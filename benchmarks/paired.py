#!/usr/bin/env python3
"""Paired runs of the layered benchmark on two checkouts.

    python3 benchmarks/paired.py PARENT_DIR CHANGE_DIR --workload W
        [--seed S] [--pairs N]

Runs ``benchmarks/layered/run.py --workload W --seed S`` of each checkout
N times, alternating which side goes first, prints every run made, and
then, per end-to-end metric of the parent's ``BENCHMARK.json``: each
side's median and quartiles, the pairs the change won (ties count for
neither), and whether the medians differ by more than the distance
between the parent's quartiles.  A gain may be claimed when the change
wins at least nine tenths of the pairs *and* the medians are resolved
(the choosing-metrics guide, section 8); the run length is the
benchmark's own on both sides.

The two directories must have paths of equal length: a parent in
``/root/scratch/parent`` against a change in ``/root/repo`` once read a
steady -2 % on workloads that executed no changed code, and it vanished
from sibling directories (``/root/scratch/parent``,
``/root/scratch/change``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = Path("benchmarks") / "layered" / "run.py"
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list, change: list, better: str) -> dict:
    """Summarise paired values of one metric (``better``: higher/lower)."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    resolved = abs(c_median - p_median) > p_q3 - p_q1
    improved = sign * (c_median - p_median) > 0
    return {
        "parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
        "ratio": c_median / p_median if p_median else float("nan"),
        "won": won, "lost": lost, "pairs": len(parent),
        "resolved": resolved,
        "verdict": ("unresolved" if not resolved
                    else "worse" if not improved
                    else "gain" if won >= WIN_SHARE * len(parent)
                    else "better, too few pairs won"),
    }


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``checkout``; its metrics, digest and failures."""
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{checkout}: {workload} failed")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("DETAIL "):])
                  for line in reversed(lines) if line.startswith("DETAIL "))
    return {"metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()},
            "digest": detail["outcome_digest"],
            "failed": result["failed"], "attempted": result["attempted"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        parser.error(
            f"{sides['parent']} and {sides['change']} differ in path "
            f"length, which alone has read as a 2 % difference; use "
            f"sibling directories of equal length")
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args.workload, args.seed)
            runs[side].append(run)
            shown = "  ".join(f"{name} {value:.6g}"
                              for name, value in run["metrics"].items())
            print(f"pair {pair + 1} {side:<6} {shown}  failed "
                  f"{run['failed']}/{run['attempted']}  "
                  f"digest {run['digest'][:12]}", flush=True)

    print(f"\n{args.workload}  seed {args.seed}  {args.pairs} pairs")
    print(f"{'metric':<20}{'parent q1/median/q3':>36}"
          f"{'change q1/median/q3':>36}{'ratio':>8}{'won':>7}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = compare([run["metrics"][name] for run in runs["parent"]],
                      [run["metrics"][name] for run in runs["change"]],
                      metric["better"])
        spans = ["/".join(f"{value:.5g}" for value in row[side])
                 for side in ("parent", "change")]
        print(f"{name:<20}{spans[0]:>36}{spans[1]:>36}{row['ratio']:>8.3f}"
              f"{row['won']:>4}/{row['pairs']:<2}  {row['verdict']}")
    digests = {run["digest"] for side in runs.values() for run in side}
    failed = {side: max(run["failed"] / run["attempted"] for run in side_runs)
              for side, side_runs in runs.items()}
    print(f"outcome_digest {'identical' if len(digests) == 1 else 'DIFFERS'}"
          f" across all {2 * args.pairs} runs; failed share parent "
          f"{failed['parent']:.4g} change {failed['change']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
