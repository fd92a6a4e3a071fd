"""Command-line entry point: regenerate the paper's figures.

Examples::

    python -m repro.evaluation                         # all figures, quick
    python -m repro.evaluation --figure 2 --scale full
    python -m repro.evaluation --figure 5 6 7 --out results/
    python -m repro.evaluation --figure 2 --scale full --jobs 8
    python -m repro.evaluation --profile --scale small # hot-path tables
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from repro.simmodel.params import TABLE_1_DEFAULTS
from repro.evaluation.figures import ALL_FIGURES, SCALES, SweepSpec
from repro.evaluation.parallel import ParallelSweepExecutor, default_jobs
from repro.evaluation.runner import (
    ascii_chart,
    check_figure_shape,
    figure_series,
    figure_table,
    run_sweep,
    write_csv,
)


def _print_table_1() -> None:
    print("Table 1: Simulation Model Parameters (defaults)")
    relevant = ("num_sec", "clients_per_secondary", "think_time",
                "session_time", "update_tran_prob", "abort_prob",
                "tran_size_min", "tran_size_max", "op_service_time",
                "update_op_prob", "propagation_delay", "time_slice")
    for f in fields(TABLE_1_DEFAULTS):
        if f.name in relevant:
            print(f"  {f.name:<24} {getattr(TABLE_1_DEFAULTS, f.name)}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the figures of Daudjee & Salem (VLDB 2006)")
    parser.add_argument("--figure", nargs="*", default=["all"],
                        help="figure numbers (2-8) or 'all'")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick",
                        help="fidelity preset (default: quick)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for CSV output")
    parser.add_argument("--chart", action="store_true",
                        help="also print ASCII charts")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for sweep execution "
                             "(default: all cores; 1 = serial inline)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one run_once per algorithm at "
                             "--scale and print the hottest functions")
    parser.add_argument("--profile-top", type=int, default=20,
                        help="rows per profile table (default: 20)")
    args = parser.parse_args(argv)

    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)

    if args.profile:
        from repro.evaluation.bench import run_profile
        return run_profile(scale=args.scale, seed=args.seed,
                           top=args.profile_top)

    wanted = (list(ALL_FIGURES) if "all" in args.figure
              else [str(f) for f in args.figure])
    unknown = [f for f in wanted if f not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {unknown}; choose from "
                     f"{sorted(ALL_FIGURES)}")
    scale = SCALES[args.scale]

    _print_table_1()
    print(f"Scale {scale.name!r}: {scale.duration / 60:.0f} min runs, "
          f"{scale.warmup / 60:.0f} min warm-up, "
          f"{scale.replications} replication(s), {jobs} job(s)\n")

    # Group requested figures by their shared sweep so each runs once.
    sweeps: dict[str, SweepSpec] = {}
    for fig_id in wanted:
        sweep = ALL_FIGURES[fig_id].sweep
        sweeps.setdefault(sweep.key, sweep)

    executor = ParallelSweepExecutor(jobs=jobs)
    progress = None if args.quiet else print
    all_problems: list[str] = []
    for sweep in sweeps.values():
        started = time.time()
        print(f"Running sweep {sweep.key}: {sweep.description}")
        sweep_result = run_sweep(sweep, scale, seed=args.seed,
                                 progress=progress, executor=executor)
        elapsed = time.time() - started
        print(f"  done in {elapsed:.1f}s wall clock\n")
        for fig_id in wanted:
            spec = ALL_FIGURES[fig_id]
            if spec.sweep.key != sweep.key:
                continue
            series = figure_series(spec, sweep_result)
            print(figure_table(series))
            print(f"  expectation: {spec.expectation}")
            problems = check_figure_shape(series)
            if problems:
                print("  SHAPE CHECK: FAILED")
                for problem in problems:
                    print(f"    - {problem}")
                all_problems.extend(problems)
            else:
                print("  SHAPE CHECK: OK (matches Section 6.2)")
            if args.chart:
                print(ascii_chart(series))
            if args.out is not None:
                path = args.out / f"figure_{fig_id}.csv"
                write_csv(series, path)
                print(f"  wrote {path}")
            print()
    if all_problems:
        print(f"{len(all_problems)} shape check problem(s)")
        return 1
    print("All requested figures match the paper's qualitative shapes.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
