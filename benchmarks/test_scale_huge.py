"""The ``huge`` workload preset: a >=100k-concurrent-session run.

The scale-up acceptance for the session driver and the kernel event
queue under it: the driver must push one hundred thousand concurrent
bookstore sessions (flash-crowd arrivals, zipfian-hot keys) through the
functional replicated system inside the CI time budget, and the recorded
history must still satisfy all three formal checkers.

Under ``-s`` it prints each checker's process time and the peak RSS
before and after the checks — numbers to look at, not to cite (the
layered benchmark is the one to cite).
"""

import resource
from time import perf_counter, process_time

from repro.core.system import ReplicatedSystem
from repro.txn import check_completeness, check_strong_session_si, check_weak_si
from repro.workload import SCALE_PRESETS, run_scale_workload

#: Hard wall-clock budget for the run plus the three checker passes.
#: A typical container finishes in ~a quarter of this.
BUDGET_SECONDS = 420.0


def peak_rss_mb() -> float:
    """The process's peak resident set so far (``ru_maxrss`` is in KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_huge_preset_under_ci_budget_with_checkers():
    preset = SCALE_PRESETS["huge"]
    system = ReplicatedSystem(num_secondaries=preset.num_secondaries,
                              batch_interval=preset.batch_interval)
    started = perf_counter()
    report = run_scale_workload(preset, seed=17, system=system)
    assert report.sessions >= 100_000
    assert report.peak_concurrent >= 100_000
    assert report.transactions == preset.sessions * preset.txns_per_session
    rss_before = peak_rss_mb()
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        check_started = process_time()
        result = check(system.recorder)
        print(f"{check.__name__}: {process_time() - check_started:.2f} s "
              f"process time")
        assert result.ok, check.__name__
    print(f"peak RSS: {rss_before:.0f} MB before the checks, "
          f"{peak_rss_mb():.0f} MB after")
    elapsed = perf_counter() - started
    assert elapsed < BUDGET_SECONDS, (
        f"huge run + checkers took {elapsed:.0f}s "
        f"(budget {BUDGET_SECONDS:.0f}s)")
    print(report.summary())
