"""The ``huge`` workload preset: a >=100k-concurrent-session run.

The scale-up acceptance for the session driver and the kernel event
queue under it: the driver must push one hundred thousand concurrent
bookstore sessions (flash-crowd arrivals, zipfian-hot keys) through the
functional replicated system inside the CI time budget, and the recorded
history must still satisfy all three formal checkers.
"""

from time import perf_counter

from repro.core.system import ReplicatedSystem
from repro.txn import check_completeness, check_strong_session_si, check_weak_si
from repro.workload import SCALE_PRESETS, run_scale_workload

#: Hard wall-clock budget for the run plus the three checker passes.
#: A typical container finishes in ~a quarter of this.
BUDGET_SECONDS = 420.0


def test_huge_preset_under_ci_budget_with_checkers():
    preset = SCALE_PRESETS["huge"]
    system = ReplicatedSystem(num_secondaries=preset.num_secondaries,
                              batch_interval=preset.batch_interval)
    started = perf_counter()
    report = run_scale_workload(preset, seed=17, system=system)
    assert report.sessions >= 100_000
    assert report.peak_concurrent >= 100_000
    assert report.transactions == preset.sessions * preset.txns_per_session
    for check in (check_completeness, check_weak_si,
                  check_strong_session_si):
        assert check(system.recorder).ok, check.__name__
    elapsed = perf_counter() - started
    assert elapsed < BUDGET_SECONDS, (
        f"huge run + checkers took {elapsed:.0f}s "
        f"(budget {BUDGET_SECONDS:.0f}s)")
    print(report.summary())
