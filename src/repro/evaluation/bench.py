"""``python -m repro.evaluation --profile``: where a simulation run's time goes.

Performance itself is measured by ``benchmarks/layered/`` (see
``BENCHMARK.json``); this module only prints cProfile tables.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

from repro.errors import ConfigurationError
from repro.evaluation.figures import ALGORITHMS, ALL_FIGURES, SCALES
from repro.simmodel.experiment import run_once

#: Representative Figure 2 point profiled per algorithm (100 clients on
#: the 5-secondary 80/20 clients sweep — mid-load, past the warm-up knee).
PROFILE_X = 100


def run_profile(scale: str = "quick", seed: int = 42, top: int = 20) -> int:
    """cProfile one ``run_once`` per algorithm at the ``scale`` preset and
    print the top functions by internal time and by cumulative time."""
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    scale_obj = SCALES[scale]
    spec = ALL_FIGURES["2"]
    profiler = cProfile.Profile()
    for algorithm in ALGORITHMS:
        params = spec.sweep.params_for(PROFILE_X, algorithm, scale_obj,
                                       seed=seed)
        profiler.enable()
        run_once(params, seed=seed)
        profiler.disable()
    print(f"cProfile over one run_once per algorithm "
          f"(figure 2, x={PROFILE_X}, scale {scale_obj.name!r})")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    print(f"\n== top {top} by internal time ==")
    stats.sort_stats("tottime").print_stats(top)
    print(f"== top {top} by cumulative time ==")
    stats.sort_stats("cumulative").print_stats(top)
    return 0
