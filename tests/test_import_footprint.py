"""scipy (and the numpy under it) load only when a confidence interval is.

The Student-t quantile in :meth:`repro.sim.stats.SummaryStats.ci` is the
only use of scipy in the package, and importing it costs ~80 MB and
~1.3 s.  This test starts one fresh interpreter, imports the package's
main entry points, runs a short simulation and a small chaos schedule,
and checks that neither library was loaded; then it computes one
interval and checks that scipy arrived and gave the exact t half-width.
A module-level import of a heavy dependency anywhere on those paths
fails it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import math
import sys

import repro
import repro.evaluation.runner
import repro.faults.harness
import repro.simmodel
from repro.faults.harness import ChaosConfig, run_chaos
from repro.sim.stats import SummaryStats
from repro.simmodel import LazyReplicationModel, SimulationParameters


def heavy():
    return sorted(name for name in ("scipy", "numpy") if name in sys.modules)


params = SimulationParameters(num_sec=2, clients_per_secondary=3,
                              duration=60.0, warmup=10.0, seed=11)
assert LazyReplicationModel(params).run().completions() > 0
assert run_chaos(ChaosConfig(seed=0, ops=40, horizon=40.0)).ok
assert heavy() == [], f"loaded before any interval: {heavy()}"

stats = SummaryStats()
stats.extend([10.0, 12.0, 9.0, 11.0, 13.0])
try:
    stats.ci(confidence=1.5)
except ValueError:
    pass
else:
    raise AssertionError("confidence 1.5 accepted")
assert heavy() == [], f"a rejected confidence loaded {heavy()}"

ci = stats.ci()
assert "scipy" in sys.modules
import scipy.stats
expected = scipy.stats.t.ppf(0.975, 4) * math.sqrt(2.5) / math.sqrt(5)
assert ci.mean == 11.0 and ci.half_width == expected, (ci, expected)
print("ok")
"""


def test_scipy_loads_only_for_a_confidence_interval():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.strip() == "ok"
