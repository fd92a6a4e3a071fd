"""Checks on the layered benchmark itself, at ``--smoke`` scale.

Not part of tier-1 (``testpaths`` is ``tests``); run it with

    PYTHONPATH=src python -m pytest benchmarks/layered/test_layered.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers                                    # noqa: E402
from run import SMOKE_SCALE                      # noqa: E402

sys.path.insert(0, str(layers.SRC))

import workloads                                 # noqa: E402

SPEC = json.loads((layers.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke_runs():
    """(workload, trace) -> (result line, DETAIL line) of a smoke run."""
    runs = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", "17", "--smoke", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180)
            assert done.returncode == 0, done.stdout + done.stderr
            lines = done.stdout.splitlines()
            detail = next(line for line in reversed(lines)
                          if line.startswith("DETAIL "))
            runs[workload, trace] = (json.loads(lines[-1]),
                                     json.loads(detail[len("DETAIL "):]))
    return runs


def test_layer_map_covers_every_module():
    on_disk = {str(path) for path in layers.PACKAGE.rglob("*.py")}
    mapped = set(layers.LAYER_OF)
    assert on_disk - mapped == set(), "modules with no layer"
    assert mapped - on_disk == set(), "layer map names missing modules"
    assert sum(len(m) for m in layers.LAYER_MODULES.values()) == len(mapped)


def test_names_are_well_formed_and_unique():
    names = (WORKLOAD_NAMES
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_workloads_match_the_declaration():
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)


def test_emitted_metrics_equal_declared(smoke_runs):
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for (workload, trace), (result, _detail) in smoke_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        emitted = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        assert emitted == declared[trace], (workload, trace)
    # Every declared per-layer metric is computed by some workload, not
    # merely zero-filled everywhere.
    dormant = [set(detail["dormant"])
               for (_w, trace), (_r, detail) in smoke_runs.items() if trace]
    assert set.intersection(*dormant) == set()


def test_end_to_end_metrics_are_never_zero(smoke_runs):
    for (workload, trace), (result, _detail) in smoke_runs.items():
        if not trace:
            for name, metric in result["metrics"].items():
                assert metric["value"] > 0, (workload, name)


def test_layer_shares_sum_to_one(smoke_runs):
    for (workload, trace), (result, _detail) in smoke_runs.items():
        if trace:
            shares = [metric["value"]
                      for name, metric in result["metrics"].items()
                      if name.endswith(".self_share")]
            assert len(shares) == len(layers.LAYERS)
            assert abs(sum(shares) - 1.0) < 1e-6, workload
            table = json.loads(
                (BENCH_DIR / "out" / f"trace-{workload}.json").read_text())
            assert abs(sum(row["self_share"]
                           for row in table["layers"].values()) - 1.0) < 1e-6


def test_scan_free_workloads_never_scan(smoke_runs):
    for workload in ("update-fanout", "chaos-compose", "sim-figures"):
        metrics = smoke_runs[workload, 1][0]["metrics"]
        assert metrics["storage.engine.scan_us"]["value"] == 0
    assert smoke_runs["read-scan", 1][0]["metrics"][
        "storage.engine.scan_us"]["value"] > 0


def test_load_digest_is_stable_per_seed(smoke_runs):
    digests = {}
    for seed in (17, 29):
        for name, cls in workloads.WORKLOADS.items():
            digest = cls(seed, SMOKE_SCALE).load_digest
            assert digest == cls(seed, SMOKE_SCALE).load_digest
            digests[name, seed] = digest
    for name in workloads.WORKLOADS:
        assert digests[name, 17] != digests[name, 29]
        # ... and the same in another process (another hash seed).
        assert smoke_runs[name, 0][1]["load_digest"] == digests[name, 17]
