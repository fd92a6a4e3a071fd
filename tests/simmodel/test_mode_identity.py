"""Every simulator mode against goldens recorded before the event graph.

``golden_modes.json`` was written at the commit where clients and the
serial / parallel refresh modes were still kernel processes.  Each cell
is one ``(mode, algorithm)`` run of ``TINY``; every observable of the
run is compared with ``==`` (floats through ``float.hex``), so a change
to how the simulator schedules its work may move event counts but not a
single completion instant.  Re-record a cell only with the mechanism
that moved it written down in ``CHANGES.md``::

    PYTHONPATH=src python -m tests.simmodel.test_mode_identity

which prints, for every re-recorded cell, each field it moved.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.evaluation.figures import ALGORITHMS
from repro.simmodel.experiment import summarize
from repro.simmodel.model import LazyReplicationModel
from tests.simmodel.test_determinism import TINY

GOLDEN = Path(__file__).with_name("golden_modes.json")

MODES = {
    "default": {},
    "serial": {"serial_refresh": True},
    "fifo": {"server_discipline": "fifo"},
    "rr": {"server_discipline": "rr"},
    "per-op": {"per_op_requests": True},
    "freshness2": {"freshness_bound": 2},
    # TINY is nearly idle (one abort in a hundred, servers ~10 % busy):
    # these cells put the abort retry, server sharing and the queued
    # disciplines' refresh paths under real contention.
    "aborts": {"abort_prob": 0.3},
    "loaded": {"clients_per_secondary": 30, "think_time": 1.5},
    "loaded-serial": {"clients_per_secondary": 30, "think_time": 1.5,
                      "serial_refresh": True, "abort_prob": 0.2},
    "loaded-fifo": {"clients_per_secondary": 30, "think_time": 1.5,
                    "server_discipline": "fifo", "abort_prob": 0.2},
    "loaded-rr": {"clients_per_secondary": 30, "think_time": 1.5,
                  "server_discipline": "rr", "time_slice": 0.005,
                  "abort_prob": 0.2},
    "rr-per-op-aborts": {"server_discipline": "rr", "per_op_requests": True,
                         "abort_prob": 0.3, "time_slice": 0.01},
    "fifo-serial": {"server_discipline": "fifo", "serial_refresh": True},
}

CELLS = [(mode, algorithm) for mode in MODES for algorithm in ALGORITHMS]


def _plain(value):
    return value.hex() if isinstance(value, float) else value


def observe(mode: str, algorithm) -> dict:
    """Everything a run of one cell exposes, as JSON-comparable values."""
    params = TINY.with_(algorithm=algorithm, **MODES[mode])
    model = LazyReplicationModel(params, seed=TINY.seed)
    model.run()
    result = dataclasses.asdict(summarize(model))
    del result["params"]
    counters = dataclasses.asdict(model.counters)
    counters["max_pending"] = sorted(counters["max_pending"].items())
    return {
        "result": {name: _plain(value) for name, value in result.items()},
        "counters": json.loads(json.dumps(counters)),
        "secondaries": [[s.refreshes_applied, s.seq_db, s.out_of_order_commits]
                        for s in model.secondaries],
    }


def _cell_id(mode: str, algorithm) -> str:
    return f"{mode}/{algorithm.value}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode,algorithm", CELLS,
                         ids=[_cell_id(*cell) for cell in CELLS])
def test_cell_matches_golden(golden, mode, algorithm):
    assert observe(mode, algorithm) == golden[_cell_id(mode, algorithm)]


def test_golden_covers_exactly_the_cells(golden):
    assert sorted(golden) == sorted(_cell_id(*cell) for cell in CELLS)


def moved_fields(old: dict, new: dict) -> list[str]:
    """``part.field: old -> new`` for every observable that differs."""
    moved = []
    for part in sorted(set(old) | set(new)):
        before, after = old.get(part), new.get(part)
        if isinstance(before, dict) and isinstance(after, dict):
            moved += [f"{part}.{name}: {before.get(name)} -> "
                      f"{after.get(name)}"
                      for name in sorted(set(before) | set(after))
                      if before.get(name) != after.get(name)]
        elif before != after:
            moved.append(f"{part}: {before} -> {after}")
    return moved


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    observed = {_cell_id(*cell): observe(*cell) for cell in CELLS}
    # One cell per line, so a re-recorded cell is a one-line diff.
    cells = ",\n".join(f" {json.dumps(cell)}: "
                       f"{json.dumps(value, sort_keys=True)}"
                       for cell, value in observed.items())
    GOLDEN.write_text("{\n" + cells + "\n}\n")
    for cell, value in observed.items():
        moved = moved_fields(old.get(cell, {}), value)
        if moved:
            print(f"{cell}: " + "; ".join(moved))
    print(f"recorded {len(CELLS)} cells in {GOLDEN}")
