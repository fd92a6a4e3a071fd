"""Layer map and profile attribution.

A *layer* is a group of source modules.  Every ``.py`` under
``src/repro`` is assigned to a layer by name here — none by a directory
rule — so a new module fails ``test_layered.py`` until someone decides
where its time belongs, instead of sliding silently into ``driver``.

:func:`attribute` folds one ``cProfile`` pass into two tables: self time
and calls per layer (shares sum to 1), and cumulative time per call for
the named entry points of each layer.
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

LAYER_MODULES = {
    "kernel": ("kernel/__init__.py", "kernel/loop.py", "kernel/sync.py"),
    "storage.engine": (
        "storage/__init__.py", "storage/engine.py", "storage/versions.py",
        "storage/snapshot.py", "storage/predicate.py", "storage/tables.py"),
    "storage.wal": ("storage/wal.py",),
    "txn.history": ("txn/__init__.py", "txn/history.py", "txn/ids.py",
                    "txn/histgen.py"),
    "txn.checkers": ("txn/checkers.py", "txn/timeline.py",
                     "txn/phenomena.py"),
    "core.propagation": ("core/propagation.py", "core/records.py"),
    "core.refresh": ("core/refresh.py",),
    "core.sessions": (
        "core/__init__.py", "core/system.py", "core/sessions.py",
        "core/site.py", "core/guarantees.py", "core/admission.py",
        "core/backoff.py", "core/monitoring.py", "core/autovacuum.py"),
    "core.sharding": ("core/sharding.py",),
    "core.failover": ("core/failover.py", "core/promotion.py"),
    "faults": ("faults/__init__.py", "faults/__main__.py",
               "faults/channel.py", "faults/harness.py", "faults/plan.py"),
    "sim": ("sim/__init__.py", "sim/resources.py", "sim/rng.py",
            "sim/stats.py"),
    "simmodel": ("simmodel/__init__.py", "simmodel/experiment.py",
                 "simmodel/model.py", "simmodel/params.py"),
    # Benchmark code and everything outside ``repro`` lands here too.
    "driver": (
        "__init__.py", "errors.py",
        "workload/__init__.py", "workload/generator.py", "workload/tpcw.py",
        "workload/tpcw_tables.py",
        "evaluation/__init__.py", "evaluation/__main__.py",
        "evaluation/bench.py", "evaluation/figures.py",
        "evaluation/parallel.py", "evaluation/runner.py"),
}

LAYERS = tuple(LAYER_MODULES)

LAYER_OF = {str(PACKAGE / module): layer
            for layer, modules in LAYER_MODULES.items()
            for module in modules}

#: Entry points of each layer: metric -> functions whose cumulative time
#: and calls are summed, as ``(module, qualified name)`` or, for a call
#: edge, ``(module, caller, callee module, callee)``.
ENTRY_POINTS = {
    "storage.engine.read_us": [("storage/engine.py", "Transaction.read")],
    "storage.engine.scan_us": [("storage/engine.py", "Transaction.scan")],
    "storage.engine.write_us": [("storage/engine.py", "Transaction.write")],
    "storage.engine.commit_us": [("storage/engine.py", "Transaction.commit")],
    "storage.engine.begin_us": [("storage/engine.py", "SIDatabase.begin")],
    # A refresh commit is Transaction.commit behind _commit_refresh in
    # the FIFO modes and commit_refresh_at straight from the worker in
    # parallel mode; both are "the refresh transaction commits".
    "storage.engine.refresh_commit_us": [
        ("core/refresh.py", "Refresher._commit_refresh"),
        ("core/refresh.py", "Refresher._parallel_worker",
         "storage/engine.py", "SIDatabase.commit_refresh_at")],
    "storage.wal.append_us": [
        ("storage/wal.py", "LogicalLog.append_start"),
        ("storage/wal.py", "LogicalLog.append_update"),
        ("storage/wal.py", "LogicalLog.append_commit"),
        ("storage/wal.py", "LogicalLog.append_abort")],
    "txn.history.record_us": [("txn/history.py", "HistoryRecorder.record")],
    "core.sessions.update_us": [
        ("core/system.py", "ClientSession.execute_update")],
    "core.sessions.read_us": [
        ("core/system.py", "ClientSession.execute_read_only")],
}

#: Summed cumulative time, divided by a count the workload supplies.
PROPAGATION_PATH = [("core/propagation.py", "Propagator._on_log_record"),
                    ("core/propagation.py", "Propagator._flush_batch")]
REFRESH_APPLY_PATH = [
    ("core/refresh.py", "Refresher._begin_refresh"),
    ("storage/engine.py", "Transaction.apply_update_records"),
    *ENTRY_POINTS["storage.engine.refresh_commit_us"]]


def _key(code) -> tuple:
    return (code.co_filename, code.co_qualname)


def attribute(stats: list) -> tuple:
    """Fold ``cProfile.Profile.getstats()`` into per-layer tables.

    Returns ``(seconds, calls, lookup)``: self seconds and Python calls
    per layer, and ``lookup(target) -> (cumulative seconds, calls)`` for
    an :data:`ENTRY_POINTS`-style target.

    Self time goes to the layer that owns the frame.  Builtins and code
    with no source module of its own (dataclass-generated methods, the
    standard library) are charged to whoever called them, through the
    profile's caller edges, transitively; what no layer called (the
    profiler's own enable/disable) is the driver's.
    """
    owned = {}           # entry -> layer, for frames a layer owns
    foreign = {}         # code (str or code object) -> entry
    for entry in stats:
        code = entry.code
        layer = None
        if not isinstance(code, str):
            layer = LAYER_OF.get(code.co_filename)
            if layer is None and code.co_filename.startswith(
                    str(BENCH_DIR)):
                layer = "driver"
        if layer is None:
            foreign[code] = entry
        else:
            owned[id(entry)] = layer

    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    # inbound[callee] = [(caller entry, self seconds of callee on that
    # edge, calls on that edge)]
    inbound: dict = {}
    for entry in stats:
        layer = owned.get(id(entry))
        if layer is not None:
            seconds[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for edge in entry.calls or ():
            if edge.code in foreign:
                inbound.setdefault(edge.code, []).append(
                    (entry, edge.inlinetime, edge.callcount))

    memo: dict = {}

    def owners(code, trail: frozenset) -> dict:
        """Layer -> fraction of a foreign function's self time."""
        if code in memo:
            return memo[code]
        edges = inbound.get(code, ())
        weights = [edge_s for _caller, edge_s, _n in edges]
        if not any(weights):
            weights = [n for _caller, _s, n in edges]
        total = sum(weights)
        shares: dict = {}
        for (caller, _s, _n), weight in zip(edges, weights):
            if not weight:
                continue
            fraction = weight / total
            layer = owned.get(id(caller))
            if layer is not None:
                shares[layer] = shares.get(layer, 0.0) + fraction
            elif caller.code not in trail:
                for up, part in owners(caller.code,
                                       trail | {code}).items():
                    shares[up] = shares.get(up, 0.0) + fraction * part
        # Whatever found no owning caller (top-level or cyclic).
        shares["driver"] = (shares.get("driver", 0.0)
                            + max(0.0, 1.0 - sum(shares.values())))
        if not trail:
            memo[code] = shares
        return shares

    for code, entry in foreign.items():
        if entry.inlinetime:
            for layer, fraction in owners(code, frozenset()).items():
                seconds[layer] += entry.inlinetime * fraction

    by_key = {_key(e.code): e for e in stats if not isinstance(e.code, str)}

    def lookup(target: tuple) -> tuple:
        entry = by_key.get((str(PACKAGE / target[0]), target[1]))
        if entry is None:
            return 0.0, 0
        if len(target) == 2:
            return entry.totaltime, entry.callcount
        callee = (str(PACKAGE / target[2]), target[3])
        for edge in entry.calls or ():
            if not isinstance(edge.code, str) and _key(edge.code) == callee:
                return edge.totaltime, edge.callcount
        return 0.0, 0

    return seconds, calls, lookup


def path_cost(lookup, targets: list) -> tuple:
    """Summed ``(cumulative seconds, calls)`` over several targets."""
    pairs = [lookup(target) for target in targets]
    return sum(s for s, _n in pairs), sum(n for _s, n in pairs)
