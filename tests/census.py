#!/usr/bin/env python3
"""Line and function census of ``src/repro``: what runs, and under what.

Every driver below, then the tier-1 suite, runs in its own process under
a call-and-line ``sys.settrace`` hook (stdlib only; no ``coverage``).
The census then prints, per module, the executable lines and the
functions that the drivers run, that only the tests run, and that
nothing runs::

    python tests/census.py            # per-module table and totals
    python tests/census.py --list     # ... plus every test-only and
                                      # never-entered function
    python tests/census.py --check    # exit 1 unless the never-entered
                                      # functions are exactly ALLOWLIST

The hook is ``settrace``, not ``setprofile``: ``--profile`` and the
layered benchmark install cProfile, which takes over the profile hook.
Every Python process a driver starts is traced (a ``sitecustomize`` in a
temporary directory starts the hook), and each writes its hits at exit;
sweeps therefore run with ``--jobs 1``, because forked pool workers
skip ``atexit``.  Drivers run one at a time and take several minutes
under the hook.  Driver coverage of fault paths is sampled by seed: a
fault branch that only tests reach asks for a sweep shape, not a
deletion.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: The non-test runners: every example, the figure sweep and its
#: profile, every chaos CLI shape CI sweeps (at fewer seeds), the
#: layered benchmark and the benchmark suite.
DRIVERS = tuple(
    [f"examples/{example.name}"
     for example in sorted((REPO / "examples").glob("*.py"))]
    + ["-m repro.evaluation --figure 2 --scale small --jobs 1 --quiet "
       "--out {tmp}/figures",
       "-m repro.evaluation --profile --scale small --profile-top 10"]
    + [f"-m repro.faults --seeds {seeds} {flags}" for seeds, flags in (
        (4, ""),
        (4, "--primary-kill"),
        (4, "--partitions 2 --primary-kill --auto-failover"),
        (6, "--secondaries 2 --primary-kill --auto-failover --partitions 2"),
        (3, "--arrival diurnal"),
        (3, "--arrival flash-crowd"),
        (3, "--parallel-refresh 4"),
        (4, "--shards 8"),
        (4, "--shards 8 --primary-kill"),
        (4, "--shards 8 --primary-kill --auto-failover --partitions 2 "
            "--parallel-refresh 4 --refresh-apply-cost 0.01"),
        (2, "--shards 4 --secondaries 5 --partitions 2 --primary-kill "
            "--parallel-refresh 4 --ops 2000 --horizon 2000"),
        (4, "--overload"),
        (4, "--overload --primary-kill --auto-failover"),
        (3, "--overload --shed-policy reject-oldest"),
        (3, "--overload --shed-policy by-session-priority"),
    )]
    + ["benchmarks/layered/run.py --smoke",
       "-m pytest benchmarks -q -p no:cacheprovider --benchmark-disable "
       "--ignore=benchmarks/test_scale_huge.py "
       "--ignore=benchmarks/layered --ignore=benchmarks/test_paired.py"])

TESTS = "-m pytest tests -q -p no:cacheprovider"

#: Functions nothing runs, each kept on purpose.  Keys are
#: ``module:qualname``; a stale entry fails ``--check`` as well.
ALLOWLIST = {
    "repro.core.propagation:PropagationEndpoint.arrive":
        "Protocol stub; SecondarySite implements it",
    "repro.txn.checkers:_Monitor._promoted":
        "hook base; every monitor overrides it",
    "repro.txn.checkers:_Monitor._index":
        "hook base; every monitor overrides it",
    "repro.sim.resources:_QueuedServer._period":
        "hook base; both server disciplines override it",
    "repro.core.system:ReplicatedSystem.__repr__":
        "kept __repr__: the public entry object, for interactive use",
    "repro.storage.engine:Transaction.__repr__":
        "kept __repr__: the public transaction object",
    "repro.storage.engine:SIDatabase.__repr__":
        "kept __repr__: the public engine object",
    "repro.txn.timeline:IntervalSet.__repr__":
        "kept __repr__: hypothesis prints falsifying examples with it",
    "repro.workload.generator:ScaleReport.summary":
        "printed by benchmarks/test_scale_huge.py, which no driver runs",
}

_SITECUSTOMIZE = """\
import os
if os.environ.get("REPRO_CENSUS_OUT"):
    import importlib.util
    _spec = importlib.util.spec_from_file_location(
        "_repro_census", os.environ["REPRO_CENSUS_SCRIPT"])
    _census = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_census)
    _census.trace_into(os.environ["REPRO_CENSUS_OUT"])
"""


# ---------------------------------------------------------------------------
# Inside a traced process
# ---------------------------------------------------------------------------

def trace_into(out_dir: str) -> None:
    """Trace every ``src/repro`` call and line of this process; write the
    hits to ``out_dir/<pid>.json`` at exit."""
    prefix = str(PACKAGE) + os.sep
    inside: dict[str, bool] = {}
    calls: set[tuple] = set()
    lines: set[tuple] = set()
    add_call, add_line = calls.add, lines.add

    def local(frame, event, arg):
        add_line((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        hit = inside.get(name)
        if hit is None:
            hit = inside[name] = name.startswith(prefix)
        if not hit:
            return None
        add_call((name, code.co_firstlineno, code.co_name))
        return local

    def dump() -> None:
        sys.settrace(None)
        by_file: dict[str, list[int]] = {}
        for name, line in lines:
            by_file.setdefault(name, []).append(line)
        path = Path(out_dir, f"{os.getpid()}-{time.time_ns()}.json")
        path.write_text(json.dumps(
            {"lines": by_file, "calls": sorted(calls)}))

    atexit.register(dump)
    threading.settrace(hook)
    sys.settrace(hook)


def run_traced(command: str, out_dir: Path, tmp: Path) -> float:
    """Run one ``python`` command line with every process traced."""
    env = dict(os.environ, REPRO_CENSUS_OUT=str(out_dir),
               REPRO_CENSUS_SCRIPT=str(Path(__file__).resolve()),
               REPRO_BENCH_JOBS="1",
               PYTHONPATH=os.pathsep.join([str(tmp), str(SRC)]))
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *command.format(tmp=tmp).split()],
                          cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"census: driver failed ({done.returncode}): "
                         f"{command}")
    return time.perf_counter() - start


def merge(out_dir: Path) -> tuple[dict[str, set[int]], set[tuple]]:
    """Union of every traced process's hits under ``out_dir``."""
    lines: dict[str, set[int]] = {}
    calls: set[tuple] = set()
    for path in out_dir.glob("*.json"):
        hits = json.loads(path.read_text())
        for name, numbers in hits["lines"].items():
            lines.setdefault(name, set()).update(numbers)
        calls.update(tuple(call) for call in hits["calls"])
    return lines, calls


# ---------------------------------------------------------------------------
# What could run: executable lines and functions, from the bytecode
# ---------------------------------------------------------------------------

_CO_OPTIMIZED = 0x1


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _code_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def inventory() -> dict[str, tuple[set[int], dict[tuple, set[int]]]]:
    """Per source file: its executable lines, and each named function's
    body lines keyed by ``(firstlineno, name, qualname)``."""
    files = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        executable: set[int] = set()
        functions: dict[tuple, set[int]] = {}
        for code in _code_objects(module):
            body = _code_lines(code)
            if code.co_flags & _CO_OPTIMIZED:
                body.discard(code.co_firstlineno)
                if not code.co_name.startswith("<"):
                    qualname = getattr(code, "co_qualname", code.co_name)
                    functions[code.co_firstlineno, code.co_name,
                              qualname] = body
            executable |= body
        files[str(path)] = (executable, functions)
    return files


def _module(path: str) -> str:
    relative = Path(path).relative_to(SRC).with_suffix("")
    parts = relative.parts[:-1] if relative.name == "__init__" \
        else relative.parts
    return ".".join(parts)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def census(driver_dir: Path, test_dir: Path) -> dict:
    """Classify every line and function: drivers, tests only, nothing."""
    driver_lines, driver_calls = merge(driver_dir)
    test_lines, test_calls = merge(test_dir)
    rows = {}
    for path, (executable, functions) in inventory().items():
        by_driver = executable & driver_lines.get(path, set())
        by_test = executable & test_lines.get(path, set())
        row = {"lines": (len(by_driver), len(by_test - by_driver),
                         len(executable - by_driver - by_test)),
               "driver": [], "test": [], "none": []}
        for (first, name, qualname), body in functions.items():
            key = (path, first, name)
            kind = ("driver" if key in driver_calls
                    else "test" if key in test_calls else "none")
            row[kind].append((first, qualname, len(body)))
        rows[_module(path)] = row
    return rows


def report(rows: dict, listing: bool) -> None:
    print(f"{'module':<32}{'lines: drivers':>15}{'tests only':>11}"
          f"{'none':>6}{'funcs: drivers':>16}{'tests only':>11}{'none':>6}")
    total = [0] * 6
    for module, row in sorted(rows.items()):
        counts = [*row["lines"], len(row["driver"]), len(row["test"]),
                  len(row["none"])]
        total = [a + b for a, b in zip(total, counts)]
        print(f"{module:<32}{counts[0]:>15}{counts[1]:>11}{counts[2]:>6}"
              f"{counts[3]:>16}{counts[4]:>11}{counts[5]:>6}")
    print(f"{'total':<32}{total[0]:>15}{total[1]:>11}{total[2]:>6}"
          f"{total[3]:>16}{total[4]:>11}{total[5]:>6}")
    for kind, label in (("test", "entered only by tests"),
                        ("none", "entered by nothing")):
        found = [(module, *function) for module, row in sorted(rows.items())
                 for function in sorted(row[kind])]
        body = sum(function[3] for function in found)
        print(f"\n{len(found)} functions ({body} body lines) {label}")
        if listing or kind == "none":
            for module, first, qualname, size in found:
                print(f"  {module}:{qualname}  (line {first}, {size} lines)")


def check(rows: dict) -> int:
    """Exit status: 1 unless the never-entered functions are ALLOWLIST."""
    never = {f"{module}:{qualname}" for module, row in rows.items()
             for _, qualname, _ in row["none"]}
    missing = sorted(never - ALLOWLIST.keys())
    stale = sorted(ALLOWLIST.keys() - never)
    for name in missing:
        print(f"census: nothing enters {name} (delete it, run it, or "
              f"allowlist it with a reason)")
    for name in stale:
        print(f"census: allowlisted {name} is entered or gone; drop it")
    return 1 if missing or stale else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail unless every never-entered function is "
                             "allowlisted (and every entry still is one)")
    parser.add_argument("--list", action="store_true",
                        help="also list every test-only function")
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="repro-census-"))
    try:
        (tmp / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        for phase, commands in (("drivers", DRIVERS), ("tests", (TESTS,))):
            for command in commands:
                seconds = run_traced(command, tmp / phase, tmp)
                print(f"[{seconds:6.1f} s] {command.format(tmp='…')}",
                      flush=True)
        rows = census(tmp / "drivers", tmp / "tests")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print()
    report(rows, args.list)
    return check(rows) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
