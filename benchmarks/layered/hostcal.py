"""Host calibration: turn process-CPU seconds into reference-host seconds.

Wall time on a shared VM includes the neighbours' steal and raw CPU time
drifts with frequency and cache pressure, so every host-cost metric of
the benchmark is process-CPU time divided by the time of a fixed
pure-Python loop run right next to it (see README, "Normalisation").
"""

from __future__ import annotations

import heapq
import time

#: What one calibration slice costs on the reference host (the 2-vCPU VM
#: the first baseline was taken on, quiet period).  A constant, so that
#: normalised numbers read as seconds on that host.
CAL_REF_S = 0.030

#: Objects in the calibration set: ~36 MB of small dicts, tuples, lists
#: and strings, far beyond L2, so the loop pays the same cache misses the
#: workloads pay when they walk version chains and history events.
_SET_SIZE = 24_000
_STRIDE = 7919          # prime: successive visits land on distant objects
_LAPS = 15              # segments per slice, ~2 ms each
_VISITS_PER_LAP = 600


class Stopwatch:
    """CPU seconds of the consecutive segments of a timed region.

    Whatever is timed does the same work, segment for segment, every
    time it runs, so :func:`best_of` can take each segment's best time
    over the runs: a disturbance shorter than a run then spoils a
    segment of it, not the whole.
    """

    def __init__(self) -> None:
        self.segments: list = []        # (name or None, CPU seconds)
        self._last = time.process_time()

    def lap(self, name: str | None = None) -> None:
        now = time.process_time()
        self.segments.append((name, now - self._last))
        self._last = now


def total(segments: list) -> float:
    return sum(seconds for _name, seconds in segments)


def best_of(runs: list, name: str | None = None) -> float:
    """Sum over segments of the best time any run took for the segment
    (over the segments called ``name`` only, when given)."""
    return sum(min(seconds for _name, seconds in column)
               for column in zip(*runs)
               if name is None or column[0][0] == name)


class _Cell:
    __slots__ = ("n", "tag")

    def __init__(self, n: int):
        self.n = n
        self.tag = f"cell:{n}"

    def mix(self, by: int) -> int:
        return (self.n * 31 + by) & 0xFFFF


class Calibrator:
    """Owns the object set; :meth:`slice` times one pass over part of it.

    A slice only reads the set: were it to store into it, the objects
    would migrate around the heap and every slice would cost more than
    the one before.  Every slice visits the same objects in the same
    order, so slices compare segment by segment.
    """

    def __init__(self) -> None:
        self._objects = [
            {"id": i, "key": f"book:{i}:stock", "row": (i, i * 7 % 40, None),
             "chain": [(i + j, j) for j in range(8)], "cell": _Cell(i),
             "pad": bytearray(256)}
            for i in range(_SET_SIZE)
        ]
        self.slices: list = []

    def slice(self) -> float:
        """Run the fixed instruction mix once; return its CPU seconds."""
        objects = self._objects
        size = len(objects)
        cursor = 0
        heap: list = []
        recent: dict = {}
        acc = 0
        watch = Stopwatch()
        for _ in range(_LAPS):
            for _ in range(_VISITS_PER_LAP):
                cursor = (cursor + _STRIDE) % size
                obj = objects[cursor]
                row = obj["row"]
                acc += obj["cell"].mix(row[1])
                label = f"{obj['key']}@{acc & 255}"
                recent[label] = (row[0], (row[1] + 1) % 40, label)
                if len(recent) > 512:
                    recent.clear()
                heapq.heappush(heap, (acc & 1023, cursor))
                if len(heap) > 64:
                    heapq.heappop(heap)
                acc += sum(pair[1] for pair in obj["chain"] if pair[0] & 1)
            watch.lap()
        self.slices.append(watch.segments)
        return total(watch.segments)

    def best(self) -> float:
        """Best-of-k seconds per slice, over all slices so far."""
        return best_of(self.slices)


def normalise(cpu_s: float, cal_s: float) -> float:
    """CPU seconds measured beside a ``cal_s`` slice, on the reference host."""
    return cpu_s * CAL_REF_S / cal_s
