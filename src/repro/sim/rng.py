"""Reproducible random streams for simulation models.

Every stochastic component of the model (think times, session lengths,
transaction mix, service demands, abort coin-flips...) draws from its own
named stream, seeded deterministically from a master seed.  Components
therefore stay statistically independent, and adding a new stream never
perturbs existing ones — the standard CSIM/simulation-methodology
discipline that makes paired comparisons across algorithms meaningful.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


class RandomStream:
    """One named pseudo-random stream."""

    def __init__(self, master_seed: int, name: str):
        digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
        self.name = name
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def exponential(self, mean: float) -> float:
        """Exponentially distributed draw with the given mean."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self._rng.randint(lo, hi)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {probability}")
        return self._rng.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(items, k)

    def random(self) -> float:
        return self._rng.random()


class RandomStreams:
    """Factory of named, independent random streams from one master seed."""

    def __init__(self, master_seed: int = 42):
        self.master_seed = master_seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """The stream for ``name`` (created on first use)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = RandomStream(self.master_seed, name)
            self._streams[name] = stream
        return stream

    def __getitem__(self, name: str) -> RandomStream:
        return self.stream(name)

    def names(self) -> Iterable[str]:
        return self._streams.keys()
