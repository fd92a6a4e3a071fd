"""Keyspace sharding & partial replication configuration.

The lazy-master scheme of the paper ships every committed write-set to
every secondary, so per-secondary apply work and link traffic grow
linearly with cluster-wide update volume.  Partial replication (Sutra &
Shapiro) cuts both proportionally to the *subscription fraction*: each
secondary subscribes to a subset of the keyspace's shards and receives
only the commits that touch them.

The key→shard map is deterministic and reuses the crc32
:func:`~repro.core.records.key_fingerprint` already shipped with every
commit for conflict dependency tracking — no second hash on the hot
path: ``shard_of(key, shards) == key_fingerprint(key) % shards``, and
anywhere a fingerprint is already at hand the shard is one modulo away.

``ReplicatedSystem(sharding=None)`` — the default — keeps all of this
dormant and the system bit-identical to its pre-sharding behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.records import key_fingerprint
from repro.errors import ConfigurationError


def shard_of(key: object, shards: int) -> int:
    """Deterministic key→shard map (crc32 fingerprint modulo shards)."""
    return key_fingerprint(key) % shards


@dataclass(frozen=True)
class ShardingConfig:
    """Shard count plus per-secondary placement.

    Parameters
    ----------
    shards:
        Number of keyspace shards (>= 1).  Keys map to shards by
        :func:`shard_of`.
    placement:
        Optional per-secondary subscription: ``placement[i]`` is the
        collection of shard ids secondary ``i`` holds.  ``None`` (the
        default) subscribes every secondary to every shard — sharded
        bookkeeping with full replication.  When given, its length must
        equal the system's secondary count, every entry must be
        non-empty, and the union of all entries must cover every shard
        (otherwise some committed writes would be durable on the primary
        only, with no replica ever receiving them).
    """

    shards: int
    placement: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.placement is not None:
            normalized = []
            for i, entry in enumerate(self.placement):
                ids = sorted(set(entry))
                if not ids:
                    raise ConfigurationError(
                        f"placement[{i}] is empty: every secondary must "
                        f"subscribe to at least one shard")
                if ids[0] < 0 or ids[-1] >= self.shards:
                    raise ConfigurationError(
                        f"placement[{i}] contains shard ids outside "
                        f"0..{self.shards - 1}: {entry!r}")
                normalized.append(tuple(ids))
            object.__setattr__(self, "placement", tuple(normalized))

    def validate_for(self, num_secondaries: int) -> None:
        """Check the placement fits a system of ``num_secondaries``."""
        if self.placement is None:
            return
        if len(self.placement) != num_secondaries:
            raise ConfigurationError(
                f"placement has {len(self.placement)} entries for "
                f"{num_secondaries} secondaries")
        covered = set()
        for entry in self.placement:
            covered.update(entry)
        missing = set(range(self.shards)) - covered
        if missing:
            raise ConfigurationError(
                f"placement leaves shards {sorted(missing)} with no "
                f"subscriber: every shard needs at least one replica")

    def subscription_for(self, index: int) -> frozenset[int]:
        """The shard set secondary ``index`` subscribes to."""
        if self.placement is None:
            return frozenset(range(self.shards))
        return frozenset(self.placement[index])

    def shards_touched(self, keys: Sequence[object]) -> frozenset[int]:
        """The shard set a group of keys maps onto."""
        return frozenset(shard_of(key, self.shards) for key in keys)
