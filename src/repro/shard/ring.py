"""Consistent hashing of tenants onto manager shards.

The ring answers one question — *which shard owns this tenant?* — with
two properties the sharded control plane needs:

* **interpreter-stable placement.**  Hashes come from ``zlib.crc32``,
  not the builtin ``hash`` (which is salted per process): the same
  tenant maps to the same shard in every worker of a parallel sweep,
  which the byte-identical serial-vs-parallel contract requires.
* **minimal movement.**  Each shard projects :data:`VNODES` points onto the
  ring, so adding or removing one shard remaps only ~1/N of the tenant
  space instead of reshuffling everything (the classic consistent-
  hashing argument; ``tests/shard/test_ring.py`` asserts the bound).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Iterable, Iterator

__all__ = ["HashRing"]

#: Virtual nodes each shard projects onto the ring.
VNODES = 64


def _point(shard: int, vnode: int) -> int:
    """Ring coordinate of one virtual node (stable across interpreters)."""
    return zlib.crc32(f"shard-{shard}#{vnode}".encode("ascii"))


def _key_point(key: str) -> int:
    return zlib.crc32(key.encode("utf-8"))


class HashRing:
    """A consistent-hash ring over integer shard ids."""

    def __init__(self, shards: Iterable[int] = ()):
        self._members: set[int] = set()
        # Sorted (point, shard) pairs; ties break to the lower shard id,
        # which the tuple ordering gives us for free.
        self._ring: list[tuple[int, int]] = []
        for shard in shards:
            self.add(shard)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, shard: int) -> bool:
        return shard in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._members))

    def shards(self) -> list[int]:
        return sorted(self._members)

    def add(self, shard: int) -> None:
        """Project :data:`VNODES` points for ``shard`` onto the ring."""
        if shard in self._members:
            raise ValueError(f"shard {shard} already on the ring")
        self._members.add(shard)
        for vnode in range(VNODES):
            bisect.insort(self._ring, (_point(shard, vnode), shard))

    def remove(self, shard: int) -> None:
        """Withdraw ``shard``; its arcs fall to the next shard clockwise."""
        if shard not in self._members:
            raise ValueError(f"shard {shard} not on the ring")
        self._members.discard(shard)
        self._ring = [entry for entry in self._ring if entry[1] != shard]

    def shard_for(self, key: str) -> int:
        """Owner of ``key``: the first vnode at or after the key's point."""
        if not self._ring:
            raise LookupError("empty ring")
        index = bisect.bisect_left(self._ring, (_key_point(key), -1))
        if index == len(self._ring):
            index = 0  # wrap past the highest point
        return self._ring[index][1]

    def spread(self, keys: Iterable[str]) -> dict[int, int]:
        """Key counts per shard — the balance diagnostic tests assert on."""
        counts = {shard: 0 for shard in self._members}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts
