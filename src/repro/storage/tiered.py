"""Tiered function I/O: parallel FS + object-store warm cache (Sec. IV-D).

The paper's final I/O design mounts the user's Lustre partitions inside
the function container *and* keeps MinIO "as a warm cache for lower
latency on small files".  Fig. 8 reports the size at which the parallel
filesystem starts to beat the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lustre import LustreModel
from .objectstore import ObjectStoreModel

__all__ = ["TieredFunctionStorage"]


#: The bisection bracket of :meth:`TieredFunctionStorage.crossover_size`.
CROSSOVER_LO = 1024
CROSSOVER_HI = 1 << 30


@dataclass
class TieredFunctionStorage:
    """The two tiers whose Fig. 8 curves decide where a read goes."""

    pfs: LustreModel = field(default_factory=LustreModel)
    cache: ObjectStoreModel = field(default_factory=ObjectStoreModel)

    def crossover_size(self) -> int:
        """Smallest size at which the PFS beats the cache for a single
        reader (bisection over [``CROSSOVER_LO``, ``CROSSOVER_HI``]).

        Returns ``CROSSOVER_HI`` if the cache wins everywhere.
        """
        lo, hi = CROSSOVER_LO, CROSSOVER_HI
        if not self._pfs_wins(hi):
            return hi
        if self._pfs_wins(lo):
            return lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._pfs_wins(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def _pfs_wins(self, size: int) -> bool:
        return self.pfs.read_time(size, 1) < self.cache.read_time(size, 1)
