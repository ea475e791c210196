"""Remote paging over memory service functions (Sec. III-C).

"Functions allocate a memory block and offer direct access, allowing HPC
applications for remote paging [22]."  This client keeps a bounded set of
pages resident locally and pages the rest in/out of a remote buffer: the
software layer that hardware memory disaggregation would otherwise
require (Sec. VII).
"""

from __future__ import annotations

from collections import OrderedDict
from ..sim.engine import Environment
from .durable import DurableMemoryClient

__all__ = ["RemotePager"]


class RemotePager:
    """LRU paging of fixed-size pages against a remote memory buffer."""

    def __init__(
        self,
        env: Environment,
        client: DurableMemoryClient,
        page_bytes: int = 2 << 20,
        resident_pages: int = 64,
    ):
        if page_bytes <= 0 or resident_pages <= 0:
            raise ValueError("page size and residency must be positive")
        total_pages = client.service.size_bytes // page_bytes
        if total_pages < 1:
            raise ValueError("remote buffer smaller than one page")
        self.env = env
        self.client = client
        self.page_bytes = page_bytes
        self.resident_limit = resident_pages
        self.total_pages = int(total_pages)
        self._resident: OrderedDict[int, bool] = OrderedDict()  # page -> dirty
        self.faults = 0
        self.hits = 0
        self.writebacks = 0

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.total_pages:
            raise ValueError(f"page {page} outside [0, {self.total_pages})")

    def touch(self, page: int, dirty: bool = False):
        """Process: access a page, faulting it in if non-resident.

        Yields True on a hit, False on a fault.
        """
        self._check_page(page)

        def run():
            if page in self._resident:
                self.hits += 1
                self._resident.move_to_end(page)
                self._resident[page] = self._resident[page] or dirty
                return True
            self.faults += 1
            # Evict LRU if full; dirty pages are written back first.
            if len(self._resident) >= self.resident_limit:
                victim, victim_dirty = next(iter(self._resident.items()))
                if victim_dirty:
                    self.writebacks += 1
                    yield self.client.write(victim * self.page_bytes, self.page_bytes)
                del self._resident[victim]
            yield self.client.read(page * self.page_bytes, self.page_bytes)
            self._resident[page] = dirty
            return False

        return self.env.process(run(), name=f"page-{page}")

    def flush(self):
        """Process: write back every dirty resident page."""

        def run():
            flushed = 0
            for page, dirty in list(self._resident.items()):
                if dirty:
                    yield self.client.write(page * self.page_bytes, self.page_bytes)
                    self._resident[page] = False
                    flushed += 1
            self.writebacks += flushed
            return flushed

        return self.env.process(run(), name="page-flush")
