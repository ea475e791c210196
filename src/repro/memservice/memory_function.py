"""Memory service functions (Sec. III-C, Fig. 11).

A memory service function "allocates a memory block and offers direct
access" via one-sided RMA, letting other jobs page into idle node memory.
The function itself consumes almost no CPU (one-sided RDMA bypasses the
host), but its traffic contends for the node's NIC and memory bandwidth —
the perturbation Fig. 11 measures.  Each chunk replica of
:class:`~repro.memservice.durable.ReplicatedMemoryService` is one such
buffer, and clients reach it through its
:class:`~repro.memservice.durable.DurableMemoryClient`.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.node import Allocation, Node
from ..rfaas.errors import MemoryServiceUnavailable
from ..sim.engine import Environment, Process

__all__ = ["MemoryServiceFunction"]


class MemoryServiceFunction:
    """A pinned RDMA-accessible buffer hosted in idle node memory."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        size_bytes: int,
        mr_registration_s: float = 120e-6,
    ):
        if size_bytes <= 0:
            raise ValueError("buffer size must be positive")
        self.service_id = env.next_id("memservice")
        self.env = env
        self.node = node
        self.size_bytes = size_bytes
        self.mr_registration_s = mr_registration_s
        self._alloc: Optional[Allocation] = None

    @property
    def active(self) -> bool:
        return self._alloc is not None

    def start(self) -> Process:
        """Allocate + pin the buffer; yields once the MR is registered."""
        if self.active:
            raise RuntimeError("service already started")
        self._alloc = self.node.allocate(
            owner=f"memservice-{self.service_id}",
            memory_bytes=self.size_bytes,
            kind="memservice",
        )

        def register():
            yield self.env.timeout(self.mr_registration_s)
            return self

        return self.env.process(register(), name=f"memservice-{self.service_id}-start")

    def stop(self) -> None:
        """Release the buffer (batch system reclaimed the memory).

        Idempotent: stopping an already-stopped (or never-started)
        service is a no-op, so reclaim paths that race — drain migration
        finishing just as a crash hits the same node — never double-free.
        """
        if self._alloc is not None:
            self.node.release(self._alloc)
            self._alloc = None

    def validate_access(self, offset: int, size: int) -> None:
        if not self.active:
            raise MemoryServiceUnavailable(
                f"memory service {self.service_id} on {self.node.name} not active",
                node_name=self.node.name,
            )
        if offset < 0 or size < 0 or offset + size > self.size_bytes:
            raise ValueError(
                f"access [{offset}, {offset + size}) outside buffer of {self.size_bytes} B"
            )
