"""Memory service functions (Sec. III-C, Fig. 11).

A memory service function "allocates a memory block and offers direct
access" via one-sided RMA, letting other jobs page into idle node memory.
The function itself consumes almost no CPU (one-sided RDMA bypasses the
host), but its traffic contends for the node's NIC and memory bandwidth —
the perturbation Fig. 11 measures.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.node import Allocation, Node
from ..network.transport import Connection, NetworkFabric
from ..rfaas.errors import MemoryServiceUnavailable
from ..rfaas.load import NodeLoadRegistry
from ..sim.engine import Environment, Process

__all__ = ["MemoryServiceFunction", "MemoryClient", "TrafficPattern"]


class MemoryServiceFunction:
    """A pinned RDMA-accessible buffer hosted in idle node memory."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        size_bytes: int,
        loads: Optional[NodeLoadRegistry] = None,
        mr_registration_s: float = 120e-6,
    ):
        if size_bytes <= 0:
            raise ValueError("buffer size must be positive")
        self.service_id = env.next_id("memservice")
        self.env = env
        self.node = node
        self.size_bytes = size_bytes
        self.loads = loads
        self.mr_registration_s = mr_registration_s
        self._alloc: Optional[Allocation] = None
        self.bytes_read = 0
        self.bytes_written = 0

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


class TrafficPattern:
    """Periodic RMA operations: ``op_bytes`` every ``interval_s``."""

    def __init__(self, op_bytes: int, interval_s: float, write: bool = False):
        if op_bytes <= 0:
            raise ValueError("op_bytes must be positive")
        if interval_s < 0:
            raise ValueError("interval must be non-negative")
        self.op_bytes = op_bytes
        self.interval_s = interval_s
        self.write = write

    def mean_bandwidth(self, op_duration_s: float) -> float:
        """Average offered load given the per-op completion time."""
        return self.op_bytes / max(self.interval_s + op_duration_s, 1e-12)


class MemoryClient:
    """A remote job using a memory service function over RDMA."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        service: MemoryServiceFunction,
        connection: Connection,
    ):
        self.env = env
        self.fabric = fabric
        self.service = service
        self.connection = connection

    def read(self, offset: int, size: int) -> Process:
        self.service.validate_access(offset, size)

        def run():
            got = yield self.connection.rdma_read(size)
            self.service.bytes_read += got
            return got

        return self.env.process(run(), name="rma-read")

    def write(self, offset: int, size: int) -> Process:
        self.service.validate_access(offset, size)

        def run():
            put = yield self.connection.rdma_write(size)
            self.service.bytes_written += put
            return put

        return self.env.process(run(), name="rma-write")

    def stream(self, pattern: TrafficPattern, duration_s: float) -> Process:
        """Run a periodic read/write stream for ``duration_s``.

        While streaming, the offered bandwidth is registered as background
        traffic on the *service* node so co-located tenants feel it (the
        Fig. 11 mechanism: memory service impacts both NIC and DRAM).
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")

        def run():
            op = self.write if pattern.write else self.read
            # Estimate per-op time to derive offered bandwidth.
            probe_start = self.env.now
            yield op(0, pattern.op_bytes)
            op_time = self.env.now - probe_start
            bandwidth = pattern.mean_bandwidth(op_time)
            node_name = self.service.node.name
            if self.service.loads is not None:
                self.service.loads.add_background_traffic(
                    node_name, netbw=bandwidth, membw=bandwidth
                )
            ops = 1
            try:
                while self.env.now - probe_start < duration_s:
                    if pattern.interval_s > 0:
                        yield self.env.timeout(pattern.interval_s)
                    yield op(0, pattern.op_bytes)
                    ops += 1
            finally:
                if self.service.loads is not None:
                    self.service.loads.remove_background_traffic(
                        node_name, netbw=bandwidth, membw=bandwidth
                    )
            return ops

        return self.env.process(run(), name="rma-stream")
