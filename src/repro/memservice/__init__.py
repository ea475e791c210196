"""Memory service: RMA buffers in idle memory, remote paging, durability."""

from .durable import (
    Chunk,
    ChunkReplica,
    DurableMemoryClient,
    DurableMemoryConfig,
    ReplicatedMemoryService,
)
from .memory_function import MemoryServiceFunction
from .paging import RemotePager
from .placement import ReplicaPlacement
from .repair import RepairLoop

__all__ = [
    "MemoryServiceFunction",
    "RemotePager",
    "Chunk",
    "ChunkReplica",
    "DurableMemoryClient",
    "DurableMemoryConfig",
    "ReplicatedMemoryService",
    "ReplicaPlacement",
    "RepairLoop",
]
