"""Memory service: RMA buffers in idle memory, remote paging, durability."""

from .durable import (
    Chunk,
    ChunkReplica,
    DurableMemoryClient,
    DurableMemoryConfig,
    ReplicatedMemoryService,
)
from .paging import RemotePager
from .placement import ReplicaPlacement
from .repair import RepairLoop

__all__ = [
    "RemotePager",
    "Chunk",
    "ChunkReplica",
    "DurableMemoryClient",
    "DurableMemoryConfig",
    "ReplicatedMemoryService",
    "ReplicaPlacement",
    "RepairLoop",
]
