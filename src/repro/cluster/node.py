"""Node model with explicit allocation bookkeeping.

A node tracks three independently allocatable resources — CPU cores,
memory bytes and GPU devices — because software disaggregation (Sec. III)
hands out exactly the resources a batch job left unused.  Allocations are
tagged with an owner so that the disaggregation controller can account
batch jobs and serverless functions separately and reclaim the latter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .specs import NodeSpec

__all__ = ["Allocation", "Node", "AllocationError"]

class AllocationError(RuntimeError):
    """Requested resources exceed what the node has free."""


@dataclass(frozen=True)
class Allocation:
    """A granted slice of one node's resources."""

    alloc_id: int
    node_name: str
    owner: str
    kind: str              # "batch" | "function" | "memservice" | ...
    cores: int
    memory_bytes: int
    gpu_ids: tuple[int, ...]


class Node:
    """One cluster node: capacity plus live allocation state."""

    def __init__(self, name: str, spec: NodeSpec):
        self.name = name
        self.spec = spec
        self._allocations: dict[int, Allocation] = {}
        # Per-node counter: allocation ids are scoped to this node's
        # table, so numbering restarts with every cluster build.
        self._alloc_ids = itertools.count(1)
        self._free_cores = spec.cores
        self._free_memory = spec.memory_bytes
        self._free_gpus: set[int] = set(range(len(spec.gpus)))
        # Drain flag: a draining node accepts no new allocations (Sec. IV-E).
        self.draining = False

    # -- capacity views -----------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.spec.cores

    @property
    def total_memory(self) -> int:
        return self.spec.memory_bytes

    @property
    def total_gpus(self) -> int:
        return len(self.spec.gpus)

    @property
    def free_cores(self) -> int:
        return self._free_cores

    @property
    def free_memory(self) -> int:
        return self._free_memory

    @property
    def free_gpu_ids(self) -> frozenset[int]:
        return frozenset(self._free_gpus)

    @property
    def allocated_cores(self) -> int:
        return self.spec.cores - self._free_cores

    @property
    def allocated_memory(self) -> int:
        return self.spec.memory_bytes - self._free_memory

    @property
    def is_idle(self) -> bool:
        """True when nothing at all is allocated (the Fig.-1a sense)."""
        return not self._allocations

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(self._allocations.values())

    def allocations_of_kind(self, kind: str) -> tuple[Allocation, ...]:
        return tuple(a for a in self._allocations.values() if a.kind == kind)

    def core_utilization(self) -> float:
        return self.allocated_cores / self.spec.cores

    def memory_utilization(self) -> float:
        return self.allocated_memory / self.spec.memory_bytes

    # -- allocation ---------------------------------------------------------
    def can_allocate(self, cores: int = 0, memory_bytes: int = 0, gpus: int = 0) -> bool:
        if self.draining:
            return False
        return (
            cores <= self._free_cores
            and memory_bytes <= self._free_memory
            and gpus <= len(self._free_gpus)
        )

    def allocate(
        self,
        owner: str,
        cores: int = 0,
        memory_bytes: int = 0,
        gpus: int = 0,
        kind: str = "batch",
    ) -> Allocation:
        """Claim resources; raises :class:`AllocationError` if unavailable."""
        if cores < 0 or memory_bytes < 0 or gpus < 0:
            raise ValueError("resource amounts must be non-negative")
        if cores == 0 and memory_bytes == 0 and gpus == 0:
            raise ValueError("empty allocation")
        if self.draining:
            raise AllocationError(f"node {self.name} is draining")
        if cores > self._free_cores:
            raise AllocationError(
                f"node {self.name}: {cores} cores requested, {self._free_cores} free"
            )
        if memory_bytes > self._free_memory:
            raise AllocationError(
                f"node {self.name}: {memory_bytes} B requested, {self._free_memory} B free"
            )
        if gpus > len(self._free_gpus):
            raise AllocationError(
                f"node {self.name}: {gpus} GPUs requested, {len(self._free_gpus)} free"
            )
        gpu_ids = tuple(sorted(self._free_gpus)[:gpus])
        self._free_cores -= cores
        self._free_memory -= memory_bytes
        self._free_gpus.difference_update(gpu_ids)
        alloc = Allocation(
            alloc_id=next(self._alloc_ids),
            node_name=self.name,
            owner=owner,
            kind=kind,
            cores=cores,
            memory_bytes=memory_bytes,
            gpu_ids=gpu_ids,
        )
        self._allocations[alloc.alloc_id] = alloc
        return alloc

    def release(self, alloc: Allocation) -> None:
        if alloc.alloc_id not in self._allocations:
            raise KeyError(f"allocation {alloc.alloc_id} not held on node {self.name}")
        del self._allocations[alloc.alloc_id]
        self._free_cores += alloc.cores
        self._free_memory += alloc.memory_bytes
        self._free_gpus.update(alloc.gpu_ids)
        assert 0 <= self._free_cores <= self.spec.cores
        assert 0 <= self._free_memory <= self.spec.memory_bytes

    def release_owner(self, owner: str) -> list[Allocation]:
        """Release everything held by ``owner``; returns what was freed."""
        released = [a for a in self._allocations.values() if a.owner == owner]
        for alloc in released:
            self.release(alloc)
        return released

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Node {self.name} cores={self.allocated_cores}/{self.spec.cores}"
            f" mem={self.allocated_memory / 2**30:.0f}/{self.spec.memory_bytes / 2**30:.0f}GiB"
            f" gpus={self.total_gpus - len(self._free_gpus)}/{self.total_gpus}>"
        )
