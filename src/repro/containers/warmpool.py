"""Warm container pool hosted in idle node memory (Sec. III-C, IV-B).

The paper's answer to cold starts: instead of making them faster, make
them *rarer* by parking started containers in memory nobody is using.
The pool is compatible with batch reclamation — when the batch system
needs the memory, warm containers are evicted instantly, optionally
swapped to the parallel filesystem so a later invocation pays a swap-in
rather than a full cold start.

Costs returned by :meth:`WarmPool.acquire` are in seconds; the caller
(the rFaaS executor) advances simulated time by them, so the pool itself
stays a plain passive data structure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from ..cluster.node import Allocation, AllocationError, Node
from ..sim.engine import Environment
from ..telemetry import Span, SpanKind, telemetry_of
from .image import Image
from .runtime import ContainerRuntime

__all__ = ["ContainerState", "WarmContainer", "WarmPool", "AcquireResult"]

#: Bytes/s a swapped container image is restored at from the parallel
#: filesystem.
SWAP_BANDWIDTH = 5e9
#: The allocation owner a warm container's memory is charged to.
OWNER = "rfaas-warmpool"


class ContainerState(enum.Enum):
    WARM = "warm"          # resident in node memory, ready for dispatch
    IN_USE = "in_use"      # currently executing an invocation
    SWAPPED = "swapped"    # evicted to the parallel filesystem


class WarmContainer:
    """A started container instance.

    The pool passes ``container_id`` from ``env.next_id``, so ids are
    per-environment and deterministic across process histories.
    """

    def __init__(self, image: Image, node_name: str, alloc: Optional[Allocation],
                 container_id: int):
        self.container_id = container_id
        self.image = image
        self.node_name = node_name
        self.alloc = alloc           # memory held while resident
        self.state = ContainerState.IN_USE
        self.last_used = 0.0


@dataclass(frozen=True)
class AcquireResult:
    container: WarmContainer
    startup_cost_s: float
    kind: str                       # "warm" | "swapped" | "cold"


class WarmPool:
    """Per-node cache of warm containers living in idle memory."""

    def __init__(self, env: Environment, node: Node, runtime: ContainerRuntime):
        self.env = env
        self.node = node
        self.runtime = runtime
        self._warm: dict[int, WarmContainer] = {}
        self._swapped: dict[int, WarmContainer] = {}
        self.hits = 0
        self.swap_ins = 0
        self.cold_starts = 0
        self.evictions = 0
        # Telemetry: per-node counters and a resident-bytes gauge.
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        labels = {"node": node.name}
        metrics = telemetry.metrics
        metrics.counter(
            "repro_warmpool_hits_total", lambda: self.hits, labels=labels,
            help="acquisitions served by a resident warm container",
        )
        metrics.counter(
            "repro_warmpool_swapins_total", lambda: self.swap_ins, labels=labels,
            help="acquisitions restored from the parallel filesystem",
        )
        metrics.counter(
            "repro_warmpool_cold_starts_total", lambda: self.cold_starts,
            labels=labels, help="acquisitions that paid a full cold start",
        )
        metrics.counter(
            "repro_warmpool_evictions_total", lambda: self.evictions,
            labels=labels, help="warm containers evicted for memory reclamation",
        )
        self._m_resident = metrics.gauge(
            "repro_warmpool_resident_bytes", labels=labels,
            help="memory held by parked warm containers",
        )

    def _record_resident(self) -> None:
        self._m_resident.set(self.resident_bytes())

    # -- views -------------------------------------------------------------
    @property
    def warm_count(self) -> int:
        return len(self._warm)

    @property
    def swapped_count(self) -> int:
        return len(self._swapped)

    def warm_count_for(self, image_name: str) -> int:
        """Resident warm containers for ``image_name`` (autoscaler signal)."""
        return sum(1 for c in self._warm.values() if c.image.name == image_name)

    def resident_bytes(self) -> int:
        return sum(c.image.runtime_memory_bytes for c in self._warm.values())

    # -- acquisition -----------------------------------------------------------
    def acquire(self, image: Image, parent: Optional[Span] = None) -> AcquireResult:
        """Get a container for ``image``: warm hit, swap-in, or cold start.

        The acquire instant is a child of ``parent`` (the executor's
        sandbox span), or else of the calling process's current span.
        """
        # 1. Warm hit: LRU-newest first (it is most likely still cached).
        candidates = [c for c in self._warm.values() if c.image.name == image.name]
        if candidates:
            container = max(candidates, key=lambda c: c.last_used)
            del self._warm[container.container_id]
            container.state = ContainerState.IN_USE
            self.hits += 1
            self._note_acquire(image, "warm", parent)
            return AcquireResult(container, self.runtime.warm_attach_s, "warm")

        # 2. Swapped instance: pay swap-in (read image state back) + attach.
        swapped = [c for c in self._swapped.values() if c.image.name == image.name]
        if swapped:
            container = max(swapped, key=lambda c: c.last_used)
            alloc = self._allocate_memory(image)
            del self._swapped[container.container_id]
            container.alloc = alloc
            container.state = ContainerState.IN_USE
            self.swap_ins += 1
            self._note_acquire(image, "swapped", parent)
            cost = image.runtime_memory_bytes / SWAP_BANDWIDTH + self.runtime.warm_attach_s
            return AcquireResult(container, cost, "swapped")

        # 3. Cold start.
        alloc = self._allocate_memory(image)
        container = WarmContainer(image, self.node.name, alloc,
                                  container_id=self.env.next_id("container"))
        self.cold_starts += 1
        self._note_acquire(image, "cold", parent)
        return AcquireResult(container, self.runtime.cold_start_time(image), "cold")

    def _note_acquire(self, image: Image, kind: str, parent: Optional[Span]) -> None:
        self._record_resident()
        self._tracer.instant(
            SpanKind.WARMPOOL_ACQUIRE, track=f"{self.node.name}/warmpool",
            parent=parent, image=image.name, kind=kind,
        )

    def _allocate_memory(self, image: Image) -> Allocation:
        """Claim container memory, evicting LRU warm containers if needed."""
        need = image.runtime_memory_bytes
        while not self.node.can_allocate(memory_bytes=need) and self._warm:
            self._evict_lru(swap=True)
        try:
            return self.node.allocate(
                owner=OWNER, memory_bytes=need, kind="container"
            )
        except AllocationError as exc:
            raise AllocationError(
                f"node {self.node.name}: no memory for container of {image.name!r}"
            ) from exc

    def release(self, container: WarmContainer) -> None:
        """Return a container to the warm set after an invocation."""
        if container.state != ContainerState.IN_USE:
            raise ValueError(f"container {container.container_id} not in use")
        container.state = ContainerState.WARM
        container.last_used = self.env.now
        self._warm[container.container_id] = container
        self._record_resident()

    def discard(self, container: WarmContainer) -> None:
        """Destroy an in-use container without keeping it warm."""
        if container.alloc is not None:
            self.node.release(container.alloc)
            container.alloc = None

    # -- reclamation ---------------------------------------------------------------
    def _evict_lru(self, swap: bool) -> int:
        container = min(self._warm.values(), key=lambda c: c.last_used)
        del self._warm[container.container_id]
        freed = container.image.runtime_memory_bytes
        self.node.release(container.alloc)
        container.alloc = None
        self.evictions += 1
        self._record_resident()
        self._tracer.instant(
            "warmpool.evict", track=f"{self.node.name}/warmpool",
            image=container.image.name, swap=swap,
        )
        if swap:
            container.state = ContainerState.SWAPPED
            self._swapped[container.container_id] = container
        return freed

    def reclaim(self, bytes_needed: int, swap: bool = True) -> int:
        """Free at least ``bytes_needed`` of warm memory; returns freed bytes.

        Idle containers 'can be removed immediately without consequences'
        (Sec. IV-B); with ``swap`` they survive on the PFS.
        """
        freed = 0
        while freed < bytes_needed and self._warm:
            freed += self._evict_lru(swap=swap)
        return freed

    def evict_fraction(self, fraction: float, swap: bool = True) -> int:
        """Evict the LRU ``fraction`` of parked containers; returns bytes freed.

        The fault injector's memory-pressure events use this to model a
        batch system clawing back idle memory without a full drain.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        victims = math.ceil(len(self._warm) * fraction)
        freed = 0
        for _ in range(victims):
            if not self._warm:
                break
            freed += self._evict_lru(swap=swap)
        return freed

    def drain(self) -> None:
        """Evict everything (node leaves the resource pool, Sec. IV-E)."""
        self.reclaim(self.resident_bytes(), swap=True)
