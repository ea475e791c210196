"""Declarative fault plans.

A :class:`FaultPlan` is a list of :class:`FaultEvent` records — *what*
goes wrong, *when* (simulated seconds), *where* (a node, or "let the
injector pick"), and *how hard*.  Plans are plain data: they can be
built fluently in code, round-tripped through JSON for the ``repro
chaos`` CLI, and replayed deterministically — the plan itself contains
no randomness; every seeded choice (victim selection, message loss) is
made by the :class:`~repro.faults.injector.Injector` from its own named
rng stream.

Fault taxonomy (see ``docs/fault_injection.md``):

===================== =========================================================
kind                  meaning
===================== =========================================================
``node_crash``        executor node dies (``manager.remove_node``); in-flight
                      invocations get termination replies when ``immediate``;
                      with ``duration_s`` > 0 the node re-registers (cold
                      recovery) once it heals
``lease_storm``       the platform cancels up to ``count`` active leases at
                      once, forcing clients to redirect
``network_degrade``   interconnect latency × ``magnitude``, bandwidth ×
                      ``bandwidth_factor``, plus seeded ``drop_rate`` message
                      loss, for ``duration_s``
``network_partition`` the target node is unreachable for ``duration_s``;
                      transfers to/from it fail with ``TransferDropped``
``straggler``         the target executor picks work up ``magnitude`` × late
                      for ``duration_s``
``warmpool_pressure`` evict the LRU ``magnitude`` fraction of the target
                      node's warm containers (swap to PFS when ``swap``)
``memservice_kill``   every durable-memory chunk replica hosted on the target
                      node is destroyed instantly (the batch system took the
                      memory back without warning); background repair restores
                      the replication factor from surviving copies
``gpu_device_loss``   every GPU device on the target node is lost: fractional
                      leases are revoked (``GpuLeaseRevokedError``), queued and
                      in-flight batched invocations replay on surviving
                      devices; with ``duration_s`` > 0 the devices come back
                      *cold* (warm data gone) once the node heals
``manager_crash``     the control plane's primary resource manager dies; a
                      standby takes over after the failure detector's timeout
                      (``repro.controlplane``); with zero standbys all
                      control-plane state — and every outstanding lease — is
                      lost; ``duration_s`` > 0 restarts the crashed replica
``manager_partition`` the primary is cut off from clients *and* standbys: a
                      standby takes over behind the partition and the fenced
                      ex-primary steps down when the partition heals after
                      ``duration_s`` (no split brain)
===================== =========================================================
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind:
    """Well-known fault kinds (the taxonomy of docs/fault_injection.md)."""

    NODE_CRASH = "node_crash"
    LEASE_STORM = "lease_storm"
    NETWORK_DEGRADE = "network_degrade"
    NETWORK_PARTITION = "network_partition"
    STRAGGLER = "straggler"
    WARMPOOL_PRESSURE = "warmpool_pressure"
    MEMSERVICE_KILL = "memservice_kill"
    GPU_DEVICE_LOSS = "gpu_device_loss"
    MANAGER_CRASH = "manager_crash"
    MANAGER_PARTITION = "manager_partition"

    ALL = (
        NODE_CRASH,
        LEASE_STORM,
        NETWORK_DEGRADE,
        NETWORK_PARTITION,
        STRAGGLER,
        WARMPOOL_PRESSURE,
        MEMSERVICE_KILL,
        GPU_DEVICE_LOSS,
        MANAGER_CRASH,
        MANAGER_PARTITION,
    )


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``magnitude`` is the kind's main knob: latency factor for
    ``network_degrade``, dispatch-delay multiplier for ``straggler``,
    eviction fraction for ``warmpool_pressure``; unused otherwise.
    """

    kind: str
    at_s: float
    duration_s: float = 0.0          # 0 = permanent (crash) or instantaneous
    node: Optional[str] = None       # None = injector picks a seeded victim
    magnitude: float = 1.0
    bandwidth_factor: float = 1.0    # network_degrade only
    drop_rate: float = 0.0           # network_degrade only
    count: int = 1                   # lease_storm only
    immediate: bool = True           # node_crash only
    swap: bool = True                # warmpool_pressure only

    def __post_init__(self):
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {FaultKind.ALL})")
        if self.at_s < 0:
            raise ValueError("fault time must be non-negative")
        if self.duration_s < 0:
            raise ValueError("fault duration must be non-negative")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")
        if self.bandwidth_factor <= 0:
            raise ValueError("bandwidth_factor must be positive")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.kind == FaultKind.WARMPOOL_PRESSURE and self.magnitude > 1.0:
            raise ValueError("warmpool_pressure magnitude is a fraction in (0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(**data)


@dataclass
class FaultPlan:
    """An ordered schedule of faults, buildable fluently::

        plan = (FaultPlan(name="crash-and-storm")
                .node_crash(at_s=5.0, duration_s=20.0)
                .lease_storm(at_s=8.0, count=4)
                .network_degrade(at_s=12.0, duration_s=3.0, latency_factor=10.0))
    """

    events: list[FaultEvent] = field(default_factory=list)
    name: str = "plan"

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def empty(self) -> bool:
        return not self.events

    def sorted_events(self) -> list[FaultEvent]:
        """Events by injection time; ties keep plan order (stable)."""
        return sorted(self.events, key=lambda ev: ev.at_s)

    # -- fluent builders -----------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def node_crash(self, at_s: float, node: Optional[str] = None,
                   duration_s: float = 0.0, immediate: bool = True) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.NODE_CRASH, at_s, duration_s=duration_s,
                                   node=node, immediate=immediate))

    def lease_storm(self, at_s: float, count: int = 1) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.LEASE_STORM, at_s, count=count))

    def network_degrade(self, at_s: float, duration_s: float,
                        latency_factor: float = 1.0, bandwidth_factor: float = 1.0,
                        drop_rate: float = 0.0) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.NETWORK_DEGRADE, at_s,
                                   duration_s=duration_s, magnitude=latency_factor,
                                   bandwidth_factor=bandwidth_factor,
                                   drop_rate=drop_rate))

    def network_partition(self, at_s: float, duration_s: float,
                          node: Optional[str] = None) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.NETWORK_PARTITION, at_s,
                                   duration_s=duration_s, node=node))

    def straggler(self, at_s: float, duration_s: float,
                  multiplier: float = 10.0) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.STRAGGLER, at_s, duration_s=duration_s,
                                   magnitude=multiplier))

    def warmpool_pressure(self, at_s: float, fraction: float = 1.0) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.WARMPOOL_PRESSURE, at_s,
                                   magnitude=fraction))

    def memservice_kill(self, at_s: float) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.MEMSERVICE_KILL, at_s))

    def gpu_device_loss(self, at_s: float, duration_s: float = 0.0) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.GPU_DEVICE_LOSS, at_s,
                                   duration_s=duration_s))

    def manager_crash(self, at_s: float, duration_s: float = 0.0,
                      shard: Optional[int] = None) -> "FaultPlan":
        """Kill a control-plane primary; with ``duration_s`` > 0 the
        replica restarts and rejoins.  Untargeted, the victim is
        whoever leads at injection time.  ``shard`` targets one shard
        of a :class:`~repro.shard.ShardedControlPlane` (encoded as
        ``node="shard-N"``; ignored by unsharded control planes)."""
        return self.add(FaultEvent(
            FaultKind.MANAGER_CRASH, at_s, duration_s=duration_s,
            node=None if shard is None else f"shard-{shard}",
        ))

    def manager_partition(self, at_s: float, duration_s: float = 0.0) -> "FaultPlan":
        """Cut the current primary off from clients and standbys; the
        partition heals after ``duration_s`` (0 = never)."""
        return self.add(FaultEvent(FaultKind.MANAGER_PARTITION, at_s,
                                   duration_s=duration_s))

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {"name": self.name, "events": [ev.to_dict() for ev in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            events=[FaultEvent.from_dict(ev) for ev in data.get("events", ())],
            name=data.get("name", "plan"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
