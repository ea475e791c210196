"""Topology-aware replica placement for the durable memory service.

Chunk replicas must land on *distinct nodes* (a node crash may only cost
one copy) and, when the cluster is wide enough, on distinct dragonfly
*groups* (a group-level outage — power, a router — may only cost one
copy either).  The spread is :func:`~repro.cluster.group_interleave`,
the same rule the warm-pool autoscaler uses for prewarms: every
eligible host has a budget of one, groups are cycled before nodes
within a group, and the chunk index rotates both orders.

Placement is pure and deterministic — no rng, no simulated time — so a
seeded run replays identical replica maps and the determinism contract
of ``memdurability_sweep`` holds across fresh interpreters.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..cluster.machine import Cluster, group_interleave

__all__ = ["ReplicaPlacement"]


class ReplicaPlacement:
    """Deterministic group-aware replica spreading over candidate hosts."""

    def __init__(self, cluster: Cluster, hosts: Sequence[str]):
        if not hosts:
            raise ValueError("need at least one candidate host")
        seen = set()
        for name in hosts:
            if name in seen:
                raise ValueError(f"duplicate host {name!r}")
            seen.add(name)
            cluster.node(name)  # validate eagerly
        self.cluster = cluster
        self.hosts = tuple(hosts)

    def _order(self, start: int, exclude: Iterable[str]) -> list[str]:
        """Every eligible host (not excluded, not draining), spread."""
        excluded = set(exclude)
        return group_interleave(self.cluster, (
            (name, name, 1) for name in self.hosts
            if name not in excluded and not self.cluster.node(name).draining
        ), start)

    def replica_nodes(self, chunk_index: int, k: int,
                      exclude: Iterable[str] = ()) -> list[str]:
        """``k`` distinct hosts for one chunk, spread across groups.

        Returns fewer than ``k`` names when the candidate set is too
        small — the caller decides whether under-placement is an error
        (initial layout) or a repair deficit (degraded cluster).
        """
        if k < 1:
            raise ValueError("replication factor must be >= 1")
        return self._order(chunk_index, exclude)[:k]

    def pick_target(self, exclude: Iterable[str], need_bytes: int) -> Optional[str]:
        """One host for a repaired/migrated replica, or None.

        The first host in group-interleaved order with ``need_bytes`` of
        node memory free — the same deterministic choice every run.
        """
        for candidate in self._order(0, exclude):
            if self.cluster.node(candidate).free_memory >= need_bytes:
                return candidate
        return None
