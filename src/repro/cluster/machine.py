"""Cluster: a named collection of nodes plus aggregate queries.

The machine object is pure state — scheduling policy lives in
``repro.slurm`` and placement policy in ``repro.rfaas`` / ``repro.disagg``.
The one placement rule kept here is :func:`group_interleave`, the
topology spread that warm-pool prewarming and replica placement share.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .node import Node
from .specs import DAINT_GPU, DAINT_MC, NodeSpec
from .topology import DragonflyTopology

__all__ = ["Cluster", "build_daint", "group_interleave"]


class Cluster:
    """An ordered set of nodes with an interconnect topology."""

    def __init__(self, topology: Optional[DragonflyTopology] = None):
        self._nodes: dict[str, Node] = {}
        self._index: dict[str, int] = {}
        self.topology = topology or DragonflyTopology()

    # -- construction ---------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._index[node.name] = len(self._nodes)
        self._nodes[node.name] = node
        return node

    def add_nodes(self, prefix: str, count: int, spec: NodeSpec) -> list[Node]:
        return [self.add_node(Node(f"{prefix}{i:04d}", spec)) for i in range(count)]

    # -- lookup -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def node_index(self, name: str) -> int:
        return self._index[name]

    def nodes(self, predicate: Optional[Callable[[Node], bool]] = None) -> list[Node]:
        if predicate is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if predicate(n)]

    # -- aggregate state ----------------------------------------------------------
    def idle_nodes(self) -> list[Node]:
        return self.nodes(lambda n: n.is_idle and not n.draining)

    def idle_node_count(self) -> int:
        return len(self.idle_nodes())

    def total_cores(self) -> int:
        return sum(n.total_cores for n in self)

    def allocated_cores(self) -> int:
        return sum(n.allocated_cores for n in self)

    def total_memory(self) -> int:
        return sum(n.total_memory for n in self)

    def allocated_memory(self) -> int:
        return sum(n.allocated_memory for n in self)

    def core_utilization(self) -> float:
        total = self.total_cores()
        return self.allocated_cores() / total if total else 0.0

    def memory_utilization(self) -> float:
        total = self.total_memory()
        return self.allocated_memory() / total if total else 0.0

    def hop_latency(self, src: str, dst: str) -> float:
        """Topology latency between two named nodes (seconds, one-way)."""
        return self.topology.latency(self._index[src], self._index[dst])

    def find_fit(
        self,
        cores: int = 0,
        memory_bytes: int = 0,
        gpus: int = 0,
        exclude: Iterable[str] = (),
    ) -> Optional[Node]:
        """First node that can host the request (deterministic order)."""
        excluded = set(exclude)
        for node in self:
            if node.name in excluded:
                continue
            if node.can_allocate(cores=cores, memory_bytes=memory_bytes, gpus=gpus):
                return node
        return None


def group_interleave(
    cluster: Cluster,
    candidates: Iterable[tuple[str, str, int]],
    start: int = 0,
) -> list[str]:
    """Spread placements across dragonfly groups, round-robin.

    ``candidates`` are ``(slot, node, budget)`` triples: a slot (a node,
    a device, ...) hosted on ``node`` that may take ``budget`` more
    placements.  Slots are bucketed by their node's topology group; the
    result cycles the groups in id order, and each group yields its
    slots in sorted order, every slot repeated ``budget`` times.  A
    group that runs dry drops out of the cycle, so a whole-group outage
    costs as few placements as the budgets allow.  ``start`` rotates
    both the group order and each group's slot order, so consecutive
    callers spread their first picks instead of all taking the same one.
    """
    groups: dict[int, list[tuple[str, int]]] = {}
    for slot, node, budget in candidates:
        if budget > 0:
            gid = cluster.topology.group_of(cluster.node_index(node))
            groups.setdefault(gid, []).append((slot, budget))
    queues = []
    for _, members in sorted(groups.items()):
        members.sort()
        k = start % len(members)
        members = members[k:] + members[:k]
        queues.append([slot for slot, budget in members for _ in range(budget)])
    if queues:
        k = start % len(queues)
        queues = queues[k:] + queues[:k]
    order: list[str] = []
    for rank in range(max(map(len, queues), default=0)):
        order.extend(queue[rank] for queue in queues if rank < len(queue))
    return order


def build_daint(mc_nodes: int = 1813, gpu_nodes: int = 5704) -> Cluster:
    """A Piz-Daint-shaped cluster (defaults: production node counts).

    Tests and benchmarks usually pass far smaller counts; the defaults
    document the real machine (XC50 GPU partition 5704 nodes, XC40
    multicore partition 1813 nodes).
    """
    cluster = Cluster()
    cluster.add_nodes("mc", mc_nodes, DAINT_MC)
    cluster.add_nodes("gpu", gpu_nodes, DAINT_GPU)
    return cluster
