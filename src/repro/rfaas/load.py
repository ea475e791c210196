"""Per-node load registry: who is consuming what, right now.

The interference model needs the full tenant mix of a node to compute a
slowdown.  Batch jobs, running invocations, and background RDMA streams
(memory-service traffic) all register their demand vectors here; the
executor queries the registry at invocation start to dilate execution
time.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.machine import Cluster
from ..interference.model import InterferenceModel, ResourceDemand

__all__ = ["NodeLoadRegistry"]


class NodeLoadRegistry:
    """Tracks active demand vectors and background traffic per node."""

    def __init__(self, cluster: Cluster, model: Optional[InterferenceModel] = None):
        self.cluster = cluster
        self.model = model if model is not None else InterferenceModel()
        self._demands: dict[str, dict[str, ResourceDemand]] = {}
        self._extra_netbw: dict[str, float] = {}
        self._extra_membw: dict[str, float] = {}

    # -- registration ---------------------------------------------------------
    def add(self, node_name: str, key: str, demand: ResourceDemand) -> None:
        if node_name not in self.cluster:
            raise KeyError(f"unknown node {node_name!r}")
        node_map = self._demands.setdefault(node_name, {})
        if key in node_map:
            raise ValueError(f"duplicate load key {key!r} on {node_name}")
        node_map[key] = demand

    def remove(self, node_name: str, key: str) -> None:
        node_map = self._demands.get(node_name, {})
        if key not in node_map:
            raise KeyError(f"load key {key!r} not on {node_name}")
        del node_map[key]

    def add_background_traffic(self, node_name: str, netbw: float = 0.0, membw: float = 0.0) -> None:
        """Register anonymous traffic (e.g. inbound RDMA streams)."""
        if node_name not in self.cluster:
            raise KeyError(f"unknown node {node_name!r}")
        self._extra_netbw[node_name] = self._extra_netbw.get(node_name, 0.0) + netbw
        self._extra_membw[node_name] = self._extra_membw.get(node_name, 0.0) + membw

    def clear_background_traffic(self, node_name: str) -> None:
        self._extra_netbw.pop(node_name, None)
        self._extra_membw.pop(node_name, None)

    # -- queries ------------------------------------------------------------------
    def demands(self, node_name: str) -> dict[str, ResourceDemand]:
        return dict(self._demands.get(node_name, {}))

    def slowdowns(self, node_name: str) -> dict[str, float]:
        """Current slowdown of every tenant on the node."""
        node_map = self._demands.get(node_name, {})
        if not node_map:
            return {}
        keys = list(node_map)
        spec = self.cluster.node(node_name).spec
        values = self.model.slowdowns(
            spec,
            [node_map[k] for k in keys],
            extra_netbw=self._extra_netbw.get(node_name, 0.0),
            extra_membw=self._extra_membw.get(node_name, 0.0),
        )
        return dict(zip(keys, values))

    def slowdown_of(self, node_name: str, key: str) -> float:
        slowdowns = self.slowdowns(node_name)
        if key not in slowdowns:
            raise KeyError(f"load key {key!r} not on {node_name}")
        return slowdowns[key]

    def preview_slowdown(self, node_name: str, demand: ResourceDemand) -> dict[str, float]:
        """What slowdowns *would* be if ``demand`` joined the node.

        Used by placement policy to refuse harmful co-locations before
        they happen.  Returns existing keys plus ``"<candidate>"``.
        """
        node_map = self._demands.get(node_name, {})
        keys = list(node_map) + ["<candidate>"]
        spec = self.cluster.node(node_name).spec
        values = self.model.slowdowns(
            spec,
            [node_map[k] for k in node_map] + [demand],
            extra_netbw=self._extra_netbw.get(node_name, 0.0),
            extra_membw=self._extra_membw.get(node_name, 0.0),
        )
        return dict(zip(keys, values))
