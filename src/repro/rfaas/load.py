"""Per-node load registry: who is consuming what, right now.

The interference model needs the full tenant mix of a node to compute a
slowdown.  Batch jobs, running invocations, and background RDMA streams
(memory-service traffic) all register their demand vectors here; the
executor queries the registry at invocation start to dilate execution
time.

The model is a pure function of the tenant mix, and a node's mix is
rebuilt on every invocation start but recurs constantly.  So the
registry memoizes it: ``_memo`` maps ``(spec, demands in registration
order, extra_netbw, extra_membw)`` to the tuple of slowdowns, and every
query (``slowdowns``, ``slowdown_of``, ``preview_slowdown``) reads
through it.  The key is by mix, not by node, because ``add``/``remove``
change a node's mix right before each query.  The memo lives on the
registry, not in a module global, because the model's calibration
constants are not part of the key.
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
        # Per-node background streams, as (netbw, membw) pairs in arrival
        # order, and their running totals (absent when there are none).
        self._traffic: dict[str, list[tuple[float, float]]] = {}
        self._extra_netbw: dict[str, float] = {}
        self._extra_membw: dict[str, float] = {}
        self._memo: dict[tuple, tuple[float, ...]] = {}

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
        self._set_traffic(node_name, self._traffic.get(node_name, []) + [(netbw, membw)])

    def remove_background_traffic(self, node_name: str, netbw: float = 0.0, membw: float = 0.0) -> None:
        """Withdraw one stream registered with the same ``netbw``/``membw``."""
        streams = list(self._traffic.get(node_name, []))
        try:
            streams.remove((netbw, membw))
        except ValueError:
            raise KeyError(f"no background stream ({netbw}, {membw}) on {node_name}") from None
        self._set_traffic(node_name, streams)

    def clear_background_traffic(self, node_name: str) -> None:
        self._set_traffic(node_name, [])

    def _set_traffic(self, node_name: str, streams: list[tuple[float, float]]) -> None:
        # Totals are re-summed left to right from the remaining streams,
        # so they carry no residue of a withdrawn one, and a node with no
        # stream reads exactly 0.0 (any traffic turns on sharing noise).
        if not streams:
            self._traffic.pop(node_name, None)
            self._extra_netbw.pop(node_name, None)
            self._extra_membw.pop(node_name, None)
            return
        netbw = membw = 0.0
        for stream_netbw, stream_membw in streams:
            netbw += stream_netbw
            membw += stream_membw
        self._traffic[node_name] = streams
        self._extra_netbw[node_name] = netbw
        self._extra_membw[node_name] = membw

    # -- queries ------------------------------------------------------------------
    def demands(self, node_name: str) -> dict[str, ResourceDemand]:
        return dict(self._demands.get(node_name, {}))

    def _mix_slowdowns(self, node_name: str, demands: tuple[ResourceDemand, ...]) -> tuple[float, ...]:
        """The model's slowdowns for ``demands`` on the node, memoized by mix."""
        spec = self.cluster.node(node_name).spec
        extra_netbw = self._extra_netbw.get(node_name, 0.0)
        extra_membw = self._extra_membw.get(node_name, 0.0)
        key = (spec, demands, extra_netbw, extra_membw)
        values = self._memo.get(key)
        if values is None:
            # An over-subscribed mix raises PlacementError here, uncached.
            values = tuple(self.model.slowdowns(
                spec, demands, extra_netbw=extra_netbw, extra_membw=extra_membw
            ))
            self._memo[key] = values
        return values

    def slowdowns(self, node_name: str) -> dict[str, float]:
        """Current slowdown of every tenant on the node."""
        node_map = self._demands.get(node_name, {})
        if not node_map:
            return {}
        return dict(zip(node_map, self._mix_slowdowns(node_name, tuple(node_map.values()))))

    def slowdown_of(self, node_name: str, key: str) -> float:
        node_map = self._demands.get(node_name, {})
        if node_map:
            values = self._mix_slowdowns(node_name, tuple(node_map.values()))
            for tenant, value in zip(node_map, values):
                if tenant == key:
                    return value
        raise KeyError(f"load key {key!r} not on {node_name}")

    def preview_slowdown(self, node_name: str, demand: ResourceDemand) -> dict[str, float]:
        """What slowdowns *would* be if ``demand`` joined the node.

        Used by placement policy to refuse harmful co-locations before
        they happen.  Returns existing keys plus ``"<candidate>"``.
        """
        node_map = self._demands.get(node_name, {})
        values = self._mix_slowdowns(node_name, tuple(node_map.values()) + (demand,))
        return dict(zip(list(node_map) + ["<candidate>"], values))
