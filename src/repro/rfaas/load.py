"""Per-node load registry: who is consuming what, right now.

The interference model needs the full tenant mix of a node to compute a
slowdown.  Batch jobs and running invocations register their demand
vectors here; the executor queries the registry at invocation start to
dilate execution time.

The model is a pure function of the tenant mix, and a node's mix is
rebuilt on every invocation start but recurs constantly.  So the
registry memoizes it: ``_memo`` maps ``(spec, demands in registration
order)`` to the tuple of slowdowns, and every query (``slowdowns``,
``slowdown_of``, ``preview_slowdown``) reads through it.  The key is by
mix, not by node, because ``add``/``remove`` change a node's mix right
before each query.  The memo lives on the registry, not in a module
global, so it dies with its platform.
"""

from __future__ import annotations

from ..cluster.machine import Cluster
from ..interference.model import InterferenceModel, ResourceDemand

__all__ = ["NodeLoadRegistry"]


class NodeLoadRegistry:
    """Tracks the active demand vectors of every node."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.model = InterferenceModel()
        self._demands: dict[str, dict[str, ResourceDemand]] = {}
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

    # -- queries ------------------------------------------------------------------
    def demands(self, node_name: str) -> dict[str, ResourceDemand]:
        return dict(self._demands.get(node_name, {}))

    def _mix_slowdowns(self, node_name: str, demands: tuple[ResourceDemand, ...]) -> tuple[float, ...]:
        """The model's slowdowns for ``demands`` on the node, memoized by mix."""
        spec = self.cluster.node(node_name).spec
        key = (spec, demands)
        values = self._memo.get(key)
        if values is None:
            # An over-subscribed mix raises PlacementError here, uncached.
            values = tuple(self.model.slowdowns(spec, demands))
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
