"""Predictive warm-pool autoscaling.

The seed system resizes warm pools *on miss*: the first invocation of an
image on a node pays the cold start, and only then is a container parked.
The autoscaler closes that gap the way Kernel-as-a-Service does for
accelerator backends — a periodic control loop compares the forecast
demand against the currently parked containers and pre-warms the deficit
*before* the invocations arrive:

1. each tick, observe supply (registered executor cores) into the
   forecaster and read the per-function demand forecast over the
   provisioning horizon;
2. convert it into a warm-container target per image (with headroom);
3. spread the deficit across topology node groups round-robin, so a
   whole-group failure cannot take every warm container with it;
4. start containers through the normal ``WarmPool.acquire`` path (paying
   the real cold-start time in simulation) and park them.

A node that crashes and heals (``FaultPlan`` node-crash with a recovery
duration) re-registers with an empty pool; the next tick sees the
deficit and re-provisions it — chaos makes the loop visible, not stuck.

With ``predictive=False`` the loop only records supply observations,
giving experiments a true reactive baseline under identical wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..cluster.machine import Cluster
from ..cluster.node import AllocationError
from ..rfaas.manager import ResourceManager
from ..rfaas.registry import FunctionRegistry
from ..sim.engine import Environment
from ..telemetry import telemetry_of
from .forecast import DemandForecaster

__all__ = ["AutoscalerConfig", "WarmPoolAutoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop knobs of the warm-pool autoscaler."""

    #: Seconds between control-loop ticks.
    interval_s: float = 0.5
    #: How far ahead demand is provisioned for.
    horizon_s: float = 1.0
    #: Quantile of the sliding-window rate used for sizing.
    percentile: float = 0.9
    #: Multiplier on the forecast (provision above the point estimate).
    headroom: float = 1.2
    #: Cap on warm containers per image per node.
    max_warm_per_node: int = 4
    #: Provision ahead of demand; False = reactive baseline (on-miss only).
    predictive: bool = True
    #: Evict parked containers above target (off: keep-warm-forever).
    shrink: bool = False

    def __post_init__(self):
        if self.interval_s <= 0 or self.horizon_s <= 0:
            raise ValueError("interval_s and horizon_s must be positive")
        if not 0.0 <= self.percentile <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        if self.headroom <= 0 or self.max_warm_per_node < 1:
            raise ValueError("invalid headroom/max_warm_per_node")


class WarmPoolAutoscaler:
    """Periodic control loop resizing warm pools ahead of demand."""

    def __init__(
        self,
        env: Environment,
        manager: ResourceManager,
        cluster: Cluster,
        functions: FunctionRegistry,
        forecaster: DemandForecaster,
        config: Optional[AutoscalerConfig] = None,
    ):
        self.env = env
        self.manager = manager
        self.cluster = cluster
        self.functions = functions
        self.forecaster = forecaster
        self.config = config or AutoscalerConfig()
        self._proc = None
        self._pending: dict[str, int] = {}
        self.prewarms = 0
        self.shrinks = 0
        self.ticks = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_target = metrics.gauge(
            "repro_capacity_warm_target_count",
            help="warm containers the autoscaler is currently aiming for",
        )
        self._m_prewarms = metrics.counter(
            "repro_capacity_prewarms_total",
            help="containers started ahead of demand by the autoscaler",
        )
        self._m_supply = metrics.gauge(
            "repro_capacity_supply_cores_count",
            help="registered executor cores observed at the last tick",
        )

    # -- lifecycle ------------------------------------------------------------
    def start(self):
        """Kick off the control loop (idempotent; a daemon, so it never
        keeps an open-ended ``env.run()`` alive)."""
        if self._proc is None or self._proc.triggered:
            self._proc = self.env.process(self._loop(), name="autoscaler")
            self._proc.daemon = True
        return self._proc

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    # -- sizing ---------------------------------------------------------------
    def _image_targets(self, now: float) -> dict[str, int]:
        """Warm-container target per image name from the demand forecast."""
        targets: dict[str, int] = {}
        for fname in self.forecaster.functions_seen():
            if fname not in self.functions:
                continue
            fdef = self.functions.lookup(fname)
            expected = self.forecaster.forecast_arrivals(
                now, self.config.horizon_s, q=self.config.percentile,
                function=fname,
            )
            target = math.ceil(self.config.headroom * expected)
            if target > 0:
                name = fdef.image.name
                targets[name] = targets.get(name, 0) + target
        return targets

    def _warm_now(self, image_name: str) -> int:
        """Containers already serving or parked for ``image_name``."""
        count = 0
        for node_name in self.manager.registered_nodes():
            info = self.manager.node_info(node_name)
            count += info.warm_pool.warm_count_for(image_name)
            if image_name in info.executor._attached:
                count += 1
        return count

    def _spread(self, deficit: int, image_name: str) -> list[str]:
        """Round-robin the deficit across node groups, then nodes.

        Returns one node name per container to start; nodes already at
        ``max_warm_per_node`` for the image drop out of the rotation.
        """
        groups: dict[int, list[str]] = {}
        for node_name in self.manager.registered_nodes():
            gid = self.cluster.topology.group_of(self.cluster.node_index(node_name))
            groups.setdefault(gid, []).append(node_name)
        rotations = [sorted(names) for _, names in sorted(groups.items())]
        budget = {
            name: max(
                0,
                self.config.max_warm_per_node
                - self.manager.node_info(name).warm_pool.warm_count_for(image_name),
            )
            for rotation in rotations for name in rotation
        }
        placements: list[str] = []
        while len(placements) < deficit and rotations:
            progressed = False
            for rotation in rotations:
                for name in rotation:
                    if budget[name] > 0:
                        placements.append(name)
                        budget[name] -= 1
                        progressed = True
                        break
                if len(placements) >= deficit:
                    break
            if not progressed:
                break  # every node is at its per-node cap
        return placements

    # -- the loop --------------------------------------------------------------
    def _loop(self):
        while True:
            yield self.env.timeout(self.config.interval_s)
            self.ticks += 1
            now = self.env.now
            supply = self.manager.total_registered_cores()
            self.forecaster.observe_supply(now, supply)
            self._m_supply.set(supply)
            if not self.config.predictive:
                continue
            targets = self._image_targets(now)
            self._m_target.set(sum(targets.values()))
            for image_name in sorted(targets):
                self._resize(image_name, targets[image_name])

    def _resize(self, image_name: str, target: int) -> None:
        current = self._warm_now(image_name) + self._pending.get(image_name, 0)
        if current < target:
            self._grow(image_name, target - current)
        elif self.config.shrink and current > target:
            self._shrink(image_name, current - target)

    def _grow(self, image_name: str, deficit: int) -> None:
        """Fan the deficit out as concurrent per-node prewarm processes.

        Cold starts for different (node, image) placements overlap in
        time instead of queueing behind each other — the in-flight count
        in ``_pending`` keeps the next tick from double-provisioning
        containers that are still starting.
        """
        image = self._image_of(image_name)
        if image is None:
            return
        per_node: dict[str, int] = {}
        for node_name in self._spread(deficit, image_name):
            per_node[node_name] = per_node.get(node_name, 0) + 1
        for node_name in sorted(per_node):
            want = per_node[node_name]
            self._pending[image_name] = self._pending.get(image_name, 0) + want
            self.env.process(
                self._grow_node(image, node_name, want),
                name=f"prewarm-{node_name}-{image_name}",
            )

    def _grow_node(self, image, node_name: str, want: int):
        image_name = image.name
        try:
            if not self.manager.is_registered(node_name):
                return
            pool = self.manager.node_info(node_name).warm_pool
            # ``acquire`` hands back an existing warm container before it
            # cold-starts a new one, so to *grow* the pool we hold the
            # warm ones aside until enough fresh containers exist.
            held = []
            created = 0
            while created < want:
                try:
                    acquired = pool.acquire(image)
                except AllocationError:
                    break  # node out of memory; keep what we have
                held.append(acquired.container)
                if acquired.kind == "warm":
                    continue
                created += 1
                if acquired.startup_cost_s > 0:
                    yield self.env.timeout(acquired.startup_cost_s)
                self.prewarms += 1
                self._m_prewarms.inc()
                self._tracer.instant(
                    "capacity.prewarm", track="capacity",
                    node=node_name, image=image_name, kind=acquired.kind,
                )
            # The node may have been reclaimed (or reclaimed and freshly
            # re-registered with a new pool) while containers were
            # starting; only park them if *this* pool is still the live one.
            live = (self.manager.is_registered(node_name)
                    and self.manager.node_info(node_name).warm_pool is pool)
            for container in held:
                if live:
                    pool.release(container)
                else:
                    pool.discard(container)
        finally:
            self._pending[image_name] = max(
                0, self._pending.get(image_name, 0) - want
            )

    def _shrink(self, image_name: str, excess: int) -> None:
        image = self._image_of(image_name)
        if image is None:
            return
        for node_name in reversed(self.manager.registered_nodes()):
            if excess <= 0:
                return
            pool = self.manager.node_info(node_name).warm_pool
            spare = pool.warm_count_for(image_name)
            if spare <= 0:
                continue
            victims = min(spare, excess)
            pool.reclaim(victims * image.runtime_memory_bytes, swap=True)
            self.shrinks += victims
            excess -= victims

    def _image_of(self, image_name: str):
        for fname in self.functions.names():
            fdef = self.functions.lookup(fname)
            if fdef.image.name == image_name:
                return fdef.image
        return None
