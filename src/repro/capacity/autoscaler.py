"""Predictive warm-pool autoscaling.

The seed system resizes warm pools *on miss*: the first invocation of an
image on a node pays the cold start, and only then is a container parked.
The autoscaler closes that gap the way Kernel-as-a-Service does for
accelerator backends — a periodic control loop compares the forecast
demand against what is already warm and pre-warms the deficit *before*
the invocations arrive.  One loop serves every harvested resource:

1. each tick, observe supply into the forecaster (containers: the
   registered executor cores) and read a warm target per key from the
   demand forecast over the provisioning horizon;
2. the deficit per key is ``target − (warm + in flight)``, where the
   in-flight ledger counts prewarms still starting, per (key, slot);
3. spread the deficit across topology groups with
   :func:`~repro.cluster.group_interleave`, each slot's budget being its
   free room minus its own in-flight prewarms, so a whole-group failure
   cannot take every warm instance with it and a slow cold start cannot
   overfill a slot;
4. start one prewarm process per chosen slot.

This class is the *container* side: keys are images, slots are the
registered executor nodes with room ``max_warm_per_node`` minus parked
containers, and a prewarm starts containers through the normal
``WarmPool.acquire`` path (paying the real cold-start time) and parks
them.  :class:`~repro.gpuservice.GpuService` runs the same loop over
(function, device) contexts with its own target and prewarm.

A node that crashes and heals (``FaultPlan`` node-crash with a recovery
duration) re-registers with an empty pool; the next tick sees the
deficit and re-provisions it — chaos makes the loop visible, not stuck.

With ``predictive=False`` the loop only records supply observations,
giving experiments a true reactive baseline under identical wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from ..cluster.machine import Cluster, group_interleave
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

    def __post_init__(self):
        if self.interval_s <= 0 or self.horizon_s <= 0:
            raise ValueError("interval_s and horizon_s must be positive")
        if not 0.0 <= self.percentile <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        if self.headroom <= 0 or self.max_warm_per_node < 1:
            raise ValueError("invalid headroom/max_warm_per_node")


class WarmPoolAutoscaler:
    """Periodic control loop resizing warm pools ahead of demand."""

    _loop_name = "autoscaler"
    _prewarm_name = "prewarm-{slot}-{key}"

    def __init__(
        self,
        env: Environment,
        manager: ResourceManager,
        cluster: Cluster,
        functions: FunctionRegistry,
        forecaster: DemandForecaster,
        config: Optional[AutoscalerConfig] = None,
    ):
        self._init_loop(env, cluster, forecaster, config)
        self.manager = manager
        self.functions = functions
        self.prewarms = 0
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

    def _init_loop(self, env: Environment, cluster: Cluster,
                   forecaster: DemandForecaster,
                   config: Optional[AutoscalerConfig]) -> None:
        self.env = env
        self.cluster = cluster
        self.forecaster = forecaster
        self.config = config or AutoscalerConfig()
        self._proc = None
        self._inflight: dict[tuple[str, str], int] = {}   # (key, slot) -> n
        self.ticks = 0

    # -- lifecycle ------------------------------------------------------------
    def start(self):
        """Kick off the control loop (idempotent; a daemon, so it never
        keeps an open-ended ``env.run()`` alive)."""
        if self._proc is None or self._proc.triggered:
            self._proc = self.env.process(self._loop(), name=self._loop_name)
            self._proc.daemon = True
        return self._proc

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    # -- the loop --------------------------------------------------------------
    def _loop(self):
        while True:
            yield self.env.timeout(self.config.interval_s)
            self.ticks += 1
            now = self.env.now
            self._observe(now)
            if not self.config.predictive:
                continue
            targets = self._targets(now)
            self._m_target.set(sum(targets.values()))
            for key in sorted(targets):
                self._fill(key, targets[key])

    def _fill(self, key: str, target: int) -> None:
        """Fan ``key``'s deficit out as concurrent per-slot prewarms.

        Cold starts on different slots overlap in time instead of
        queueing behind each other; the in-flight ledger keeps the next
        tick from double-provisioning what is still starting, both in
        the key's deficit and in each slot's budget.
        """
        inflight = {slot: n for (k, slot), n in self._inflight.items() if k == key}
        deficit = target - self._warm(key) - sum(inflight.values())
        if deficit <= 0:
            return
        candidates = [(slot, node, room - inflight.get(slot, 0))
                      for slot, node, room in self._slots(key)]
        per_slot: dict[str, int] = {}
        for slot in group_interleave(self.cluster, candidates)[:deficit]:
            per_slot[slot] = per_slot.get(slot, 0) + 1
        for slot, want in per_slot.items():
            self._inflight[key, slot] = inflight.get(slot, 0) + want
            self.env.process(self._track(key, slot, want),
                             name=self._prewarm_name.format(slot=slot, key=key))

    def _track(self, key: str, slot: str, want: int):
        try:
            yield from self._prewarm(key, slot, want)
        finally:
            left = self._inflight.pop((key, slot)) - want
            if left:
                self._inflight[key, slot] = left

    # -- the container side ----------------------------------------------------
    def _observe(self, now: float) -> None:
        supply = self.manager.total_registered_cores()
        self.forecaster.observe_supply(now, supply)
        self._m_supply.set(supply)

    def _targets(self, now: float) -> dict[str, int]:
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

    def _warm(self, image_name: str) -> int:
        """Containers already serving or parked for ``image_name``."""
        count = 0
        for node_name in self.manager.registered_nodes():
            info = self.manager.node_info(node_name)
            count += info.warm_pool.warm_count_for(image_name)
            if image_name in info.executor._attached:
                count += 1
        return count

    def _slots(self, image_name: str) -> Iterable[tuple[str, str, int]]:
        """(node, node, room below the per-node cap) per executor node."""
        cap = self.config.max_warm_per_node
        for node_name in self.manager.registered_nodes():
            pool = self.manager.node_info(node_name).warm_pool
            yield node_name, node_name, cap - pool.warm_count_for(image_name)

    def _prewarm(self, image_name: str, node_name: str, want: int):
        image = self._image_of(image_name)
        if image is None or not self.manager.is_registered(node_name):
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

    def _image_of(self, image_name: str):
        for fname in self.functions.names():
            fdef = self.functions.lookup(fname)
            if fdef.image.name == image_name:
                return fdef.image
        return None
