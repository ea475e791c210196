"""GPU warm-pool autoscaling: prewarm device contexts ahead of demand.

The CPU warm-pool autoscaler
(:class:`~repro.capacity.WarmPoolAutoscaler`) parks containers before
invocations arrive; its GPU counterpart parks *warm device contexts* —
a (device, function) pair with the CUDA context initialized and the
function's dataset resident in device memory — so the first batch after
a demand ramp skips both the context setup and the host-to-device
weight transfer.

The loop reuses the capacity plane's machinery wholesale: the same
:class:`~repro.capacity.DemandForecaster` (EWMA ⊔ window-percentile
arrival forecast) and the same :class:`~repro.capacity.AutoscalerConfig`
knobs (tick interval, horizon, percentile, headroom), and the same
topology-aware spreading — prewarmed contexts for one function land on
devices in *different* Dragonfly groups round-robin, so a group-wide
failure cannot take every warm context with it.

Sizing: a warm device absorbs up to ``max_batch_size`` requests per
batch, so the device target for a function is
``ceil(headroom · forecast_arrivals / max_batch_size)`` clamped to the
online fleet.
"""

from __future__ import annotations

import math
from typing import Optional

from ..capacity.autoscaler import AutoscalerConfig
from ..capacity.forecast import DemandForecaster
from ..cluster.machine import Cluster
from ..sim.engine import Environment
from ..telemetry import telemetry_of

__all__ = ["GpuWarmPoolAutoscaler"]


class GpuWarmPoolAutoscaler:
    """Periodic control loop prewarming (device, function) contexts."""

    def __init__(
        self,
        env: Environment,
        service,                      # GpuService (late import avoids a cycle)
        cluster: Cluster,
        forecaster: DemandForecaster,
        config: Optional[AutoscalerConfig] = None,
    ):
        self.env = env
        self.service = service
        self.cluster = cluster
        self.forecaster = forecaster
        self.config = config or AutoscalerConfig()
        self._proc = None
        self._pending: set[tuple[str, str]] = set()   # (function, device)
        self.ticks = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        self._m_target = telemetry.metrics.gauge(
            "repro_gpu_warm_target_count",
            help="warm (device, function) contexts the autoscaler aims for",
        )

    # -- lifecycle ------------------------------------------------------------
    def start(self):
        """Kick off the control loop (idempotent; a daemon, so it never
        keeps an open-ended ``env.run()`` alive)."""
        if self._proc is None or self._proc.triggered:
            self._proc = self.env.process(self._loop(), name="gpu-autoscaler")
            self._proc.daemon = True
        return self._proc

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    # -- sizing ---------------------------------------------------------------
    def _target_for(self, function: str, now: float, online: int) -> int:
        expected = self.forecaster.forecast_arrivals(
            now, self.config.horizon_s, q=self.config.percentile,
            function=function,
        )
        if expected <= 0:
            return 0
        per_device = max(1, self.service.config.policy.max_batch_size)
        return min(online, math.ceil(self.config.headroom * expected / per_device))

    def _spread(self, function: str, deficit: int) -> list[str]:
        """Candidate devices round-robin across topology groups.

        Devices already warm (or warming) for the function drop out;
        unknown hosts (not in the cluster) collapse into one group.
        """
        groups: dict[int, list[str]] = {}
        for device, node in self.service.online_slots():
            if self.service.is_warm(function, device):
                continue
            if (function, device) in self._pending:
                continue
            try:
                gid = self.cluster.topology.group_of(self.cluster.node_index(node))
            except KeyError:
                gid = -1
            groups.setdefault(gid, []).append(device)
        rotations = [names for _, names in sorted(groups.items())]
        placements: list[str] = []
        while len(placements) < deficit and rotations:
            progressed = False
            for rotation in rotations:
                if rotation:
                    placements.append(rotation.pop(0))
                    progressed = True
                if len(placements) >= deficit:
                    break
            if not progressed:
                break
        return placements

    # -- the loop -------------------------------------------------------------
    def _loop(self):
        while True:
            yield self.env.timeout(self.config.interval_s)
            self.ticks += 1
            now = self.env.now
            online = len(self.service.devices_online())
            total_target = 0
            for function in self.forecaster.functions_seen():
                if self.service._functions.get(function) is None:
                    continue
                target = self._target_for(function, now, online)
                total_target += target
                warm = len(self.service.warm_devices_for(function)) + sum(
                    1 for fn, _ in self._pending if fn == function
                )
                if warm >= target:
                    continue
                for device in self._spread(function, target - warm):
                    self._pending.add((function, device))
                    self.env.process(
                        self._prewarm(function, device),
                        name=f"gpu-prewarm:{device}:{function}",
                    )
            self._m_target.set(total_target)

    def _prewarm(self, function: str, device: str):
        try:
            yield from self.service.prewarm(function, device)
        finally:
            self._pending.discard((function, device))
