"""Cloud-burst overflow routing.

The paper prices harvested HPC capacity against commercial FaaS; the
burst router turns that comparison into a runtime mechanism.  When an
invocation is *admitted* (it passed the quota gate — the platform owes it
an answer) but *unplaceable* (the harvested pool has no room and the
retry budget is spent), the router executes it on the
:class:`~repro.cloudfaas.CloudFaaSPlatform` baseline instead of dropping
it, and accounts what that cost through :mod:`repro.disagg.billing` —
the "cost delta" of not having enough spare supercomputer.

Functions are registered with the cloud platform lazily on first
overflow, mirroring a deploy-on-demand bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cloudfaas.platform import CloudFaaSPlatform, CloudInvocation
from ..disagg.billing import FunctionBill
from ..rfaas.registry import FunctionDef
from ..sim.engine import Environment
from ..telemetry import telemetry_of
from ..telemetry.context import TraceContext

__all__ = ["BurstRecord", "CloudBurstRouter"]

#: Commercial FaaS price premium over harvested core-hours.
PREMIUM = 3.0
#: Harvested-pool prices the premium multiplies.
CORE_HOUR_PRICE = 1.0
GIB_HOUR_PRICE = 0.05
#: Cores billed per cloud invocation (cloud functions are 1-vCPU here).
BILLED_CORES = 1


@dataclass(frozen=True)
class BurstRecord:
    """One overflow invocation: the cloud breakdown plus its bill."""

    invocation: CloudInvocation
    cost: float

    @property
    def latency_s(self) -> float:
        return self.invocation.total_s


class CloudBurstRouter:
    """Sends admitted-but-unplaceable invocations to the cloud baseline."""

    def __init__(self, env: Environment, cloud: CloudFaaSPlatform):
        self.env = env
        self.cloud = cloud
        self._registered: set[str] = set()
        self.bursts = 0
        self.total_cost = 0.0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        metrics.counter(
            "repro_capacity_bursts_total", lambda: self.bursts,
            help="invocations overflowed to the cloud baseline",
        )
        metrics.counter(
            "repro_capacity_burst_cost_total", lambda: self.total_cost,
            help="accumulated cloud-burst bill (currency units)",
        )
        self._m_latency = metrics.histogram(
            "repro_capacity_burst_seconds",
            help="end-to-end latency of cloud-burst invocations",
        )

    def _ensure_registered(self, fdef: FunctionDef) -> None:
        if fdef.name in self._registered:
            return
        self.cloud.register(fdef.name, fdef.image)
        self._registered.add(fdef.name)

    def burst(self, fdef: FunctionDef, payload_bytes: int = 0,
              ctx: Optional[TraceContext] = None):
        """Process body (``yield from``): run ``fdef`` on the cloud.

        Returns a :class:`BurstRecord`; the bill is the cloud run billed
        at :data:`PREMIUM` over harvested-pool prices.
        """
        self._ensure_registered(fdef)
        record: CloudInvocation = yield self.cloud.invoke(
            fdef.name,
            payload_bytes=payload_bytes,
            runtime_s=fdef.runtime_s,
            output_bytes=fdef.output_bytes,
        )
        bill = FunctionBill(
            cores=BILLED_CORES,
            memory_bytes=fdef.image.runtime_memory_bytes,
            duration_s=record.total_s,
            core_hour_price=CORE_HOUR_PRICE * PREMIUM,
            gib_hour_price=GIB_HOUR_PRICE * PREMIUM,
        )
        cost = bill.cost()
        self.bursts += 1
        self.total_cost += cost
        self._m_latency.observe(record.total_s)
        self._tracer.instant(
            "capacity.burst", track="capacity", ctx=ctx,
            function=fdef.name, cold=record.cold,
            latency_s=record.total_s, cost=cost,
        )
        return BurstRecord(invocation=record, cost=cost)
