"""The capacity plane: one front door over forecast → admit → place → burst.

``CapacityPlane.invoke`` is the governed counterpart of
``RFaaSClient.invoke``; every invocation that enters it leaves in exactly
one of three ways (the *no silent drops* invariant):

* **hpc** — admitted and served on harvested capacity (possibly after
  the client's normal retry/redirect recovery);
* **cloud** — admitted but unplaceable on the harvested pool, executed
  on the :class:`~repro.cloudfaas.CloudFaaSPlatform` overflow with the
  cost delta accounted;
* **rejected** — explicit backpressure (:class:`AdmissionRejected`), or
  unplaceable with bursting disabled.

The plane also feeds every arrival into the demand forecaster (the
autoscaler's signal) and optionally returns a tenant's lease when its
last in-flight invocation finishes, so parked-but-idle executor cores
flow back to the pool instead of starving other tenants into the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..cloudfaas.platform import CloudFaaSPlatform
from ..faults.recovery import DegradedResult
from ..rfaas.client import RFaaSClient
from ..rfaas.errors import AdmissionRejected
from ..sim.engine import Environment
from ..telemetry import telemetry_of
from ..telemetry.context import TraceContext
from ..telemetry.span import SpanKind
from .admission import AdmissionConfig, AdmissionController
from .autoscaler import WarmPoolAutoscaler
from .burst import BurstRecord, CloudBurstRouter
from .forecast import DemandForecaster

__all__ = ["CapacityConfig", "CapacityResult", "CapacityPlane"]


@dataclass(frozen=True)
class CapacityConfig:
    """Aggregate configuration of the capacity control plane."""

    #: Warm pools ahead of forecast demand; False = the reactive
    #: baseline (on-miss only) under identical wiring.
    predictive: bool = True
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Route admitted-but-unplaceable invocations to the cloud baseline.
    burst_enabled: bool = True


@dataclass
class CapacityResult:
    """How one governed invocation concluded."""

    function: str
    tenant: str
    route: str                          # "hpc" | "cloud" | "rejected"
    ok: bool
    latency_s: float
    queue_wait_s: float = 0.0
    hpc: Optional[DegradedResult] = None
    cloud: Optional[BurstRecord] = None
    cost: float = 0.0
    startup_kind: Optional[str] = None  # hpc route: attached/warm/swapped/cold
    error: Optional[Exception] = None


#: route -> the :class:`CapacityPlane` count that
#: ``repro_capacity_invocations_total`` reads for it.
_ROUTE_COUNTS = {"hpc": "completed", "cloud": "bursts", "rejected": "rejected"}


class CapacityPlane:
    """Forecast, admission, autoscaling, and overflow behind one call."""

    def __init__(
        self,
        env: Environment,
        manager,
        cluster,
        functions,
        cloud: Optional[CloudFaaSPlatform] = None,
        config: Optional[CapacityConfig] = None,
    ):
        self.env = env
        self.manager = manager
        self.functions = functions
        self.config = config or CapacityConfig()
        self.forecaster = DemandForecaster()
        self.admission = AdmissionController(env, self.config.admission)
        self.autoscaler = WarmPoolAutoscaler(
            env, manager, cluster, functions, self.forecaster,
            predictive=self.config.predictive,
        )
        self.router: Optional[CloudBurstRouter] = None
        if self.config.burst_enabled:
            if cloud is None:
                raise ValueError("burst_enabled requires a cloud platform")
            self.router = CloudBurstRouter(env, cloud)
        self._inflight: dict[str, int] = {}
        self.invocations = 0
        self.completed = 0
        self.rejected = 0
        self.bursts = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        self._metrics = telemetry.metrics
        self._m_latency: dict[str, Any] = {}

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Start the autoscaler control loop."""
        self.autoscaler.start()

    # -- accounting helpers ----------------------------------------------------
    def _record_route(self, route: str, latency_s: float) -> None:
        histogram = self._m_latency.get(route)
        if histogram is None:
            count = _ROUTE_COUNTS[route]
            self._metrics.counter(
                "repro_capacity_invocations_total",
                lambda: getattr(self, count), labels={"route": route},
                help="governed invocations, by final route",
            )
            histogram = self._metrics.histogram(
                "repro_capacity_latency_seconds", labels={"route": route},
                help="end-to-end latency of governed invocations, by route",
            )
            self._m_latency[route] = histogram
        histogram.observe(latency_s)

    def _enter(self, tenant: str) -> None:
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1

    def _leave(self, tenant: str, client: RFaaSClient) -> None:
        remaining = self._inflight.get(tenant, 1) - 1
        if remaining > 0:
            self._inflight[tenant] = remaining
            return
        # The tenant's last in-flight invocation ended: free its lease.
        self._inflight.pop(tenant, None)
        if not client.closed:
            client.release_lease()

    # -- the governed invocation ------------------------------------------------
    def invoke(self, client: RFaaSClient, function: str,
               payload_bytes: int = 0, tenant: Optional[str] = None,
               priority: int = 1):
        """Process: one governed invocation; yields a :class:`CapacityResult`."""
        return self.env.process(
            self._invoke(client, function, payload_bytes,
                         tenant or client.name, priority),
            name=f"capacity-{function}",
        )

    def _invoke(self, client: RFaaSClient, function: str,
                payload_bytes: int, tenant: str, priority: int):
        fdef = self.functions.lookup(function)
        t_begin = self.env.now
        self.invocations += 1
        self.forecaster.observe_arrival(t_begin, function)
        # The plane is the front door: it mints the trace identity here,
        # and every hop downstream — admission, client attempts, executor
        # dispatch, cloud burst — joins the same causal tree.
        root_span = None
        ctx: Optional[TraceContext] = None
        if self._tracer.enabled:
            ctx = self._tracer.mint()
            root_span = self._tracer.begin(
                SpanKind.CAPACITY, track="capacity", ctx=ctx,
                function=function, tenant=tenant, priority=priority,
            )
            ctx = ctx.child(root_span.span_id)

        def conclude(route: str) -> None:
            if root_span is not None:
                self._tracer.finish(root_span, route=route)

        try:
            queue_wait = yield from self.admission.admit(tenant, priority, ctx=ctx)
        except AdmissionRejected as err:
            self.rejected += 1
            latency = self.env.now - t_begin
            self._record_route("rejected", latency)
            conclude("rejected")
            return CapacityResult(
                function=function, tenant=tenant, route="rejected", ok=False,
                latency_s=latency, error=err,
            )
        self._enter(tenant)
        try:
            degraded: DegradedResult = yield client.invoke_detailed(
                function, payload_bytes=payload_bytes, ctx=ctx
            )
        finally:
            self._leave(tenant, client)
        if degraded.ok:
            self.completed += 1
            latency = self.env.now - t_begin
            self._record_route("hpc", latency)
            conclude("hpc")
            return CapacityResult(
                function=function, tenant=tenant, route="hpc", ok=True,
                latency_s=latency, queue_wait_s=queue_wait, hpc=degraded,
                startup_kind=degraded.result.startup_kind,
            )
        # Admitted but unplaceable (no capacity / budget spent / deadline):
        # the platform still owes an answer — overflow to the cloud.
        if self.router is not None:
            record: BurstRecord = yield from self.router.burst(
                fdef, payload_bytes=payload_bytes, ctx=ctx
            )
            self.bursts += 1
            latency = self.env.now - t_begin
            self._record_route("cloud", latency)
            conclude("cloud")
            return CapacityResult(
                function=function, tenant=tenant, route="cloud", ok=True,
                latency_s=latency, queue_wait_s=queue_wait, hpc=degraded,
                cloud=record, cost=record.cost,
            )
        self.rejected += 1
        latency = self.env.now - t_begin
        self._record_route("rejected", latency)
        conclude("rejected")
        return CapacityResult(
            function=function, tenant=tenant, route="rejected", ok=False,
            latency_s=latency, queue_wait_s=queue_wait, hpc=degraded,
            error=degraded.error,
        )

    # -- aggregate view ----------------------------------------------------------
    def stats(self) -> dict:
        """Conservation-friendly aggregate counters (sorted keys)."""
        return {
            "bursts": self.bursts,
            "burst_cost": self.router.total_cost if self.router else 0.0,
            "completed": self.completed,
            "invocations": self.invocations,
            "prewarms": self.autoscaler.prewarms,
            "rejected": self.rejected,
        }
