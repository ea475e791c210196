"""The GPU disaggregation control plane (accelerator parity, Sec. III-D).

The CPU path got leases, warm pools, autoscaling, and fault recovery;
this module gives accelerators the same treatment:

* **fractional leases** — functions hold MPS-style occupancy +
  device-memory shares through :class:`~repro.gpuservice.GpuLeaseManager`;
* **invocation batching** — queued inference invocations coalesce into
  batched kernel launches (:class:`~repro.gpuservice.GpuBatcher`), the
  throughput trick of kernel-as-a-service backends: per-launch fixed
  costs amortize across the batch, so device time per request falls as
  ``T(B)/B`` with ``T(B) = setup + K·(launch + kernel·(1+(B−1)·m))``,
  ``m < 1`` the marginal cost of one more batch element;
* **warm device contexts** — a prewarmed (device, function) pair has
  its CUDA context initialized and its dataset resident
  (``GpuDevice.keep_warm``), so batches skip context setup and the
  host-to-device weight transfer; with ``autoscale`` set, the capacity
  plane's :class:`~repro.capacity.WarmPoolAutoscaler` loop prewarms
  contexts ahead of forecast demand;
* **fault recovery** — ``FaultPlan.gpu_device_loss`` revokes the lost
  devices' leases (:class:`~repro.rfaas.GpuLeaseRevokedError`), and the
  service replays queued *and* in-flight batched invocations on
  surviving devices, billing the wasted attempts through
  :class:`~repro.disagg.billing.FunctionBill`.

Tracing: every submission opens a ``gpu.request`` root span; each
coalesced launch records one ``gpu.batch`` span with one
``gpu.batch.item`` child per request, stamped with the *request's*
``trace_id`` — so a request's causal trace spans submission →
(revocation → replay …) → completion even when it hops devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from ..capacity.autoscaler import AutoscalerConfig, WarmPoolAutoscaler
from ..capacity.forecast import DemandForecaster
from ..cluster.machine import Cluster
from ..cluster.specs import GpuSpec, P100
from ..disagg.billing import FunctionBill
from ..faults.plan import FaultKind
from ..gpu.device import GpuDevice, GpuMemoryError
from ..gpu.gpu_function import GpuFunctionSpec
from ..rfaas.errors import GpuLeaseRevokedError, NoCapacityError
from ..sim.engine import Environment, Event, Interrupt, Process
from ..telemetry import telemetry_of
from ..telemetry.context import TraceContext
from ..telemetry.span import SpanKind
from .batcher import BatchPolicy, GpuBatcher
from .lease import GpuLease, GpuLeaseManager

__all__ = ["GpuServiceConfig", "GpuRequest", "GpuService"]


@dataclass(frozen=True)
class GpuServiceConfig:
    """Shape and cost model of the GPU fleet."""

    #: Host node names; empty = the first ``gpu_nodes`` cluster nodes.
    hosts: tuple[str, ...] = ()
    #: Number of hosting nodes when ``hosts`` is empty.
    gpu_nodes: int = 2
    #: Devices attached to each hosting node.
    devices_per_host: int = 1
    gpu_spec: GpuSpec = P100
    policy: BatchPolicy = BatchPolicy()
    #: Warm-pool autoscaling config; None = no control loop.
    autoscale: Optional[AutoscalerConfig] = None
    pcie_bandwidth: float = 12e9
    #: Cold cost of initializing a device context for a function.
    context_setup_s: float = 0.005
    #: Fixed cost of dispatching one batched launch.
    setup_s: float = 150e-6
    #: Per-kernel launch overhead inside a batch.
    launch_overhead_s: float = 20e-6
    #: Marginal kernel-time cost of one more batch element (< 1 is the
    #: whole point of batching).
    batch_marginal: float = 0.15
    #: Replay attempts per request before it fails with the lease error.
    max_replays: int = 3

    def __post_init__(self):
        if not self.hosts and self.gpu_nodes < 1:
            raise ValueError("need at least one GPU host")
        if self.devices_per_host < 1:
            raise ValueError("devices_per_host must be >= 1")
        if self.pcie_bandwidth <= 0:
            raise ValueError("pcie_bandwidth must be positive")
        if min(self.context_setup_s, self.setup_s, self.launch_overhead_s) < 0:
            raise ValueError("negative cost parameter")
        if not 0 <= self.batch_marginal <= 1:
            raise ValueError("batch_marginal must be in [0, 1]")
        if self.max_replays < 0:
            raise ValueError("max_replays must be non-negative")


class GpuRequest:
    """One submitted GPU invocation; resolve by yielding ``done``."""

    __slots__ = ("req_id", "function", "submitted_at", "ctx", "done",
                 "attempts", "span")

    def __init__(self, req_id: int, function: str, submitted_at: float,
                 ctx: TraceContext, done: Event, span):
        self.req_id = req_id
        self.function = function
        self.submitted_at = submitted_at
        self.ctx = ctx
        self.done = done
        self.attempts = 0
        self.span = span


class _Slot:
    """One attached device: identity, liveness, warm (function) contexts."""

    __slots__ = ("device", "node", "online", "warm", "inflight")

    def __init__(self, device: GpuDevice, node: str):
        self.device = device
        self.node = node
        self.online = True
        self.warm: set[str] = set()
        self.inflight: set[Process] = set()


class GpuService:
    """Leases, batches, prewarms, and heals a fleet of GPU devices."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: Optional[GpuServiceConfig] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.config = config or GpuServiceConfig()
        hosts = self.config.hosts
        for host in hosts:
            if host not in cluster:
                raise ValueError(f"GPU host {host!r} is not a cluster node")
        if not hosts:
            names = [node.name for node in cluster.nodes()]
            if len(names) < self.config.gpu_nodes:
                raise ValueError(
                    f"cluster has {len(names)} nodes, config wants "
                    f"{self.config.gpu_nodes} GPU hosts"
                )
            hosts = tuple(names[: self.config.gpu_nodes])
        self.hosts = hosts
        self.leases = GpuLeaseManager(env)
        self._slots: dict[str, _Slot] = {}
        for host in hosts:
            for i in range(self.config.devices_per_host):
                name = f"{host}/gpu{i}"
                slot = _Slot(GpuDevice(env, self.config.gpu_spec, name=name), host)
                self._slots[name] = slot
                self.leases.add_device(slot.device, host)
        self.batcher = GpuBatcher(env, self.config.policy, self._on_flush)
        self.forecaster = DemandForecaster()
        self.autoscaler = None
        if self.config.autoscale is not None:
            self.autoscaler = _WarmContexts(self, self.config.autoscale)
        self._functions: dict[str, GpuFunctionSpec] = {}
        self._lease_of: dict[str, GpuLease] = {}
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.replays = 0
        self.replay_cost = 0.0
        self.prewarms = 0
        self.devices_lost = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_requests = metrics.counter(
            "repro_gpu_requests_total", help="GPU invocations submitted")
        self._m_batches = metrics.counter(
            "repro_gpu_batches_total", help="coalesced batch launches")
        self._m_batch_size = metrics.histogram(
            "repro_gpu_batch_size_count",
            help="requests per coalesced launch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._m_batch_wait = metrics.histogram(
            "repro_gpu_batch_wait_seconds",
            help="time a request waited for its batch to form",
        )
        self._m_latency = metrics.histogram(
            "repro_gpu_request_latency_seconds",
            help="submit-to-completion latency per request",
        )
        self._m_replays = metrics.counter(
            "repro_gpu_replays_total",
            help="invocations replayed after a device loss",
        )
        self._m_replay_cost = metrics.counter(
            "repro_gpu_replay_cost_total",
            help="billed cost of attempts wasted by device loss",
        )
        self._m_prewarms = metrics.counter(
            "repro_gpu_prewarms_total",
            help="(device, function) contexts warmed ahead of demand",
        )
        self._m_transferred = metrics.counter(
            "repro_gpu_transferred_bytes",
            help="host-to-device bytes moved over PCIe",
        )
        self._m_online = metrics.gauge(
            "repro_gpu_devices_online_count", help="devices currently online")
        self._m_online.set(len(self._slots))

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "GpuService":
        """Start background loops (the autoscaler, when configured)."""
        if self.autoscaler is not None:
            self.autoscaler.start()
        return self

    # -- registry -------------------------------------------------------------
    def register(self, spec: GpuFunctionSpec) -> GpuFunctionSpec:
        self._functions[spec.name] = spec
        return spec

    # -- fleet views ----------------------------------------------------------
    def hosting_nodes(self) -> list[str]:
        """Nodes with at least one online device, sorted (injector contract)."""
        return sorted({s.node for s in self._slots.values() if s.online})

    def devices_online(self) -> list[str]:
        return sorted(n for n, s in self._slots.items() if s.online)

    def online_slots(self) -> list[tuple[str, str]]:
        """(device, node) pairs for online devices, sorted by device name."""
        return [(n, self._slots[n].node) for n in self.devices_online()]

    def is_warm(self, function: str, device: str) -> bool:
        slot = self._slots.get(device)
        return bool(slot and slot.online and function in slot.warm)

    def warm_devices_for(self, function: str) -> list[str]:
        return [n for n in self.devices_online()
                if function in self._slots[n].warm]

    # -- the hot path ---------------------------------------------------------
    def submit(self, function: str,
               ctx: Optional[TraceContext] = None) -> GpuRequest:
        """Queue one invocation; yield ``.done`` for its result dict."""
        if function not in self._functions:
            raise ValueError(f"unknown GPU function {function!r}")
        now = self.env.now
        self.forecaster.observe_arrival(now, function)
        if ctx is None:
            ctx = TraceContext.mint()
        span = self._tracer.begin(
            SpanKind.GPU_REQUEST, track="gpu", ctx=ctx, function=function,
        )
        request = GpuRequest(
            req_id=self.env.next_id("gpu-request"),
            function=function,
            submitted_at=now,
            ctx=ctx.child(span.span_id),
            done=self.env.event(),
            span=span,
        )
        self.submitted += 1
        self._m_requests.inc()
        self._dispatch(request)
        return request

    def _dispatch(self, request: GpuRequest) -> None:
        spec = self._functions[request.function]
        device = self._route(request.function, spec)
        self.batcher.enqueue(device, request.function, request)

    def _route(self, function: str, spec: GpuFunctionSpec) -> str:
        """The function's leased device, granting a fresh lease if needed."""
        lease = self._lease_of.get(function)
        if lease is not None and lease.is_active:
            return lease.device
        lease = self.leases.grant(
            function, spec.occupancy, spec.device_memory_bytes
        )
        self._lease_of[function] = lease
        return lease.device

    def _on_flush(self, device: str, function: str, batch: list,
                  trigger: str) -> None:
        slot = self._slots[device]
        slot.inflight = {p for p in slot.inflight if p.is_alive}
        process = self.env.process(
            self._run_batch(device, function, batch, trigger),
            name=f"gpu-batch:{device}:{function}",
        )
        slot.inflight.add(process)

    def _batch_device_time(self, spec: GpuFunctionSpec, size: int) -> float:
        """Kernel-sequence time of one coalesced launch of ``size`` requests."""
        per_kernel = self.config.launch_overhead_s + spec.kernel_time_s * (
            1.0 + (size - 1) * self.config.batch_marginal
        )
        return spec.kernel_count * per_kernel

    def _run_batch(self, device: str, function: str, batch: list,
                   trigger: str):
        slot = self._slots[device]
        spec = self._functions[function]
        size = len(batch)
        env = self.env
        span = self._tracer.begin(
            SpanKind.GPU_BATCH, track="gpu",
            device=device, function=function, size=size, trigger=trigger,
        )
        items = []
        for request in batch:
            self._m_batch_wait.observe(env.now - request.submitted_at)
            item = self._tracer.begin(
                SpanKind.GPU_BATCH_ITEM, track="gpu",
                ctx=TraceContext(request.ctx.trace_id, span.span_id),
                request=request.req_id, attempt=request.attempts,
            )
            items.append(item)
        try:
            if function not in slot.warm:
                # Cold: initialize the context and move the dataset over
                # PCIe, then park it warm so the next batch skips both.
                yield env.timeout(self.config.context_setup_s)
                yield env.timeout(
                    spec.device_memory_bytes / self.config.pcie_bandwidth
                )
                self._m_transferred.inc(spec.device_memory_bytes)
                try:
                    slot.device.keep_warm(function, spec.device_memory_bytes)
                except GpuMemoryError:
                    pass  # caching is best-effort; the batch still runs
                slot.warm.add(function)
            else:
                slot.device.has_warm(function)  # refresh the LRU stamp
            yield env.timeout(
                size * spec.input_bytes / self.config.pcie_bandwidth
            )
            self._m_transferred.inc(size * spec.input_bytes)
            yield env.timeout(self.config.setup_s)
            yield slot.device.launch(
                function, self._batch_device_time(spec, size), spec.occupancy
            )
        except Interrupt as interrupt:
            for item in items:
                self._tracer.finish(item, error=FaultKind.GPU_DEVICE_LOSS)
            self._tracer.finish(span, error=FaultKind.GPU_DEVICE_LOSS)
            self._replay(batch, lost_device=device, cause=interrupt.cause)
            return
        self.batches += 1
        self._m_batches.inc()
        self._m_batch_size.observe(size)
        self._tracer.finish(span, device_time_s=self._batch_device_time(spec, size))
        now = env.now
        for request, item in zip(batch, items):
            self._tracer.finish(item)
            latency = now - request.submitted_at
            self._m_latency.observe(latency)
            self._tracer.finish(
                request.span, latency_s=latency, batch_size=size,
                device=device, replays=request.attempts,
            )
            self.completed += 1
            request.done.succeed({
                "function": function,
                "latency_s": latency,
                "batch_size": size,
                "device": device,
                "replays": request.attempts,
            })

    # -- fault recovery -------------------------------------------------------
    def _replay(self, batch: list, lost_device: str, cause: Any) -> None:
        """Re-run an interrupted batch's requests on surviving devices."""
        for request in batch:
            request.attempts += 1
            self.replays += 1
            self._m_replays.inc()
            spec = self._functions[request.function]
            wasted = FunctionBill(
                cores=1, memory_bytes=spec.device_memory_bytes,
                duration_s=spec.device_time_s, gpus=1,
            ).cost()
            self.replay_cost += wasted
            self._m_replay_cost.inc(wasted)
            self._tracer.instant(
                "gpu.replay", track="gpu", ctx=request.ctx,
                request=request.req_id, from_device=lost_device,
                attempt=request.attempts,
            )
            if request.attempts > self.config.max_replays:
                self._fail(request, GpuLeaseRevokedError(
                    f"request {request.req_id} exhausted "
                    f"{self.config.max_replays} replays",
                    device=lost_device, cause=cause,
                ), error="replays_exhausted")
                continue
            self._redispatch(request)

    def _redispatch(self, request: GpuRequest) -> None:
        try:
            self._dispatch(request)
        except NoCapacityError as exc:
            self._fail(request, exc, error="no_gpu_capacity")

    def _fail(self, request: GpuRequest, exc: Exception, error: str) -> None:
        self.failed += 1
        self._tracer.finish(request.span, error=error)
        request.done.fail(exc)

    def lose_node(self, node: str,
                  cause: Any = FaultKind.GPU_DEVICE_LOSS) -> int:
        """Lose every online device on ``node`` (the injector hook).

        Leases on the lost devices are revoked, queued requests are
        re-routed immediately, and in-flight batch processes are
        interrupted — they replay their requests on surviving devices
        (or fail them with :class:`GpuLeaseRevokedError` when none
        remain).  Returns the number of devices lost.
        """
        lost = 0
        for name in sorted(self._slots):
            slot = self._slots[name]
            if slot.node != node or not slot.online:
                continue
            slot.online = False
            slot.warm.clear()
            lost += 1
            self.devices_lost += 1
            for lease in self.leases.leases_on(name):
                self._lease_of.pop(lease.function, None)
            self.leases.remove_device(name, cause=cause)
            for request in self.batcher.drain(device=name):
                self.replays += 1
                self._m_replays.inc()
                self._tracer.instant(
                    "gpu.replay", track="gpu", ctx=request.ctx,
                    request=request.req_id, from_device=name,
                    attempt=request.attempts,
                )
                self._redispatch(request)
            for process in list(slot.inflight):
                if process.is_alive:
                    process.interrupt(cause=cause)
            slot.inflight.clear()
        self._m_online.set(len(self.devices_online()))
        return lost

    def restore_node(self, node: str) -> int:
        """Bring the node's devices back *cold* (warm data is gone)."""
        restored = 0
        for name in sorted(self._slots):
            slot = self._slots[name]
            if slot.node != node or slot.online:
                continue
            slot.device = GpuDevice(self.env, self.config.gpu_spec, name=name)
            slot.online = True
            self.leases.add_device(slot.device, node)
            restored += 1
        if restored:
            self._m_online.set(len(self.devices_online()))
        return restored

    # -- prewarming (used by the autoscaler loop) -----------------------------
    def prewarm(self, function: str, device: str):
        """Generator: warm one (device, function) context ahead of demand."""
        slot = self._slots.get(device)
        spec = self._functions.get(function)
        if slot is None or spec is None or not slot.online:
            return
        if function in slot.warm:
            return
        yield self.env.timeout(self.config.context_setup_s)
        yield self.env.timeout(
            spec.device_memory_bytes / self.config.pcie_bandwidth
        )
        if not slot.online or function in slot.warm:
            return  # lost, or raced with a cold batch, while transferring
        self._m_transferred.inc(spec.device_memory_bytes)
        try:
            slot.device.keep_warm(function, spec.device_memory_bytes)
        except GpuMemoryError:
            return
        slot.warm.add(function)
        self.prewarms += 1
        self._m_prewarms.inc()
        self._tracer.instant(
            "gpu.prewarm", track="gpu", device=device, function=function,
        )


class _WarmContexts(WarmPoolAutoscaler):
    """The warm-pool loop over (function, device) contexts.

    A warm device absorbs up to ``max_batch_size`` requests per batch,
    so a function's target is ``ceil(headroom · forecast /
    max_batch_size)`` devices, clamped to the online fleet.  Slots are
    the online devices, grouped by host; each holds at most one context
    per function.
    """

    _loop_name = "gpu-autoscaler"
    _prewarm_name = "gpu-prewarm:{slot}:{key}"

    def __init__(self, service: GpuService, config: AutoscalerConfig):
        self._init_loop(service.env, service.cluster, service.forecaster, config)
        self.service = service
        self._m_target = telemetry_of(service.env).metrics.gauge(
            "repro_gpu_warm_target_count",
            help="warm (device, function) contexts the autoscaler aims for",
        )

    def _observe(self, now: float) -> None:
        pass

    def _targets(self, now: float) -> dict[str, int]:
        online = len(self.service.devices_online())
        per_device = max(1, self.service.config.policy.max_batch_size)
        targets: dict[str, int] = {}
        for function in self.forecaster.functions_seen():
            if function not in self.service._functions:
                continue
            expected = self.forecaster.forecast_arrivals(
                now, self.config.horizon_s, q=self.config.percentile,
                function=function,
            )
            targets[function] = min(
                online, math.ceil(self.config.headroom * expected / per_device))
        return targets

    def _warm(self, function: str) -> int:
        return len(self.service.warm_devices_for(function))

    def _slots(self, function: str):
        for device, node in self.service.online_slots():
            yield device, node, 0 if self.service.is_warm(function, device) else 1

    def _prewarm(self, function: str, device: str, want: int):
        return self.service.prewarm(function, device)
