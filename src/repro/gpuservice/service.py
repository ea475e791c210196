"""The GPU disaggregation control plane (accelerator parity, Sec. III-D).

The CPU path got leases, warm pools, and fault recovery; this module
gives accelerators the same treatment:

* **fractional leases** — functions hold MPS-style occupancy +
  device-memory shares through :class:`~repro.gpuservice.GpuLeaseManager`;
* **invocation batching** — queued inference invocations coalesce into
  batched kernel launches (:class:`~repro.gpuservice.GpuBatcher`), the
  throughput trick of kernel-as-a-service backends: per-launch fixed
  costs amortize across the batch, so device time per request falls as
  ``T(B)/B`` with ``T(B) = setup + K·(launch + kernel·(1+(B−1)·m))``,
  ``m < 1`` the marginal cost of one more batch element;
* **warm device contexts** — a function's first batch on a device
  initializes its CUDA context and moves its dataset over PCIe, then
  parks it resident (``GpuDevice.keep_warm``), so later batches skip
  context setup and the host-to-device weight transfer;
* **fault recovery** — ``FaultPlan.gpu_device_loss`` revokes the lost
  devices' leases (:class:`~repro.rfaas.GpuLeaseRevokedError`), and the
  service replays queued *and* in-flight batched invocations on
  surviving devices, billing the wasted attempts through
  :class:`~repro.disagg.billing.FunctionBill`.

Tracing: under an enabled tracer every submission opens a
``gpu.request`` root span; each coalesced launch records one
``gpu.batch`` span with one ``gpu.batch.item`` child per request,
stamped with the *request's* ``trace_id`` — so a request's causal trace
spans submission → (revocation → replay …) → completion even when it
hops devices.  Untraced, a request carries no context and no span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..cluster.machine import Cluster
from ..cluster.specs import P100
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


#: Devices attached to each hosting node.
DEVICES_PER_HOST = 1
#: The attached device: the paper's Tesla P100 (Sec. IV-F).
GPU_SPEC = P100
#: Host-to-device PCIe bandwidth, bytes/s.
PCIE_BANDWIDTH = 12e9
#: Cold cost of initializing a device context for a function.
CONTEXT_SETUP_S = 0.005
#: Fixed cost of dispatching one batched launch.
SETUP_S = 150e-6
#: Per-kernel launch overhead inside a batch.
LAUNCH_OVERHEAD_S = 20e-6
#: Marginal kernel-time cost of one more batch element (< 1 is the
#: whole point of batching).
BATCH_MARGINAL = 0.15
#: Replay attempts per request before it fails with the lease error.
MAX_REPLAYS = 3


@dataclass(frozen=True)
class GpuServiceConfig:
    """How many nodes host a GPU, and how their invocations batch."""

    #: The GPU hosts are the first ``gpu_nodes`` cluster nodes.
    gpu_nodes: int = 2
    policy: BatchPolicy = BatchPolicy()

    def __post_init__(self):
        if self.gpu_nodes < 1:
            raise ValueError("need at least one GPU host")


def batch_device_time(spec: GpuFunctionSpec, size: int) -> float:
    """Kernel-sequence time of one coalesced launch of ``size`` requests."""
    per_kernel = LAUNCH_OVERHEAD_S + spec.kernel_time_s * (
        1.0 + (size - 1) * BATCH_MARGINAL
    )
    return spec.kernel_count * per_kernel


def batch_service_time(spec: GpuFunctionSpec, size: int) -> float:
    """Warm service time of one full batch: input transfer, dispatch
    setup, then the kernel sequence, as :class:`GpuService` charges it."""
    transfer = size * spec.input_bytes / PCIE_BANDWIDTH
    return transfer + SETUP_S + batch_device_time(spec, size)


class GpuRequest:
    """One submitted GPU invocation; resolve by yielding ``done``.

    ``ctx`` and ``span`` are ``None`` when the service is untraced.
    Weak-referenceable, so a test can watch when a request is freed.
    """

    __slots__ = ("req_id", "function", "submitted_at", "ctx", "done",
                 "attempts", "span", "__weakref__")

    def __init__(self, req_id: int, function: str, submitted_at: float,
                 ctx: Optional[TraceContext], done: Event, span):
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
        # Insertion-ordered, so a device loss replays in launch order.
        self.inflight: dict[Process, None] = {}


class GpuService:
    """Leases, batches, and heals a fleet of GPU devices."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: Optional[GpuServiceConfig] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.config = config or GpuServiceConfig()
        names = [node.name for node in cluster.nodes()]
        if len(names) < self.config.gpu_nodes:
            raise ValueError(
                f"cluster has {len(names)} nodes, config wants "
                f"{self.config.gpu_nodes} GPU hosts"
            )
        self.hosts = tuple(names[: self.config.gpu_nodes])
        self.leases = GpuLeaseManager(env)
        self._slots: dict[str, _Slot] = {}
        for host in self.hosts:
            for i in range(DEVICES_PER_HOST):
                name = f"{host}/gpu{i}"
                slot = _Slot(GpuDevice(env, GPU_SPEC, name=name), host)
                self._slots[name] = slot
                self.leases.add_device(slot.device, host)
        self.batcher = GpuBatcher(env, self.config.policy, self._on_flush)
        self._functions: dict[str, GpuFunctionSpec] = {}
        self._lease_of: dict[str, GpuLease] = {}
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.replays = 0
        self.replay_cost = 0.0
        self.devices_lost = 0
        self.transferred_bytes = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        metrics.counter("repro_gpu_requests_total", lambda: self.submitted,
                        help="GPU invocations submitted")
        metrics.counter("repro_gpu_batches_total", lambda: self.batches,
                        help="coalesced batch launches")
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
        metrics.counter(
            "repro_gpu_replays_total", lambda: self.replays,
            help="invocations replayed after a device loss",
        )
        metrics.counter(
            "repro_gpu_replay_cost_total", lambda: self.replay_cost,
            help="billed cost of attempts wasted by device loss",
        )
        metrics.counter(
            "repro_gpu_transferred_bytes", lambda: self.transferred_bytes,
            help="host-to-device bytes moved over PCIe",
        )
        self._m_online = metrics.gauge(
            "repro_gpu_devices_online_count", help="devices currently online")
        self._m_online.set(len(self._slots))

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

    # -- the hot path ---------------------------------------------------------
    def submit(self, function: str,
               ctx: Optional[TraceContext] = None) -> GpuRequest:
        """Queue one invocation; yield ``.done`` for its result dict."""
        if function not in self._functions:
            raise ValueError(f"unknown GPU function {function!r}")
        span = None
        if self._tracer.enabled:
            if ctx is None:
                ctx = self._tracer.mint()
            span = self._tracer.begin(
                SpanKind.GPU_REQUEST, track="gpu", ctx=ctx, function=function,
            )
            ctx = ctx.child(span.span_id)
        request = GpuRequest(
            req_id=self.env.next_id("gpu-request"),
            function=function,
            submitted_at=self.env.now,
            ctx=ctx,
            done=self.env.event(),
            span=span,
        )
        self.submitted += 1
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
        slot.inflight = {p: None for p in slot.inflight if p.is_alive}
        process = self.env.process(
            self._run_batch(device, function, batch, trigger),
            name=f"gpu-batch:{device}:{function}",
        )
        slot.inflight[process] = None

    def _run_batch(self, device: str, function: str, batch: list,
                   trigger: str):
        slot = self._slots[device]
        spec = self._functions[function]
        size = len(batch)
        env = self.env
        tracer = self._tracer
        # Hoisted: an untraced batch makes no tracer call at all.
        traced = tracer.enabled
        for request in batch:
            self._m_batch_wait.observe(env.now - request.submitted_at)
        if traced:
            span = tracer.begin(
                SpanKind.GPU_BATCH, track="gpu",
                device=device, function=function, size=size, trigger=trigger,
            )
            items = [
                tracer.begin(
                    SpanKind.GPU_BATCH_ITEM, track="gpu",
                    ctx=request.ctx.child(span.span_id),
                    request=request.req_id, attempt=request.attempts,
                )
                for request in batch
            ]
        try:
            if function not in slot.warm:
                # Cold: initialize the context and move the dataset over
                # PCIe, then park it warm so the next batch skips both.
                yield env.timeout(CONTEXT_SETUP_S)
                yield env.timeout(spec.device_memory_bytes / PCIE_BANDWIDTH)
                self.transferred_bytes += spec.device_memory_bytes
                try:
                    slot.device.keep_warm(function, spec.device_memory_bytes)
                except GpuMemoryError:
                    pass  # caching is best-effort; the batch still runs
                slot.warm.add(function)
            else:
                slot.device.has_warm(function)  # refresh the LRU stamp
            yield env.timeout(size * spec.input_bytes / PCIE_BANDWIDTH)
            self.transferred_bytes += size * spec.input_bytes
            yield env.timeout(SETUP_S)
            yield slot.device.launch(
                function, batch_device_time(spec, size), spec.occupancy
            )
        except Interrupt as interrupt:
            if traced:
                for item in items:
                    tracer.finish(item, error=FaultKind.GPU_DEVICE_LOSS)
                tracer.finish(span, error=FaultKind.GPU_DEVICE_LOSS)
            self._replay(batch, lost_device=device, cause=interrupt.cause)
            return
        self.batches += 1
        self._m_batch_size.observe(size)
        if traced:
            tracer.finish(span, device_time_s=batch_device_time(spec, size))
        now = env.now
        for index, request in enumerate(batch):
            latency = now - request.submitted_at
            self._m_latency.observe(latency)
            if traced:
                tracer.finish(items[index])
                tracer.finish(
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
            spec = self._functions[request.function]
            wasted = FunctionBill(
                cores=1, memory_bytes=spec.device_memory_bytes,
                duration_s=spec.device_time_s, gpus=1,
            ).cost()
            self.replay_cost += wasted
            self._tracer.instant(
                "gpu.replay", track="gpu", ctx=request.ctx,
                request=request.req_id, from_device=lost_device,
                attempt=request.attempts,
            )
            if request.attempts > MAX_REPLAYS:
                self._fail(request, GpuLeaseRevokedError(
                    f"request {request.req_id} exhausted "
                    f"{MAX_REPLAYS} replays",
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
            slot.device = GpuDevice(self.env, GPU_SPEC, name=name)
            slot.online = True
            self.leases.add_device(slot.device, node)
            restored += 1
        if restored:
            self._m_online.set(len(self.devices_online()))
        return restored
