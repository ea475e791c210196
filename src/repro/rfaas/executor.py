"""The rFaaS executor: function execution on a leased slice of a node.

Two polling modes from Sec. V-A / Fig. 7:

* **hot** — the executor busy-polls its RDMA completion queue; an
  incoming invocation is picked up within a fraction of a microsecond,
  matching bare-metal libfabric round trips, at the cost of a core
  spinning;
* **warm** — the executor blocks on a completion event; the kernel wakeup
  adds tens of microseconds and more variance, but the core is free
  in the meantime.

Execution time is dilated by the node's current tenant mix through the
:class:`~repro.rfaas.load.NodeLoadRegistry` — this is where co-location
interference becomes visible to serverless users.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.node import Node
from ..containers.image import Image
from ..containers.warmpool import WarmContainer, WarmPool
from ..sim.engine import Environment, Interrupt, Process
from ..sim.resources import Resource
from ..storage.tiered import TieredFunctionStorage
from ..telemetry import SpanKind, telemetry_of
from .errors import TerminationError
from .load import NodeLoadRegistry
from .messages import InvocationRequest, InvocationResult, InvocationStatus, Timings
from .registry import FunctionDef

__all__ = ["Executor", "ExecutorMode", "TerminationError"]


class ExecutorMode:
    HOT = "hot"
    WARM = "warm"


# Dispatch-path constants (seconds), calibrated to Fig. 7's gap between
# hot and warm executors.
_HOT_DISPATCH_S = 0.3e-6
_WARM_WAKEUP_BASE_S = 8e-6
_WARM_WAKEUP_MEAN_S = 22e-6


class Executor:
    """One node's serverless executor, serving leased invocations."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        warm_pool: WarmPool,
        loads: NodeLoadRegistry,
        cores: int,
        mode: str = ExecutorMode.HOT,
        rng: Optional[np.random.Generator] = None,
        storage: Optional[TieredFunctionStorage] = None,
        max_invocation_s: float = 30.0,
    ):
        if cores < 1:
            raise ValueError("executor needs >= 1 core")
        if mode not in (ExecutorMode.HOT, ExecutorMode.WARM):
            raise ValueError(f"unknown executor mode {mode!r}")
        if max_invocation_s <= 0:
            raise ValueError("max_invocation_s must be positive")
        self.executor_id = env.next_id("rfaas-executor")
        self.env = env
        self.node = node
        self.warm_pool = warm_pool
        self.loads = loads
        self.cores = cores
        self.mode = mode
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # Function storage tier (Sec. IV-D): the mounted parallel FS plus
        # the object-store warm cache; None disables I/O modeling.
        self.storage = storage if storage is not None else TieredFunctionStorage()
        # Functions must be time-limited (Sec. III-A): that is what lets
        # a temporarily-available node drain quickly for batch jobs.
        self.max_invocation_s = max_invocation_s
        self.slots = Resource(env, capacity=cores)
        self.draining = False
        # Fault-injection hook (repro.faults): a straggling executor
        # picks work up late by this factor; 1.0 = healthy.
        self.dispatch_multiplier = 1.0
        # In-flight invocations as an insertion-ordered set, so an
        # immediate drain interrupts them in launch order on every run.
        self._active: dict[Process, None] = {}
        # Containers attached to this executor: after the first invocation
        # of an image, the function process stays resident, so subsequent
        # invocations skip sandbox acquisition entirely (true warm path).
        self._attached: dict[str, WarmContainer] = {}
        # Statistics.
        self.completed = 0
        self.rejected = 0
        self.terminated = 0
        # Telemetry: one track per executor so traces render the
        # invocation critical path as nested slices on its own lane.
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        self._track = f"{node.name}/executor-{self.executor_id}"
        labels = {"node": node.name, "mode": mode}
        metrics = telemetry.metrics
        self._m_invocations = metrics.counter(
            "repro_executor_invocations_total", labels=labels,
            help="invocations served, by final status",
        )
        self._m_rejected = metrics.counter(
            "repro_executor_rejected_total", labels=labels,
            help="invocations rejected (draining or over the time limit)",
        )
        self._m_terminated = metrics.counter(
            "repro_executor_terminated_total", labels=labels,
            help="invocations aborted by executor reclamation",
        )
        self._m_dispatch = metrics.histogram(
            "repro_executor_dispatch_seconds", labels=labels,
            help="dispatch pickup delay (hot busy-poll vs warm wakeup)",
        )
        self._m_execution = metrics.histogram(
            "repro_executor_execution_seconds", labels=labels,
            help="function body execution time under interference dilation",
        )

    # -- lifecycle ----------------------------------------------------------
    @property
    def active_invocations(self) -> int:
        return len(self._active)

    def drain(self, immediate: bool = False) -> None:
        """Stop accepting invocations; optionally abort in-flight ones.

        Graceful drain lets time-limited functions finish (Sec. III-A);
        immediate drain sends terminations (Sec. IV-E).
        """
        self.draining = True
        for container in self._attached.values():
            self.warm_pool.discard(container)
        self._attached.clear()
        if immediate:
            for proc in list(self._active):
                if proc.is_alive:
                    proc.interrupt(cause="reclaim")

    def prewarm(self, image: Image) -> None:
        """Start and park a container so the next invocation is warm."""
        result = self.warm_pool.acquire(image)
        self.warm_pool.release(result.container)

    # -- invocation path ------------------------------------------------------
    def execute(self, fdef: FunctionDef, request: InvocationRequest) -> Process:
        """Serve one invocation; the returned process yields the result.

        Rejection (draining / no registered function) is reported in-band
        via :class:`InvocationResult`; reclamation mid-flight raises
        :class:`TerminationError` out of the process, mirroring rFaaS's
        *termination* replies.
        """
        if self._tracer.enabled:
            return self.env.process(
                self._execute_traced(fdef, request),
                name=f"exec-{self.executor_id}-inv-{request.invocation_id}",
            )
        # Disabled-telemetry fast path: same control flow and rng draws,
        # but no span context managers, no metric calls, and a static
        # process name (the descriptive one is only a trace/debug aid).
        return self.env.process(self._execute_fast(fdef, request), name="exec")

    def _dispatch_delay(self) -> float:
        if self.mode == ExecutorMode.HOT:
            base = _HOT_DISPATCH_S
        else:
            base = _WARM_WAKEUP_BASE_S + float(self.rng.exponential(_WARM_WAKEUP_MEAN_S))
        return base * self.dispatch_multiplier

    def _execute_fast(self, fdef: FunctionDef, request: InvocationRequest):
        """Invocation path with telemetry compiled out.

        Must stay semantically identical to :meth:`_execute_traced` —
        the same yields, the same rng draws in the same order, the same
        results — so that traced and untraced runs produce identical
        timelines (asserted by tests/telemetry determinism tests).
        """
        if self.draining:
            self.rejected += 1
            return InvocationResult(
                request=request, status=InvocationStatus.REJECTED, node_name=self.node.name
            )
        me = self.env.active_process
        self._active[me] = None
        timings = Timings()
        load_key = f"inv-{request.invocation_id}"
        registered = False
        try:
            with self.slots.request() as slot:
                yield slot
                # 1. Dispatch pickup (polling mode dependent).
                timings.dispatch = self._dispatch_delay()
                yield self.env.timeout(timings.dispatch)
                # 2. Sandbox: attached process or warm-pool acquisition.
                container = self._attached.get(fdef.image.name)
                if container is not None:
                    kind = "attached"
                else:
                    acquired = self.warm_pool.acquire(fdef.image)
                    container = acquired.container
                    self._attached[fdef.image.name] = container
                    kind = acquired.kind
                    timings.startup = acquired.startup_cost_s
                    if timings.startup > 0:
                        yield self.env.timeout(timings.startup)
                # 3. Stage inputs through the function storage tier.
                if fdef.input_read_bytes:
                    concurrent = max(1, self.active_invocations)
                    timings.io = self.storage.read_time(
                        fdef.input_read_bytes, concurrent_readers=concurrent
                    )
                    yield self.env.timeout(timings.io)
                # 4. Execute under the node's current interference.
                self.loads.add(self.node.name, load_key, fdef.demand)
                registered = True
                slowdown = self.loads.slowdown_of(self.node.name, load_key)
                remaining = max(fdef.runtime_s - request.resume_offset_s, 0.0)
                timings.execution = remaining * slowdown
                execution_started = self.env.now
                execution_slowdown = slowdown
                if timings.execution > self.max_invocation_s:
                    self.rejected += 1
                    return InvocationResult(
                        request=request,
                        status=InvocationStatus.REJECTED,
                        node_name=self.node.name,
                    )
                if timings.execution > 0:
                    yield self.env.timeout(timings.execution)
                self.completed += 1
                return InvocationResult(
                    request=request,
                    status=InvocationStatus.OK,
                    output_bytes=fdef.output_bytes,
                    timings=timings,
                    node_name=self.node.name,
                    startup_kind=kind,
                )
        except Interrupt as intr:
            self.terminated += 1
            checkpoint = request.resume_offset_s
            if fdef.checkpointable and registered:
                elapsed = (self.env.now - execution_started) / execution_slowdown
                interval = fdef.checkpoint_interval_s
                checkpoint += (elapsed // interval) * interval
                checkpoint = min(checkpoint, fdef.runtime_s)
            raise TerminationError(
                f"invocation {request.invocation_id}: {intr.cause}",
                checkpoint_s=checkpoint,
                cause=intr.cause,
            ) from None
        finally:
            if registered:
                self.loads.remove(self.node.name, load_key)
            if self.draining:
                for attached in self._attached.values():
                    self.warm_pool.discard(attached)
                self._attached.clear()
            self._active.pop(me, None)

    def _execute_traced(self, fdef: FunctionDef, request: InvocationRequest):
        if self.draining:
            self.rejected += 1
            self._m_rejected.inc()
            return InvocationResult(
                request=request, status=InvocationStatus.REJECTED, node_name=self.node.name
            )
        me = self.env.active_process
        self._active[me] = None
        timings = Timings()
        load_key = f"inv-{request.invocation_id}"
        registered = False
        tracer = self._tracer
        track = self._track
        try:
            with tracer.span(
                SpanKind.INVOCATION, track=track, ctx=request.trace,
                function=fdef.name,
                invocation=request.invocation_id, mode=self.mode,
            ) as inv_span, self.slots.request() as slot:
                yield slot
                # 1. Dispatch pickup (polling mode dependent).
                with tracer.span(SpanKind.DISPATCH, track=track):
                    timings.dispatch = self._dispatch_delay()
                    yield self.env.timeout(timings.dispatch)
                self._m_dispatch.observe(timings.dispatch)
                # 2. Sandbox: an attached function process serves directly;
                #    otherwise the warm pool decides cold/warm/swap-in.
                with tracer.span(SpanKind.SANDBOX, track=track) as sandbox_span:
                    container = self._attached.get(fdef.image.name)
                    if container is not None:
                        kind = "attached"
                    else:
                        acquired = self.warm_pool.acquire(fdef.image)
                        container = acquired.container
                        self._attached[fdef.image.name] = container
                        kind = acquired.kind
                        timings.startup = acquired.startup_cost_s
                        if timings.startup > 0:
                            yield self.env.timeout(timings.startup)
                    sandbox_span.set(kind=kind)
                inv_span.set(sandbox=kind)
                # 3. Stage inputs through the function storage tier
                #    (mounted PFS / object cache, Sec. IV-D).
                if fdef.input_read_bytes:
                    with tracer.span(SpanKind.IO, track=track,
                                     bytes=fdef.input_read_bytes):
                        concurrent = max(1, self.active_invocations)
                        timings.io = self.storage.read_time(
                            fdef.input_read_bytes, concurrent_readers=concurrent
                        )
                        yield self.env.timeout(timings.io)
                # 4. Execute under the node's current interference,
                #    skipping work already checkpointed elsewhere.
                self.loads.add(self.node.name, load_key, fdef.demand)
                registered = True
                slowdown = self.loads.slowdown_of(self.node.name, load_key)
                remaining = max(fdef.runtime_s - request.resume_offset_s, 0.0)
                timings.execution = remaining * slowdown
                execution_started = self.env.now
                execution_slowdown = slowdown
                if timings.execution > self.max_invocation_s:
                    # Admission-time enforcement of the time limit: the
                    # platform never starts work it would have to kill.
                    self.rejected += 1
                    self._m_rejected.inc()
                    inv_span.set(status="rejected")
                    return InvocationResult(
                        request=request,
                        status=InvocationStatus.REJECTED,
                        node_name=self.node.name,
                    )
                with tracer.span(SpanKind.EXECUTION, track=track,
                                 slowdown=slowdown):
                    if timings.execution > 0:
                        yield self.env.timeout(timings.execution)
                self._m_execution.observe(timings.execution)
                self.completed += 1
                self._m_invocations.inc()
                inv_span.set(status="ok")
                return InvocationResult(
                    request=request,
                    status=InvocationStatus.OK,
                    output_bytes=fdef.output_bytes,
                    timings=timings,
                    node_name=self.node.name,
                    startup_kind=kind,
                )
        except Interrupt as intr:
            self.terminated += 1
            self._m_terminated.inc()
            checkpoint = request.resume_offset_s
            if fdef.checkpointable and registered:
                # Progress in nominal-runtime seconds, rounded down to the
                # last completed checkpoint.
                elapsed = (self.env.now - execution_started) / execution_slowdown
                interval = fdef.checkpoint_interval_s
                checkpoint += (elapsed // interval) * interval
                checkpoint = min(checkpoint, fdef.runtime_s)
            raise TerminationError(
                f"invocation {request.invocation_id}: {intr.cause}",
                checkpoint_s=checkpoint,
                cause=intr.cause,
            ) from None
        finally:
            if registered:
                self.loads.remove(self.node.name, load_key)
            if self.draining:
                for attached in self._attached.values():
                    self.warm_pool.discard(attached)
                self._attached.clear()
            self._active.pop(me, None)
