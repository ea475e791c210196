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

As in rFaaS's hot executor, which serves an RDMA-written request on one
path with no scheduler queue, an invocation is served without a
process: :meth:`Executor.execute` returns an :class:`Invocation` event
whose steps (core, dispatch, sandbox, execution) run as a chain
of timer callbacks, the last of which succeeds the invocation.  An
immediate drain interrupts each invocation in flight: the pending step
becomes a no-op and the invocation fails with :class:`TerminationError`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

import numpy as np

from ..cluster.node import Node
from ..containers.image import Image
from ..containers.warmpool import WarmContainer, WarmPool
from ..sim.engine import Environment, Event, SimulationError
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
        # Functions must be time-limited (Sec. III-A): that is what lets
        # a temporarily-available node drain quickly for batch jobs.
        self.max_invocation_s = max_invocation_s
        # Core slots: free cores, and the invocations waiting for one in
        # arrival order.  A free core is taken with no event at all.
        self._free = cores
        self._waiters: deque[Event] = deque()
        self.draining = False
        # Fault-injection hook (repro.faults): a straggling executor
        # picks work up late by this factor; 1.0 = healthy.
        self.dispatch_multiplier = 1.0
        # In-flight invocations as an insertion-ordered set, so an
        # immediate drain interrupts them in launch order on every run.
        self._active: dict[Invocation, None] = {}
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
        metrics.counter(
            "repro_executor_invocations_total", lambda: self.completed,
            labels=labels, help="invocations served, by final status",
        )
        metrics.counter(
            "repro_executor_rejected_total", lambda: self.rejected,
            labels=labels,
            help="invocations rejected (draining or over the time limit)",
        )
        metrics.counter(
            "repro_executor_terminated_total", lambda: self.terminated,
            labels=labels, help="invocations aborted by executor reclamation",
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
            for invocation in list(self._active):
                invocation.interrupt(cause="reclaim")

    def prewarm(self, image: Image) -> None:
        """Start and park a container so the next invocation is warm."""
        result = self.warm_pool.acquire(image)
        self.warm_pool.release(result.container)

    # -- invocation path ------------------------------------------------------
    def execute(self, fdef: FunctionDef, request: InvocationRequest) -> Invocation:
        """Serve one invocation; the returned event fires with the result.

        Rejection (draining / over the time limit) is reported in-band
        via :class:`InvocationResult`; reclamation mid-flight fails the
        event with :class:`TerminationError`, mirroring rFaaS's
        *termination* replies.
        """
        invocation = Invocation(self, fdef, request)
        if self.draining:
            self.rejected += 1
            return invocation.succeed(InvocationResult(
                request=request, status=InvocationStatus.REJECTED, node_name=self.node.name
            ))
        self._active[invocation] = None
        if invocation._traced:
            invocation._span = self._tracer.begin(
                SpanKind.INVOCATION, track=self._track, ctx=request.trace,
                function=fdef.name, invocation=request.invocation_id, mode=self.mode,
            )
        if self._free:
            self._free -= 1
            self._dispatch(invocation)
        else:
            # Queue, FIFO, until _release_core hands this invocation a core.
            invocation._grant = grant = self.env.event(invocation._granted)
            self._waiters.append(grant)
        return invocation

    def _dispatch(self, invocation: Invocation) -> None:
        """``invocation`` holds a core: pick it up (polling-mode dependent)."""
        invocation._holding = True
        if invocation._traced:
            invocation._step = self._tracer.begin(
                SpanKind.DISPATCH, track=self._track, parent=invocation._span)
        invocation.timings.dispatch = delay = self._dispatch_delay()
        self.env.timer(delay, invocation._dispatched)

    def _dispatch_delay(self) -> float:
        if self.mode == ExecutorMode.HOT:
            base = _HOT_DISPATCH_S
        else:
            base = _WARM_WAKEUP_BASE_S + float(self.rng.exponential(_WARM_WAKEUP_MEAN_S))
        return base * self.dispatch_multiplier

    def _release_core(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._free += 1


class Invocation(Event):
    """One invocation on an executor: an event that fires with its
    :class:`InvocationResult`, or fails with :class:`TerminationError`.

    No process serves it.  Its steps (core, dispatch, sandbox, execution)
    are a chain of callbacks, each run by the timer (or core
    grant) the step before it set, and the last one succeeds the
    invocation itself.  Once the invocation has ended, a step still
    queued is a no-op.

    Untraced, the chain makes no tracer or metric call.  Traced, it
    opens the same spans with :meth:`Tracer.begin` under explicit
    parents: ``_span`` is the invocation's, ``_step`` the open child.
    """

    __slots__ = ("executor", "fdef", "request", "timings", "_traced", "_grant",
                 "_holding", "_load_key", "_kind", "_span", "_step")

    def __init__(self, executor: Executor, fdef: FunctionDef, request: InvocationRequest):
        Event.__init__(self, executor.env)
        self.executor = executor
        self.fdef = fdef
        self.request = request
        self.timings = Timings()
        self._traced = executor._tracer.enabled
        self._grant: Optional[Event] = None
        self._holding = False
        self._load_key: Optional[str] = None
        self._kind = ""
        self._span = self._step = None

    def interrupt(self, cause: Any = None) -> None:
        """Abort the invocation, with :meth:`Process.interrupt`'s contract.

        The abort runs as an urgent entry at the current instant, where
        an :class:`Interrupt` would be delivered, so an immediate drain
        aborts its invocations in launch order before anything else at
        that instant resumes.  The pending step becomes a no-op, and the
        invocation fails with :class:`TerminationError`.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished invocation")
        self.env.urgent(self._terminate, cause)

    # -- the chain: each step runs when the one before it has waited -----
    def _granted(self, _event: Event) -> None:
        if not self._triggered:
            self.executor._dispatch(self)

    def _dispatched(self, _event: Event) -> None:
        """Sandbox: an attached function process serves directly;
        otherwise the warm pool decides cold/warm/swap-in."""
        if self._triggered:
            return
        executor = self.executor
        timings = self.timings
        if self._traced:
            tracer = executor._tracer
            tracer.finish(self._step)
            executor._m_dispatch.observe(timings.dispatch)
            self._step = tracer.begin(SpanKind.SANDBOX, track=executor._track,
                                      parent=self._span)
        image = self.fdef.image
        container = executor._attached.get(image.name)
        if container is not None:
            self._kind = "attached"
        else:
            acquired = executor.warm_pool.acquire(image, parent=self._step)
            executor._attached[image.name] = acquired.container
            self._kind = acquired.kind
            timings.startup = acquired.startup_cost_s
            if timings.startup > 0:
                self.env.timer(timings.startup, self._sandboxed)
                return
        self._sandboxed(None)

    def _sandboxed(self, _event: Optional[Event]) -> None:
        """Execute under the node's current interference."""
        if self._triggered:
            return
        executor = self.executor
        fdef = self.fdef
        traced = self._traced
        if traced:
            self._step.set(kind=self._kind)
            executor._tracer.finish(self._step)
            self._span.set(sandbox=self._kind)
        node_name = executor.node.name
        self._load_key = load_key = f"inv-{self.request.invocation_id}"
        executor.loads.add(node_name, load_key, fdef.demand)
        slowdown = executor.loads.slowdown_of(node_name, load_key)
        self.timings.execution = execution = fdef.runtime_s * slowdown
        if execution > executor.max_invocation_s:
            # Admission-time enforcement of the time limit: the
            # platform never starts work it would have to kill.
            executor.rejected += 1
            if traced:
                self._span.set(status="rejected")
            self._end(InvocationResult(
                request=self.request, status=InvocationStatus.REJECTED,
                node_name=node_name,
            ))
            return
        if traced:
            self._step = executor._tracer.begin(
                SpanKind.EXECUTION, track=executor._track, parent=self._span,
                slowdown=slowdown)
        if execution > 0:
            self.env.timer(execution, self._executed)
        else:
            self._executed(None)

    def _executed(self, _event: Optional[Event]) -> None:
        if self._triggered:
            return
        executor = self.executor
        executor.completed += 1
        if self._traced:
            executor._tracer.finish(self._step)
            executor._m_execution.observe(self.timings.execution)
            self._span.set(status="ok")
        self._end(InvocationResult(
            request=self.request,
            status=InvocationStatus.OK,
            output_bytes=self.fdef.output_bytes,
            timings=self.timings,
            node_name=executor.node.name,
            startup_kind=self._kind,
        ))

    # -- endings -------------------------------------------------------------
    def _end(self, result: InvocationResult) -> None:
        if self._traced:
            self.executor._tracer.finish(self._span)
        self._release()
        self.succeed(result)

    def _terminate(self, event: Event) -> None:
        """Deliver an :meth:`interrupt`: close the open spans as aborted,
        give everything back and fail with :class:`TerminationError`."""
        if self._triggered:
            return  # an earlier interrupt at this instant ended it
        cause = event.value
        executor = self.executor
        executor.terminated += 1
        if self._traced:
            tracer = executor._tracer
            # Spans name every abort Interrupt, whatever its cause.
            if self._step is not None:
                tracer.finish(self._step, error="Interrupt")
            tracer.finish(self._span, error="Interrupt")
        self._release()
        self.fail(TerminationError(
            f"invocation {self.request.invocation_id}: {cause}", cause=cause,
        ))

    def _release(self) -> None:
        """Give back the core (or the place in its queue), the node load
        and the active slot; a draining executor drops its attachments."""
        executor = self.executor
        grant = self._grant
        if self._holding or (grant is not None and grant.triggered):
            # A core handed over before the grant's step ran is passed on.
            executor._release_core()
        elif grant is not None:
            executor._waiters.remove(grant)
        self._grant = None
        if self._load_key is not None:
            executor.loads.remove(executor.node.name, self._load_key)
        if executor.draining:
            for attached in executor._attached.values():
                executor.warm_pool.discard(attached)
            executor._attached.clear()
        del executor._active[self]
