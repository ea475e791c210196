"""rFaaS client library.

Handles the client side of the invocation protocol: leasing executor
resources, establishing the RDMA connection (with DRC credentials on
uGNI), sending payloads, and — crucially for ephemeral HPC capacity —
transparently re-leasing and redirecting when the platform cancels a
lease underneath the client (Sec. III-A).

Recovery is governed by a :class:`~repro.faults.RetryPolicy`: attempt
budget, exponential backoff with seeded jitter, an optional
per-invocation deadline, and node-exclusion memory.  The default policy
is exactly the historical ``max_redirects=3`` behaviour — immediate
retries, no deadline — so plain callers see no difference; callers who
care *how* an invocation concluded use :meth:`RFaaSClient.invoke_detailed`
and get a :class:`~repro.faults.DegradedResult` back.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..faults.recovery import DegradedResult, RecoveryOutcome, RetryPolicy
from ..network.transport import Connection, NetworkFabric, TransferDropped
from ..sim.engine import Environment
from ..telemetry import telemetry_of
from ..telemetry.context import TraceContext
from ..telemetry.span import SpanKind
from .errors import (
    InvocationTimeout,
    LeaseRevokedError,
    ManagerUnavailableError,
    NoCapacityError,
    RFaaSError,
    TerminationError,
)
from .executor import Executor
from .lease import Lease
from .manager import ResourceManager
from .messages import InvocationRequest, InvocationResult, InvocationStatus
from .registry import FunctionDef, FunctionRegistry

__all__ = ["RFaaSClient"]

# Interrupt cause used when the client aborts its own execution because
# the RetryPolicy deadline elapsed (vs. a platform-side reclaim).
_TIMEOUT_CAUSE = "client-timeout"


class RFaaSClient:
    """A client application invoking functions from one cluster node."""

    def __init__(
        self,
        env: Environment,
        manager: ResourceManager,
        fabric: NetworkFabric,
        functions: FunctionRegistry,
        client_node: str,
        name: Optional[str] = None,
        max_redirects: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if retry_policy is None:
            retry_policy = RetryPolicy.from_redirects(max_redirects)
        self.env = env
        self.manager = manager
        self.fabric = fabric
        self.functions = functions
        self.client_node = client_node
        self.name = name or f"client-{env.next_id('rfaas-client')}"
        self.retry_policy = retry_policy
        self.max_redirects = retry_policy.max_redirects
        self.rng = rng
        self._lease: Optional[Lease] = None
        self._executor: Optional[Executor] = None
        self._connection: Optional[Connection] = None
        self._leasing = None  # event guarding concurrent lease setup
        self._closed = False
        # Concurrent invocations share one connection; a connection that
        # went stale (lease revoked / dropped / client closed) is only
        # closed once its last in-flight user drains off it.
        self._inflight: dict[Connection, int] = {}
        self._stale: set[Connection] = set()
        self.redirects = 0
        #: Retry attempts by cause, counted with ``repro_faults_retries_total``.
        self.retries: dict[str, int] = {}
        # Recovery telemetry (no-ops under the default null telemetry).
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        self._metrics = telemetry.metrics
        self._m_retries: dict = {}
        self._m_recovered = self._metrics.counter(
            "repro_faults_recovered_invocations_total",
            help="invocations that succeeded after at least one retry",
        )
        self._m_gave_up = self._metrics.counter(
            "repro_faults_abandoned_invocations_total",
            help="invocations that exhausted their retry budget",
        )
        self._m_timeouts = self._metrics.counter(
            "repro_faults_timeouts_total",
            help="invocations aborted by the client-side deadline",
        )
        self._m_recovery_s = self._metrics.histogram(
            "repro_faults_recovery_seconds",
            help="first failure to eventual success, per recovered invocation",
        )

    # -- lease/connection management --------------------------------------------
    @property
    def lease(self) -> Optional[Lease]:
        return self._lease

    @property
    def closed(self) -> bool:
        return self._closed

    def _lease_valid(self) -> bool:
        return self._lease is not None and self._lease.active

    def _on_cancel(self, lease: Lease) -> None:
        # Platform revoked our lease: forget it so the next invocation
        # re-leases elsewhere.  The connection object is left open —
        # in-flight responses of a *graceful* drain must still arrive;
        # the invocation path closes it once it notices the switch.
        if self._lease is lease:
            self._lease = None
            self._executor = None
            self._connection = None

    def _ensure_lease(self, fdef: FunctionDef, cores: int, exclude: tuple[str, ...] = ()):
        """Process: obtain a lease + connection if we lack one.

        Concurrent invocations share one lease: the first caller performs
        the setup while the others wait on a guard event.  Raises
        :class:`LeaseRevokedError` when the platform cancels the fresh
        lease while the connection is still being established, or when
        the client is closed mid-setup.
        """
        while True:
            if self._closed:
                raise LeaseRevokedError(f"client {self.name} is closed")
            if self._lease_valid() and self._connection is not None:
                return
            if self._leasing is not None:
                yield self._leasing
                continue
            self._leasing = self.env.event()
            try:
                lease, executor = self.manager.lease(
                    client=self.name,
                    cores=cores,
                    memory_bytes=fdef.memory_bytes,
                    gpus=1 if fdef.needs_gpu else 0,
                    image=fdef.image,
                    exclude=exclude,
                )
                lease.on_cancel.append(self._on_cancel)
                credential = self.manager.credential_for(lease.node_name)
                connection = yield self.fabric.connect(
                    self.client_node, lease.node_name, user=self.name,
                    cred_id=credential.cred_id,
                )
                if self._closed or not lease.active:
                    # Revoked (or closed) while the connection handshake
                    # was in flight: hand nothing back, redirect instead.
                    if lease.active:
                        self.manager.release_lease(lease)
                    connection.close()
                    raise LeaseRevokedError(
                        f"lease {lease.lease_id} revoked during connect",
                        node_name=lease.node_name,
                    )
                self._lease = lease
                self._executor = executor
                self._connection = connection
            finally:
                guard, self._leasing = self._leasing, None
                guard.succeed()
            return

    def release_lease(self) -> None:
        """Voluntarily give the current lease (and connection) back.

        Unlike :meth:`close` the client stays usable: the next invocation
        re-leases.  The capacity plane calls this when a tenant goes
        idle, so held-but-unused executor cores return to the pool
        instead of starving other tenants into the cloud.
        """
        if self._closed or self._lease is None:
            return
        if self._lease.active:
            self.manager.release_lease(self._lease)
        if self._connection is not None:
            self._retire(self._connection)
        self._lease = None
        self._executor = None
        self._connection = None

    def close(self) -> None:
        """Release the lease and connection; safe to call more than once.

        A concurrent in-flight ``_ensure_lease`` notices ``_closed`` when
        its connect completes and gives its fresh lease straight back.
        """
        if self._closed:
            return
        self._closed = True
        if self._lease is not None and self._lease.active:
            self.manager.release_lease(self._lease)
        if self._connection is not None:
            self._retire(self._connection)
        self._lease = None
        self._executor = None
        self._connection = None

    # -- invocation ---------------------------------------------------------------
    def invoke(self, function: str, payload_bytes: int = 0, cores: int = 1,
               ctx: Optional[TraceContext] = None):
        """Process: one invocation; yields an :class:`InvocationResult`.

        On lease cancellation mid-flight the client redirects to a fresh
        lease (excluding the reclaimed node) within the retry policy's
        attempt budget; exhaustion surfaces as a TERMINATED result.
        """
        fdef = self.functions.lookup(function)
        return self.env.process(
            self._invoke(fdef, payload_bytes, cores, ctx=ctx),
            name=f"{self.name}-invoke-{function}",
        )

    def invoke_detailed(self, function: str, payload_bytes: int = 0, cores: int = 1,
                        ctx: Optional[TraceContext] = None):
        """Process: one invocation; yields a :class:`DegradedResult`.

        Same recovery loop as :meth:`invoke`, but the value carries the
        full recovery story: outcome, attempts, retries, backoff and
        recovery time, and the last platform error observed.

        ``ctx`` joins the invocation to an existing causal trace (the
        capacity plane passes the context it minted at admission); a
        traced client with no ``ctx`` mints its own, so bare-client runs
        still get one tree per request.
        """
        fdef = self.functions.lookup(function)
        return self.env.process(
            self._invoke_detailed(fdef, payload_bytes, cores, ctx=ctx),
            name=f"{self.name}-invoke-{function}",
        )

    def _invoke(self, fdef: FunctionDef, payload_bytes: int, cores: int,
                ctx: Optional[TraceContext] = None):
        detailed = yield from self._invoke_detailed(fdef, payload_bytes, cores, ctx=ctx)
        return detailed.result

    def _invoke_detailed(self, fdef: FunctionDef, payload_bytes: int, cores: int,
                         ctx: Optional[TraceContext] = None):
        if self._closed:
            raise RFaaSError(f"client {self.name} is closed")
        policy = self.retry_policy
        # Trace identity: one rfaas.request root per call; every retry
        # attempt is a sibling span underneath it.  Nothing is minted
        # when telemetry is off, keeping the untraced path allocation-free.
        traced = self._tracer.enabled
        root_span = None
        req_ctx: Optional[TraceContext] = None
        if traced:
            if ctx is None:
                ctx = TraceContext.mint()
            root_span = self._tracer.begin(
                SpanKind.REQUEST, track=f"{self.name}/requests", ctx=ctx,
                function=fdef.name, client=self.name,
            )
            req_ctx = ctx.child(root_span.span_id)
        request = InvocationRequest(
            function=fdef.name, payload_bytes=payload_bytes,
            invocation_id=self.env.next_id("rfaas-invocation"),
        )
        exclude: tuple[str, ...] = ()
        resume_offset = 0.0
        t_begin = self.env.now
        deadline = None if policy.timeout_s is None else t_begin + policy.timeout_s
        first_failure: Optional[float] = None
        backoff_total = 0.0
        last_error: Optional[Exception] = None
        attempts = 0

        def finish(result: InvocationResult, outcome: RecoveryOutcome) -> DegradedResult:
            recovery = 0.0 if first_failure is None else self.env.now - first_failure
            degraded = DegradedResult(
                result=result, outcome=outcome, attempts=attempts,
                retries=max(0, attempts - 1), elapsed_s=self.env.now - t_begin,
                recovery_s=recovery, backoff_s=backoff_total, error=last_error,
            )
            if outcome is RecoveryOutcome.RECOVERED:
                self._m_recovered.inc()
                self._m_recovery_s.observe(recovery)
            elif outcome is RecoveryOutcome.GAVE_UP:
                self._m_gave_up.inc()
            elif outcome is RecoveryOutcome.TIMED_OUT:
                self._m_timeouts.inc()
            if outcome in (RecoveryOutcome.RECOVERED, RecoveryOutcome.GAVE_UP,
                           RecoveryOutcome.TIMED_OUT):
                self._tracer.instant(
                    f"recovery.{outcome.value}", track=f"{self.name}/recovery",
                    ctx=req_ctx, function=fdef.name, attempts=attempts,
                    recovery_s=recovery,
                )
            if root_span is not None:
                self._tracer.finish(
                    root_span, outcome=outcome.value, attempts=attempts,
                    status=result.status.value,
                )
            return degraded

        def timed_out() -> DegradedResult:
            nonlocal last_error
            last_error = InvocationTimeout(
                f"invocation of {fdef.name!r} exceeded {policy.timeout_s}s",
                elapsed_s=self.env.now - t_begin, attempts=attempts,
            )
            return finish(
                InvocationResult(request=request, status=InvocationStatus.TERMINATED),
                RecoveryOutcome.TIMED_OUT,
            )

        for attempt_index in range(policy.max_attempts):
            if attempt_index > 0:
                delay = policy.backoff(attempt_index, self.rng)
                if delay > 0:
                    yield self.env.timeout(delay)
                    backoff_total += delay
            if deadline is not None and self.env.now >= deadline:
                return timed_out()
            attempts += 1
            # Each attempt is one sibling span under the request root, so
            # a retry after a node crash stays inside the same trace.
            with self._tracer.span(
                SpanKind.ATTEMPT, track=f"{self.name}/requests",
                ctx=req_ctx, attempt=attempts,
            ) as attempt_span:
                if traced:
                    request = replace(
                        request, trace=req_ctx.child(attempt_span.span_id)
                    )
                try:
                    yield from self._ensure_lease(fdef, cores, exclude)
                except NoCapacityError as err:
                    last_error = err
                    attempt_span.set(outcome="rejected")
                    return finish(
                        InvocationResult(request=request, status=InvocationStatus.REJECTED),
                        RecoveryOutcome.REJECTED,
                    )
                except LeaseRevokedError as err:
                    last_error = err
                    if first_failure is None:
                        first_failure = self.env.now
                    if policy.exclude_failed_nodes and err.node_name is not None:
                        exclude = exclude + (err.node_name,)
                    self.redirects += 1
                    attempt_span.set(outcome="revoked")
                    self._note_retry("revoked", err.node_name, attempts)
                    if self._closed:
                        break
                    continue
                except ManagerUnavailableError as err:
                    # The control plane has no reachable primary right
                    # now; a standby takeover is coming, so back off and
                    # reconnect to whichever replica leads next attempt.
                    last_error = err
                    if first_failure is None:
                        first_failure = self.env.now
                    attempt_span.set(outcome="manager_down")
                    self._note_retry("manager_down", None, attempts)
                    if self._closed:
                        break
                    continue
                executor, connection = self._executor, self._connection
                if executor is None or connection is None:
                    # The lease was cancelled between setup and use (e.g. an
                    # immediate reclaim raced us); try again elsewhere.
                    if first_failure is None:
                        first_failure = self.env.now
                    self.redirects += 1
                    attempt_span.set(outcome="race")
                    self._note_retry("race", None, attempts)
                    continue
                t_start = self.env.now
                self._inflight[connection] = self._inflight.get(connection, 0) + 1
                try:
                    yield connection.send(payload_bytes)
                    network_out = self.env.now - t_start
                    if resume_offset:
                        request = replace(request, resume_offset_s=resume_offset)
                    if deadline is None:
                        result: InvocationResult = yield executor.execute(fdef, request)
                    else:
                        if deadline - self.env.now <= 0:
                            attempt_span.set(outcome="timeout")
                            return timed_out()
                        result = yield from self._execute_with_deadline(
                            executor, fdef, request, deadline
                        )
                    if result.status == InvocationStatus.REJECTED:
                        # Executor started draining between lease and dispatch.
                        if first_failure is None:
                            first_failure = self.env.now
                        if policy.exclude_failed_nodes:
                            exclude = exclude + (executor.node.name,)
                        self.redirects += 1
                        attempt_span.set(outcome="rejected")
                        self._note_retry("rejected", executor.node.name, attempts)
                        continue
                    t_back = self.env.now
                    yield connection.recv_response(result.output_bytes)
                    result.timings.network_out = network_out
                    result.timings.network_back = self.env.now - t_back
                    if self._connection is not connection:
                        # Lease was cancelled while we were in flight; the
                        # response has landed, so the old connection can go
                        # (once every other in-flight user drains off it).
                        self._stale.add(connection)
                    outcome = (RecoveryOutcome.OK if first_failure is None
                               else RecoveryOutcome.RECOVERED)
                    attempt_span.set(outcome="ok", node=result.node_name)
                    return finish(result, outcome)
                except TerminationError as term:
                    if term.cause == _TIMEOUT_CAUSE:
                        attempt_span.set(outcome="timeout")
                        return timed_out()
                    # Reclaimed mid-flight: redirect to a new lease, resuming
                    # from the checkpoint if the function supports it.
                    last_error = term
                    if first_failure is None:
                        first_failure = self.env.now
                    resume_offset = max(resume_offset, term.checkpoint_s)
                    if policy.exclude_failed_nodes:
                        exclude = exclude + (executor.node.name,)
                    self.redirects += 1
                    if self._lease is not None and not self._lease.active:
                        self._lease = None
                    attempt_span.set(outcome="termination")
                    self._note_retry("termination", executor.node.name, attempts)
                    continue
                except TransferDropped as drop:
                    # The path to the node is broken (partition / loss); the
                    # lease itself may be fine but is unreachable — give it
                    # back and redirect.
                    last_error = drop
                    if first_failure is None:
                        first_failure = self.env.now
                    self._abandon_connection(connection)
                    if policy.exclude_failed_nodes:
                        exclude = exclude + (executor.node.name,)
                    self.redirects += 1
                    attempt_span.set(outcome="dropped")
                    self._note_retry("dropped", executor.node.name, attempts)
                    continue
                finally:
                    self._release_inflight(connection)
        return finish(
            InvocationResult(request=request, status=InvocationStatus.TERMINATED),
            RecoveryOutcome.GAVE_UP,
        )

    def _execute_with_deadline(self, executor, fdef, request, deadline: float):
        """Race the execution against the policy deadline.

        On expiry the running execution is interrupted (the executor
        cleans up exactly as for a platform reclaim) and the resulting
        ``TerminationError`` carries :data:`_TIMEOUT_CAUSE` so the
        caller can tell the two apart.
        """
        exec_proc = executor.execute(fdef, request)
        timer = self.env.timeout(deadline - self.env.now)
        yield self.env.any_of([exec_proc, timer])
        if exec_proc.triggered and exec_proc.ok:
            return exec_proc.value
        if not exec_proc.triggered:
            exec_proc.interrupt(cause=_TIMEOUT_CAUSE)
        # Raises TerminationError: ours (timeout cause) or, on a tie,
        # the platform's own reclaim — both handled by the caller.
        result = yield exec_proc
        return result

    def _abandon_connection(self, connection: Connection) -> None:
        if self._connection is connection:
            if self._lease is not None and self._lease.active:
                self.manager.release_lease(self._lease)
            self._lease = None
            self._executor = None
            self._connection = None
        self._stale.add(connection)

    def _retire(self, connection: Connection) -> None:
        """Close ``connection`` now, or once its in-flight users drain."""
        if self._inflight.get(connection, 0) == 0:
            self._stale.discard(connection)
            connection.close()
        else:
            self._stale.add(connection)

    def _release_inflight(self, connection: Connection) -> None:
        remaining = self._inflight.get(connection, 0) - 1
        if remaining > 0:
            self._inflight[connection] = remaining
            return
        self._inflight.pop(connection, None)
        if connection in self._stale:
            self._stale.discard(connection)
            connection.close()

    def _note_retry(self, reason: str, node: Optional[str], attempt: int) -> None:
        self.retries[reason] = self.retries.get(reason, 0) + 1
        counter = self._m_retries.get(reason)
        if counter is None:
            counter = self._metrics.counter(
                "repro_faults_retries_total", labels={"reason": reason},
                help="client retry attempts, by cause",
            )
            self._m_retries[reason] = counter
        counter.inc()
        self._tracer.instant(
            "recovery.retry", track=f"{self.name}/recovery",
            reason=reason, node=node, attempt=attempt,
        )
