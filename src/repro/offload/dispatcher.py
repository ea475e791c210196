"""Live offload dispatcher: Eq. 1 applied to real work (Fig. 13).

Splits a batch of payload chunks between the calling process ("OpenMP"
side) and the process-based runtime ("rFaaS executors"), following the
:class:`~repro.offload.model.OffloadModel` plan.  Remote chunks are
submitted *first* so their latency hides behind local compute — the
paper's never-wait principle — then local chunks run inline, and finally
remote results are gathered (by then, ideally already complete).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..local.runtime import LocalRuntime
from ..local.serialization import payload_nbytes
from ..telemetry import SpanKind, telemetry_of
from .model import OffloadModel, OffloadPlan

__all__ = ["DispatchReport", "OffloadDispatcher", "calibrate_model"]


@dataclass
class DispatchReport:
    """Outcome of one dispatched batch."""

    results: list                # in payload order
    plan: OffloadPlan
    wall_time_s: float
    local_time_s: float          # time spent computing local chunks
    gather_wait_s: float         # extra time waiting on remote futures


class OffloadDispatcher:
    """Runs payload batches with model-guided local/remote splitting."""

    def __init__(self, runtime: LocalRuntime, model: OffloadModel):
        self.runtime = runtime
        self.model = model
        # Wall-clock telemetry scope (this runtime is live, not simulated).
        self.telemetry = telemetry_of(None)

    def run(
        self,
        function: str,
        local_fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        **kwargs: Any,
    ) -> DispatchReport:
        """Execute every payload; remote overflow per the model's plan.

        ``function`` must be registered with the runtime and implement the
        same computation as ``local_fn`` (the paper's modified OpenMP
        loop body vs. its rFaaS twin).
        """
        n = len(payloads)
        t_start = time.perf_counter()
        if n == 0:
            return DispatchReport([], OffloadPlan(0, 0, 0.0), 0.0, 0.0, 0.0)
        plan = self.model.split(n, remote_workers=self.runtime.workers)

        tracer = self.telemetry.tracer
        # Submit the tail chunks remotely first (never-wait principle).
        # The remote span runs submit -> last gathered result, so its
        # duration is Eq. 1's T_inv + L as experienced by this batch;
        # the local span is the compute it must hide behind.
        remote_payloads = payloads[plan.n_local:]
        remote_span = tracer.begin(
            SpanKind.OFFLOAD_REMOTE, track="offload",
            function=function, chunks=len(remote_payloads),
        )
        futures = [
            self.runtime.invoke(function, payload, **kwargs)
            for payload in remote_payloads
        ]
        # Local chunks run inline.
        with tracer.span(SpanKind.OFFLOAD_LOCAL, track="offload",
                         function=function, chunks=plan.n_local):
            t_local0 = time.perf_counter()
            local_results = [local_fn(payload, **kwargs) for payload in payloads[: plan.n_local]]
            local_time = time.perf_counter() - t_local0
        # Gather.
        t_gather0 = time.perf_counter()
        remote_results = [f.result() for f in futures]
        gather_wait = time.perf_counter() - t_gather0
        tracer.finish(remote_span, gather_wait_s=gather_wait)
        wall = time.perf_counter() - t_start
        return DispatchReport(
            results=local_results + remote_results,
            plan=plan,
            wall_time_s=wall,
            local_time_s=local_time,
            gather_wait_s=gather_wait,
        )


def calibrate_model(
    runtime: LocalRuntime,
    function: str,
    local_fn: Callable[[Any], Any],
    probe_payload: Any,
    bandwidth: float = 2e9,
    latency: Optional[float] = None,
    repeats: int = 3,
    **kwargs: Any,
) -> OffloadModel:
    """Measure T_local and T_inv with probe invocations (Sec. IV-F).

    "We measure the runtime of one task T_local and then compare this to
    the runtime T_inv of one invocation using rFaaS, to which we add the
    round-trip network time L."  On the local runtime, L is the IPC
    round-trip, measured with a no-op-sized payload unless given.
    """
    if repeats < 1:
        raise ValueError("need >= 1 repeat")
    runtime.prewarm()
    # T_local.
    t0 = time.perf_counter()
    for _ in range(repeats):
        local_fn(probe_payload, **kwargs)
    t_local = (time.perf_counter() - t0) / repeats
    # T_inv (warm invocations).
    runtime.invoke_sync(function, probe_payload, **kwargs)
    t0 = time.perf_counter()
    for _ in range(repeats):
        runtime.invoke_sync(function, probe_payload, **kwargs)
    t_inv = (time.perf_counter() - t0) / repeats
    if latency is None:
        # Round-trip overhead estimate: difference beyond compute time,
        # floored to keep the model valid.
        latency = max(t_inv - t_local, 1e-5)
    return OffloadModel(
        t_local=max(t_local, 1e-9),
        t_inv=max(t_inv, 1e-9),
        latency=latency,
        bandwidth=bandwidth,
        data_per_task=max(payload_nbytes(probe_payload), 1),
    )
