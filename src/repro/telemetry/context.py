"""Causal trace context: one identity for a request's whole journey.

A :class:`TraceContext` is the pair ``(trace_id, span_id)`` that a
request carries from hop to hop — admission queue, warm-pool
acquisition, executor dispatch, retry re-attempts after a crash, the
cloud-burst detour — so that every span
recorded anywhere on its behalf joins **one causal tree** keyed by
``trace_id``, even when the request crosses a node death and resumes on
different hardware.

Mechanics:

* the *front door* (``CapacityPlane`` admission, a bare
  ``RFaaSClient`` when no plane governs it, or ``GpuService.submit``)
  asks its tracer for a fresh context with
  :meth:`~repro.telemetry.tracer.Tracer.mint` and opens the root span —
  only when that tracer is enabled, so an untraced request carries no
  context at all;
* every span opened *under* that context links ``parent_id`` to the
  context's ``span_id`` and stamps ``trace_id`` into its attrs;
* crossing a process boundary (client → executor, plane → admission
  queue) the caller derives a :meth:`child` context from the span it
  just opened, so the callee's spans nest underneath it.

Trace ids come from a counter owned by the telemetry scope that records
the trace (one per :class:`~repro.telemetry.provider.TelemetryCollector`
or standalone :class:`~repro.telemetry.provider.Telemetry`): no
randomness is consumed and no simulation events are scheduled, which
preserves the telemetry subsystem's determinism contract (traced and
untraced runs replay identical event timelines), and a run's trace ids
never depend on what else ran in the interpreter.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = ["TraceContext"]


class TraceContext(NamedTuple):
    """Immutable (trace_id, span_id) pair threaded through invocation hops."""

    trace_id: int
    span_id: Optional[int] = None

    def child(self, span_id: int) -> "TraceContext":
        """The same trace, re-anchored under ``span_id``."""
        return TraceContext(self.trace_id, span_id)
