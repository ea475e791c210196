"""Span records: named, attributed intervals of (simulated or wall) time.

A :class:`Span` is the unit of tracing.  Spans nest through
``parent_id`` links and are grouped onto *tracks* — one per node or
executor — which the Chrome ``trace_event`` exporter maps to
process/thread lanes so an invocation's critical path reads left to
right in Perfetto exactly like Fig. 7's latency decomposition.

A span's ``span_id`` is handed in by whoever creates it: the recording
:class:`~repro.telemetry.tracer.Tracer` draws it from the counter of
the telemetry scope that owns it (one counter per
:class:`~repro.telemetry.provider.TelemetryCollector`, shared by all of
its scopes), and a loader passes back the id it read.  No id depends on
what else ran in the interpreter.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Optional, Tuple

__all__ = ["Span", "SpanKind", "closed_spans_by_run"]


class SpanKind:
    """Well-known span names (the taxonomy in docs/observability.md)."""

    REQUEST = "rfaas.request"            # client-side root of one request
    ATTEMPT = "rfaas.attempt"            # one try; retries are siblings
    CAPACITY = "capacity.invocation"     # governed front-door root
    INVOCATION = "rfaas.invocation"
    DISPATCH = "rfaas.dispatch"
    SANDBOX = "rfaas.sandbox"
    EXECUTION = "rfaas.execution"
    LEASE = "rfaas.lease"
    WARMPOOL_ACQUIRE = "warmpool.acquire"
    GPU_REQUEST = "gpu.request"          # root of one GPU invocation
    GPU_BATCH = "gpu.batch"              # one coalesced kernel launch
    GPU_BATCH_ITEM = "gpu.batch.item"    # one request's ride on a batch
    JOB = "slurm.job"
    OFFLOAD_LOCAL = "offload.local"
    OFFLOAD_REMOTE = "offload.remote"


class Span:
    """One traced interval.  ``end is None`` while the span is open."""

    __slots__ = ("span_id", "parent_id", "name", "track", "start", "end", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        track: str = "main",
        parent_id: Optional[int] = None,
        attrs: Optional[dict] = None,
        *,
        span_id: int,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} still open")
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes after creation (e.g. the sandbox kind)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            data["name"],
            data["start"],
            track=data.get("track", "main"),
            parent_id=data.get("parent_id"),
            attrs=data.get("attrs"),
            span_id=data["span_id"],
        )
        span.end = data.get("end")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return f"<Span {self.name} [{self.start:.6f}..{end}] track={self.track}>"


def closed_spans_by_run(spans: Iterable[Span]) -> Iterator[Tuple[int, Span]]:
    """``(run, span)`` for each closed span, runs numbered from 0.

    Spans are appended as they close, so ``end`` never decreases within
    one clock; a sweep stream concatenates its scenarios in plan order,
    and every scenario's clocks restart at zero, so a span that ends
    earlier than the one before it starts the next run.
    """
    run = 0
    last_end = -math.inf
    for span in spans:
        if span.end is None:
            continue
        if span.end < last_end:
            run += 1
        last_end = span.end
        yield run, span
