"""Streaming, bounded-memory span processing.

PR 1's exporters accumulate every span in a list and dump it once at the
end of the run; the ROADMAP's scale-out item names that as the blocker
for 10M-event sweeps.  This module replaces accumulate-then-dump with an
incremental pipeline: every span is handled the moment it closes and
then *dropped* — only fixed-size state survives:

* :class:`JsonlStreamWriter` — spans go to disk as JSONL the moment they
  close, flushed every ``flush_every`` spans, so a crash loses at most
  one flush window and the heap never holds the trace;
* :class:`FlightRecorder` — a fixed-capacity ring of the most recent
  spans ("what just happened"), snapshotted when a trigger span (a
  ``fault.*`` injection by default) flows through, like an aircraft
  flight recorder preserving the seconds before an incident.

:class:`SpanPipeline` chains the two behind a list-like ``append`` so it
drops into :class:`~repro.telemetry.tracer.Tracer` as the span sink and
into :class:`~repro.telemetry.provider.TelemetryCollector` unchanged.
Iterating the pipeline yields the ring tail, so the existing batch
exporters keep working on "what's still in memory".

The stream file is the data: per-kind statistics, per-tenant RED and SLO
burn episodes are computed exactly, after the run, by
:mod:`repro.telemetry.summary` (``repro obs kinds`` and
``repro obs red|slo``).

Nothing here schedules simulation events or consumes randomness: the
pipeline only *observes* closed spans, preserving the determinism
contract (traced and untraced runs replay identical event timelines).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterator, Optional, TextIO, Tuple

from .span import Span

__all__ = ["JsonlStreamWriter", "FlightRecorder", "SpanPipeline"]


# -- sinks --------------------------------------------------------------------

class JsonlStreamWriter:
    """Writes each span as one JSONL line the moment it is appended."""

    def __init__(self, path_or_file: Any, flush_every: int = 256):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        if isinstance(path_or_file, (str,)) or hasattr(path_or_file, "__fspath__"):
            self._fh: TextIO = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = path_or_file
            self._owns = False
        self.flush_every = flush_every
        self.written = 0
        self._since_flush = 0
        self.closed = False

    def append(self, span: Span) -> None:
        if self.closed:
            return
        self._fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self.written += 1
        self._since_flush += 1
        if self._since_flush >= self.flush_every:
            self._fh.flush()
            self._since_flush = 0

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._fh.flush()
        if self._owns:
            self._fh.close()


class FlightRecorder:
    """Fixed-capacity ring of recent spans with fault-triggered snapshots.

    The ring always holds the last ``capacity`` closed spans.  When a
    span whose name starts with one of ``trigger_prefixes`` flows
    through, the current ring contents are preserved as a snapshot —
    the telemetry around the incident survives even though the stream
    itself is unbounded.  At most ``snapshot_limit`` snapshots are kept
    (oldest dropped), so memory stays bounded by
    ``(1 + snapshot_limit) * capacity`` spans.
    """

    def __init__(self, capacity: int = 4096,
                 trigger_prefixes: Tuple[str, ...] = ("fault.",),
                 snapshot_limit: int = 4):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.trigger_prefixes = tuple(trigger_prefixes)
        self.snapshot_limit = snapshot_limit
        self.ring: deque[Span] = deque(maxlen=capacity)
        self.snapshots: deque = deque(maxlen=max(snapshot_limit, 0))
        self.triggers = 0

    def append(self, span: Span) -> None:
        self.ring.append(span)
        if self.trigger_prefixes and span.name.startswith(self.trigger_prefixes):
            self.triggers += 1
            if self.snapshot_limit > 0:
                self.snapshots.append({
                    "trigger": span.name,
                    "at": span.start,
                    "spans": list(self.ring),
                })

    def __len__(self) -> int:
        return len(self.ring)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.ring)


# -- the pipeline -------------------------------------------------------------

class SpanPipeline:
    """Incremental span sink: write-and-drop instead of accumulate.

    Duck-types the ``append`` / ``__iter__`` / ``__len__`` surface of the
    span list the batch exporters expect, so it can be handed to
    :class:`~repro.telemetry.provider.TelemetryCollector` (or a bare
    :class:`~repro.telemetry.tracer.Tracer`) as the sink.  Iteration
    yields the flight-recorder tail — "what is still in memory" — while
    the full stream lives in the optional JSONL writer's file.
    """

    def __init__(self, stream_path: Any = None):
        self.writer: Optional[JsonlStreamWriter] = (
            JsonlStreamWriter(stream_path) if stream_path is not None else None
        )
        self.recorder = FlightRecorder()
        self.seen = 0

    @property
    def peak_retained(self) -> int:
        """Most spans held at once: the ring only ever grows to capacity."""
        return len(self.recorder)

    # -- sink surface --------------------------------------------------------
    def append(self, span: Span) -> None:
        self.seen += 1
        if self.writer is not None:
            self.writer.append(span)
        self.recorder.append(span)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.recorder)

    def __len__(self) -> int:
        return len(self.recorder)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()

    def __enter__(self) -> "SpanPipeline":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False
