"""Streaming span output: write each span the moment it closes.

:class:`JsonlStreamWriter` is the span sink of a streaming
:class:`~repro.telemetry.provider.TelemetryCollector` (and of a bare
:class:`~repro.telemetry.tracer.Tracer`): every closed span goes to disk
as one JSONL line and is then dropped, flushed every :data:`FLUSH_EVERY`
spans, so a crash loses at most one flush window and the heap never
holds the trace.  A sweep streams each scenario into its own part file
this way (:func:`repro.sweep.run_sweep`).

The stream file is the data: per-kind statistics, per-tenant RED and SLO
burn episodes are computed exactly, after the run, by
:mod:`repro.telemetry.summary` (``repro obs kinds`` and
``repro obs red|slo``), and ``repro sweep --trace`` converts it to a
Chrome trace.

Nothing here schedules simulation events or consumes randomness: the
writer only *observes* closed spans, preserving the determinism
contract (traced and untraced runs replay identical event timelines).
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .span import Span

__all__ = ["JsonlStreamWriter"]

#: Spans written between two flushes of the stream file.
FLUSH_EVERY = 256


class JsonlStreamWriter:
    """Writes each span as one JSONL line the moment it is appended."""

    def __init__(self, path_or_file: Any):
        if isinstance(path_or_file, (str,)) or hasattr(path_or_file, "__fspath__"):
            self._fh: TextIO = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = path_or_file
            self._owns = False
        self.written = 0
        self._since_flush = 0
        self.closed = False

    def append(self, span: Span) -> None:
        if self.closed:
            return
        self._fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self.written += 1
        self._since_flush += 1
        if self._since_flush >= FLUSH_EVERY:
            self._fh.flush()
            self._since_flush = 0

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False
