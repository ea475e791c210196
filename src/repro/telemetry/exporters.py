"""Exporters: span files in, Chrome ``trace_event`` JSON and Prometheus text out.

* **JSONL** — one span object per line, written as spans close by
  :class:`~repro.telemetry.streaming.JsonlStreamWriter`; lossless,
  trivially greppable, and the input format of ``repro obs``;
* **Chrome trace_event** — loadable in Perfetto / ``about://tracing``;
  each span track (node/executor) becomes one named thread so the
  invocation critical path reads as nested slices;
* **Prometheus text exposition** — counters, gauges (with a
  time-weighted-mean sample), and cumulative histogram buckets, one
  block per metric family.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, Iterable, List, Sequence, TextIO, Tuple, Union

from .metrics import Gauge, Histogram, MetricsRegistry
from .span import Span

__all__ = [
    "load_spans",
    "chrome_trace_events",
    "write_chrome_trace",
    "registry_samples",
    "prometheus_text",
    "write_prometheus_text",
]


# -- span files in -------------------------------------------------------------

def _spans_from_jsonl(text: str) -> List[Span]:
    spans: List[Span] = []
    # A line without a recorded id is numbered locally, in load order.
    local_ids = itertools.count(1)
    for line in text.splitlines():
        line = line.strip()
        if line:
            data = json.loads(line)
            if data.get("span_id") is None:
                data["span_id"] = next(local_ids)
            spans.append(Span.from_dict(data))
    return spans


def _spans_from_chrome(payload: Union[dict, list]) -> List[Span]:
    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    spans: List[Span] = []
    # An event without a recorded id is numbered locally, in load order.
    local_ids = itertools.count(1)
    for event in events:
        if event.get("ph") not in ("X", "i"):
            continue
        args = dict(event.get("args", {}))
        track = args.pop("track", f"{event.get('pid', 0)}/{event.get('tid', 0)}")
        span_id = args.pop("span_id", None)
        start = event["ts"] / 1e6
        span = Span(event.get("name", "?"), start, track=track,
                    parent_id=args.pop("parent_id", None), attrs=args,
                    span_id=next(local_ids) if span_id is None else span_id)
        span.end = start + event.get("dur", 0) / 1e6
        spans.append(span)
    return spans


def load_spans(path: str) -> List[Span]:
    """Read spans back from a JSONL dump *or* a Chrome trace JSON.

    Format detection is explicit rather than try-and-fall-through: a
    Chrome trace is exactly one JSON document that is either a dict
    carrying ``traceEvents`` or a bare event list.  Everything else —
    including a *single-line* JSONL file, whose lone object also parses
    as a top-level dict — is read as per-line JSONL, so a one-span dump
    can never be misrouted through the Chrome parser (which would
    silently drop it for lack of ``ph`` slices).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        return []
    payload = None
    if stripped.startswith(("[", "{")):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None      # multi-line JSONL: not one JSON document
    if isinstance(payload, list) or (
        isinstance(payload, dict) and "traceEvents" in payload
    ):
        return _spans_from_chrome(payload)
    return _spans_from_jsonl(text)


# -- Chrome trace_event -------------------------------------------------------

def _track_ids(spans: Sequence[Span]) -> dict[str, tuple[int, int]]:
    """Map each track "node/detail" to stable (pid, tid) integers."""
    processes: dict[str, int] = {}
    tracks: dict[str, tuple[int, int]] = {}
    tids: dict[str, int] = {}
    for span in spans:
        if span.track in tracks:
            continue
        proc = span.track.split("/", 1)[0]
        pid = processes.setdefault(proc, len(processes) + 1)
        tid = tids.setdefault(span.track, len(tids) + 1)
        tracks[span.track] = (pid, tid)
    return tracks


def chrome_trace_events(spans: Sequence[Span]) -> List[dict]:
    """Spans -> ``trace_event`` dicts (``X`` slices, ``i`` instants)."""
    closed = [s for s in spans if s.end is not None]
    if not closed:
        return []
    t0 = min(s.start for s in closed)
    tracks = _track_ids(closed)
    events: List[dict] = []
    for track, (pid, tid) in sorted(tracks.items(), key=lambda kv: kv[1]):
        proc = track.split("/", 1)[0]
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": proc}})
        events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                       "args": {"name": track}})
    for span in closed:
        pid, tid = tracks[span.track]
        args = {"track": span.track, "span_id": span.span_id, **span.attrs}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event = {
            "name": span.name,
            "ph": "i" if span.is_instant else "X",
            "ts": (span.start - t0) * 1e6,     # trace_event wants microseconds
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if span.is_instant:
            event["s"] = "t"                    # thread-scoped instant
        else:
            event["dur"] = (span.end - span.start) * 1e6
        events.append(event)
    return events


def write_chrome_trace(spans: Sequence[Span], path: str) -> int:
    events = chrome_trace_events(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)


# -- Prometheus text exposition ----------------------------------------------

def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus exposition spec: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


#: One sample line: ``(name, label pairs without the scope, value)``.
Sample = Tuple[str, Tuple[Tuple[str, str], ...], str]
#: One registry's exposition, free of clocks so it can leave the
#: process that recorded it: ``(scope, [(family, kind, help, samples)])``.
RegistrySamples = Tuple[str, List[Tuple[str, str, str, List[Sample]]]]


def registry_samples(registry: MetricsRegistry) -> RegistrySamples:
    """``registry`` as exposition samples, one row per instrument."""
    rows = []
    for metric in registry:
        labels = metric.labels
        if isinstance(metric, Gauge):
            samples = [
                (metric.name, labels, _fmt(metric.value)),
                (metric.name, labels + (("stat", "time_weighted_mean"),),
                 _fmt(metric.time_weighted_mean())),
            ]
        elif isinstance(metric, Histogram):
            samples = [(f"{metric.name}_bucket", labels + (("le", _fmt(bound)),),
                        str(cumulative))
                       for bound, cumulative in metric.cumulative_buckets()]
            samples.append((f"{metric.name}_sum", labels, _fmt(metric.sum)))
            samples.append((f"{metric.name}_count", labels, str(metric.count)))
        else:
            samples = [(metric.name, labels, _fmt(metric.value))]
        rows.append((metric.name, metric.kind, metric.help, samples))
    return registry.scope, rows


def _label_text(pairs: Iterable[Tuple[str, str]]) -> str:
    pairs = sorted(pairs)
    if not pairs:
        return ""
    return "{%s}" % ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)


def prometheus_text(
    registries: Union[MetricsRegistry, Iterable[Union[MetricsRegistry, RegistrySamples]]],
) -> str:
    """Render registries (or their :func:`registry_samples`) as exposition text.

    Registries keep their ``scope`` as a label so metrics from several
    simulated environments in one run stay distinguishable.  Each metric
    family is one block: a ``# HELP``/``# TYPE`` pair, then every sample
    of that family in registry order.
    """
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    families: Dict[str, Tuple[str, str, List[str]]] = {}
    for registry in registries:
        scope, rows = (registry if isinstance(registry, tuple)
                       else registry_samples(registry))
        scope_label = (("scope", scope),) if scope else ()
        for family, kind, help_text, samples in rows:
            lines = families.setdefault(family, (kind, help_text, []))[2]
            lines.extend(f"{name}{_label_text(labels + scope_label)} {value}"
                         for name, labels, value in samples)
    text: List[str] = []
    for family, (kind, help_text, lines) in families.items():
        if help_text:
            text.append(f"# HELP {family} {help_text}")
        text.append(f"# TYPE {family} {kind}")
        text.extend(lines)
    return "\n".join(text) + ("\n" if text else "")


def write_prometheus_text(
    registries: Union[MetricsRegistry, Iterable[Union[MetricsRegistry, RegistrySamples]]],
    path_or_file: Union[str, TextIO],
) -> None:
    text = prometheus_text(registries)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)
