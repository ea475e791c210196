"""Unified telemetry: sim-time tracing spans, metrics, and exporters.

The observability layer for the whole reproduction.  Subsystems obtain
their handle with ``telemetry_of(env)`` (a no-op implementation when
telemetry is disabled — the default), a streaming sweep activates a
:class:`TelemetryCollector` around each scenario that writes its spans
as JSONL the moment they close, and exporters turn that stream into
Chrome ``trace_event`` JSON (Perfetto) and the scenarios' registries
into Prometheus text.  See ``docs/observability.md`` for the span
taxonomy and metric naming convention.
"""

from .exporters import (
    chrome_trace_events,
    load_spans,
    prometheus_text,
    registry_samples,
    write_chrome_trace,
    write_prometheus_text,
)
from .metrics import (
    METRIC_NAME_RE,
    METRIC_UNITS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    validate_metric_name,
)
from .provider import (
    NULL_TELEMETRY,
    Telemetry,
    TelemetryCollector,
    telemetry_of,
)
from .causal import (
    critical_path,
    critical_path_table,
    trace_index,
    trace_root,
    trace_summaries,
)
from .context import TraceContext
from .span import Span, SpanKind
from .streaming import JsonlStreamWriter
from .summary import (
    SloConfig,
    red_rows,
    slo_episodes,
    span_kind_stats,
    span_summary_table,
)
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Span",
    "SpanKind",
    "TraceContext",
    "JsonlStreamWriter",
    "trace_index",
    "trace_root",
    "trace_summaries",
    "critical_path",
    "critical_path_table",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "METRIC_NAME_RE",
    "METRIC_UNITS",
    "validate_metric_name",
    "Telemetry",
    "TelemetryCollector",
    "NULL_TELEMETRY",
    "telemetry_of",
    "load_spans",
    "chrome_trace_events",
    "write_chrome_trace",
    "registry_samples",
    "prometheus_text",
    "write_prometheus_text",
    "span_kind_stats",
    "span_summary_table",
    "red_rows",
    "SloConfig",
    "slo_episodes",
]
