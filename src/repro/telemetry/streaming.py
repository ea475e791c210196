"""Streaming, bounded-memory span processing.

PR 1's exporters accumulate every span in a list and dump it once at the
end of the run; the ROADMAP's scale-out item names that as the blocker
for 10M-event sweeps.  This module replaces accumulate-then-dump with an
incremental pipeline: every span is processed the moment it closes and
then *dropped* — only fixed-size state survives:

* :class:`JsonlStreamWriter` — spans go to disk as JSONL the moment they
  close, flushed every ``flush_every`` spans, so a crash loses at most
  one flush window and the heap never holds the trace;
* :class:`FlightRecorder` — a fixed-capacity ring of the most recent
  spans ("what just happened"), snapshotted when a trigger span (a
  ``fault.*`` injection by default) flows through, like an aircraft
  flight recorder preserving the seconds before an incident;
* :class:`StreamStats` / :class:`P2Quantile` — online count/sum/min/max
  plus P² quantile estimates (Jain & Chlamtac 1985): five markers per
  quantile instead of the whole sample vector, replacing the ``numpy``
  whole-array percentiles for streaming use;
* :class:`RedAggregator` — per-tenant RED (rate, errors, duration)
  rollup driven by request-root spans, exported as ``repro_red_*``
  counters plus P² latency quantiles;
* :class:`SloMonitor` — a sliding-window burn-rate monitor over a fixed
  number of time buckets; when a tenant spends its error budget faster
  than the configured burn threshold it synthesizes an ``slo.breach``
  instant span into the stream.

:class:`SpanPipeline` chains them behind a list-like ``append`` so it
drops into :class:`~repro.telemetry.tracer.Tracer` as the span sink and
into :class:`~repro.telemetry.provider.TelemetryCollector` unchanged.
Iterating the pipeline yields the ring tail, so the existing batch
exporters keep working on "what's still in memory".

Nothing here schedules simulation events or consumes randomness: the
pipeline only *observes* closed spans, preserving the determinism
contract (traced and untraced runs replay identical event timelines).
"""

from __future__ import annotations

import bisect
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from .metrics import MetricsRegistry
from .span import Span, SpanKind

__all__ = [
    "P2Quantile",
    "StreamStats",
    "JsonlStreamWriter",
    "FlightRecorder",
    "RedAggregator",
    "SloConfig",
    "SloMonitor",
    "StreamConfig",
    "SpanPipeline",
]


# -- online estimators --------------------------------------------------------

class P2Quantile:
    """P² single-quantile estimator: five markers, O(1) per observation.

    Jain & Chlamtac, "The P² algorithm for dynamic calculation of
    quantiles and histograms without storing observations" (CACM 1985).
    Until five observations arrive the exact sorted sample is kept; from
    then on only the five marker heights/positions are adjusted, so
    memory stays constant no matter how long the stream runs.
    """

    __slots__ = ("p", "count", "_q", "_pos", "_desired", "_incr")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.p = p
        self.count = 0
        self._q: List[float] = []            # marker heights
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
        self._incr = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def observe(self, x: float) -> None:
        self.count += 1
        q = self._q
        if len(q) < 5:
            bisect.insort(q, float(x))
            return
        n = self._pos
        if x < q[0]:
            q[0] = float(x)
            k = 0
        elif x >= q[4]:
            q[4] = float(x)
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._desired[i] += self._incr[i]
        for i in (1, 2, 3):
            d = self._desired[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                sign = 1 if d > 0 else -1
                candidate = self._parabolic(i, sign)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, sign)
                q[i] = candidate
                n[i] += sign

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._q, self._pos
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        q, n = self._q, self._pos
        return q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> float:
        """Current estimate (exact nearest-rank below five observations)."""
        if self.count == 0:
            return math.nan
        if self.count < 5:
            rank = max(0, min(len(self._q) - 1,
                              int(math.ceil(self.p * len(self._q))) - 1))
            return self._q[rank]
        return self._q[2]


class StreamStats:
    """Online count/sum/min/max/mean plus a fixed set of P² quantiles."""

    __slots__ = ("count", "total", "minimum", "maximum", "quantiles")

    def __init__(self, quantiles: Sequence[float] = (0.5, 0.95, 0.99)):
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.quantiles: Dict[float, P2Quantile] = {
            p: P2Quantile(p) for p in quantiles
        }

    def observe(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x
        for estimator in self.quantiles.values():
            estimator.observe(x)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def snapshot(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else math.nan,
            "max": self.maximum if self.count else math.nan,
        }
        for p, estimator in self.quantiles.items():
            out[f"p{int(round(p * 100))}"] = estimator.value
        return out


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


# -- per-tenant rollups -------------------------------------------------------

def _tenant_of(span: Span) -> str:
    return str(span.attrs.get("tenant") or span.attrs.get("client") or "unknown")


def _is_request_root(span: Span) -> bool:
    """Request-level spans that should count once per request.

    Governed invocations are counted at their ``capacity.invocation``
    root; a bare client's ``rfaas.request`` only counts when it has no
    parent (otherwise the capacity root above it already counted it).
    """
    if span.name == SpanKind.CAPACITY:
        return True
    return span.name == SpanKind.REQUEST and span.parent_id is None


def _is_error(span: Span) -> bool:
    if span.name == SpanKind.CAPACITY:
        return span.attrs.get("route") == "rejected"
    status = span.attrs.get("status")
    if status is not None and status != "ok":
        return True
    return span.attrs.get("outcome") in ("gave_up", "timed_out")


class RedAggregator:
    """Per-tenant RED rollup: request rate, error count, duration.

    Rate and errors are plain counters (``repro_red_requests_total`` /
    ``repro_red_errors_total`` per tenant); duration is an online
    :class:`StreamStats` with P² quantiles and a running-sum counter
    (``repro_red_duration_seconds``) — no per-request state is kept.
    """

    def __init__(self, metrics: MetricsRegistry,
                 quantiles: Sequence[float] = (0.5, 0.95, 0.99)):
        self._metrics = metrics
        self._quantiles = tuple(quantiles)
        self.tenants: Dict[str, StreamStats] = {}
        self.errors: Dict[str, int] = {}
        self._m_requests: Dict[str, Any] = {}
        self._m_errors: Dict[str, Any] = {}
        self._m_duration: Dict[str, Any] = {}

    def observe(self, span: Span) -> None:
        if not _is_request_root(span) or span.end is None:
            return
        tenant = _tenant_of(span)
        stats = self.tenants.get(tenant)
        if stats is None:
            stats = self.tenants[tenant] = StreamStats(self._quantiles)
            self.errors[tenant] = 0
            self._m_requests[tenant] = self._metrics.counter(
                "repro_red_requests_total", labels={"tenant": tenant},
                help="requests observed by the RED rollup, per tenant",
            )
            self._m_errors[tenant] = self._metrics.counter(
                "repro_red_errors_total", labels={"tenant": tenant},
                help="failed requests observed by the RED rollup, per tenant",
            )
            self._m_duration[tenant] = self._metrics.counter(
                "repro_red_duration_seconds", labels={"tenant": tenant},
                help="running sum of request durations, per tenant",
            )
        duration = span.duration
        stats.observe(duration)
        self._m_requests[tenant].inc()
        self._m_duration[tenant].inc(duration)
        if _is_error(span):
            self.errors[tenant] += 1
            self._m_errors[tenant].inc()

    def table(self) -> List[dict]:
        rows = []
        for tenant in sorted(self.tenants):
            stats = self.tenants[tenant]
            row = {"tenant": tenant, "errors": self.errors[tenant]}
            row.update(stats.snapshot())
            rows.append(row)
        return rows


@dataclass(frozen=True)
class SloConfig:
    """One tenant-wide SLO: latency threshold plus an error budget."""

    #: A request slower than this counts against the budget.
    latency_threshold_s: float = 1.0
    #: Fraction of requests allowed to be bad (slow or failed).
    error_budget: float = 0.01
    #: Sliding window over which the burn rate is evaluated.
    window_s: float = 60.0
    #: Fixed bucket count: memory per tenant is O(buckets), not O(requests).
    buckets: int = 12
    #: Burn rate at or above which a breach span is emitted (1.0 = the
    #: budget is being spent exactly as fast as the window allows).
    burn_threshold: float = 1.0

    def __post_init__(self):
        if self.latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be positive")
        if not 0 < self.error_budget < 1:
            raise ValueError("error_budget must be in (0, 1)")
        if self.window_s <= 0 or self.buckets < 1:
            raise ValueError("window must be positive with >= 1 bucket")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")


class _TenantWindow:
    """Fixed-bucket sliding window of (total, bad) request counts."""

    __slots__ = ("bucket_s", "buckets", "totals", "bads", "head_index")

    def __init__(self, config: SloConfig):
        self.bucket_s = config.window_s / config.buckets
        self.buckets = config.buckets
        self.totals = [0] * config.buckets
        self.bads = [0] * config.buckets
        self.head_index: Optional[int] = None   # absolute bucket index of head

    def observe(self, t: float, bad: bool) -> None:
        index = int(t / self.bucket_s)
        if self.head_index is None:
            self.head_index = index
        elif index > self.head_index:
            # Zero every bucket the stream skipped past.
            steps = min(index - self.head_index, self.buckets)
            for _ in range(steps):
                self.head_index += 1
                slot = self.head_index % self.buckets
                self.totals[slot] = 0
                self.bads[slot] = 0
            self.head_index = index
        elif index < self.head_index - self.buckets + 1:
            return  # older than the window (multi-env clock restart); drop
        slot = index % self.buckets
        self.totals[slot] += 1
        if bad:
            self.bads[slot] += 1

    @property
    def total(self) -> int:
        return sum(self.totals)

    @property
    def bad(self) -> int:
        return sum(self.bads)


class SloMonitor:
    """Sliding-window burn-rate monitor emitting ``slo.breach`` spans.

    Burn rate is ``bad_fraction / error_budget`` over the window: 1.0
    means the tenant is spending its budget exactly as fast as allowed,
    2.0 means twice as fast.  A breach span is emitted when the rate
    crosses ``burn_threshold`` and re-arms only after it drops back
    below, so a sustained burn produces one span, not thousands.
    """

    def __init__(self, metrics: MetricsRegistry, config: Optional[SloConfig] = None):
        self.config = config or SloConfig()
        self._metrics = metrics
        self._windows: Dict[str, _TenantWindow] = {}
        self._burning: Dict[str, bool] = {}
        self._m_breaches: Dict[str, Any] = {}
        self._m_bad: Dict[str, Any] = {}
        self.breaches: List[Span] = []      # bounded: one per burn episode

    def burn_rate(self, tenant: str) -> float:
        window = self._windows.get(tenant)
        if window is None or not window.total:
            return 0.0
        return (window.bad / window.total) / self.config.error_budget

    def observe(self, span: Span) -> Optional[Span]:
        """Feed one request root; returns a breach span when one fires."""
        if not _is_request_root(span) or span.end is None:
            return None
        tenant = _tenant_of(span)
        window = self._windows.get(tenant)
        if window is None:
            window = self._windows[tenant] = _TenantWindow(self.config)
            self._burning[tenant] = False
            self._m_breaches[tenant] = self._metrics.counter(
                "repro_slo_breaches_total", labels={"tenant": tenant},
                help="burn-rate breach episodes, per tenant",
            )
            self._m_bad[tenant] = self._metrics.counter(
                "repro_slo_bad_requests_total", labels={"tenant": tenant},
                help="requests that were slow or failed, per tenant",
            )
        bad = _is_error(span) or span.duration > self.config.latency_threshold_s
        window.observe(span.end, bad)
        if bad:
            self._m_bad[tenant].inc()
        rate = self.burn_rate(tenant)
        if rate >= self.config.burn_threshold:
            if not self._burning[tenant]:
                self._burning[tenant] = True
                self._m_breaches[tenant].inc()
                breach = Span(
                    SpanKind.SLO_BREACH, span.end, track="slo",
                    attrs={
                        "tenant": tenant,
                        "burn_rate": round(rate, 4),
                        "bad": window.bad,
                        "total": window.total,
                        "window_s": self.config.window_s,
                    },
                )
                breach.end = span.end
                self.breaches.append(breach)
                return breach
        else:
            self._burning[tenant] = False
        return None


# -- the pipeline -------------------------------------------------------------

@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming span pipeline."""

    ring_capacity: int = 4096
    flush_every: int = 256
    snapshot_limit: int = 4
    trigger_prefixes: Tuple[str, ...] = ("fault.",)
    quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99)
    slo: SloConfig = field(default_factory=SloConfig)

    def __post_init__(self):
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")


class SpanPipeline:
    """Incremental span sink: process-and-drop instead of accumulate.

    Duck-types the ``append`` / ``__iter__`` / ``__len__`` surface of the
    span list the batch exporters expect, so it can be handed to
    :class:`~repro.telemetry.provider.TelemetryCollector` (or a bare
    :class:`~repro.telemetry.tracer.Tracer`) as the sink.  Iteration
    yields the flight-recorder tail — "what is still in memory" — while
    the full stream lives in the optional JSONL writer's file.
    """

    def __init__(self, config: Optional[StreamConfig] = None,
                 stream_path: Any = None):
        self.config = config or StreamConfig()
        # Counters only: histograms/gauges retain per-sample state, which
        # would defeat the bounded-memory point of the pipeline.
        self.metrics = MetricsRegistry(lambda: 0.0, scope="stream")
        self.writer: Optional[JsonlStreamWriter] = (
            JsonlStreamWriter(stream_path, flush_every=self.config.flush_every)
            if stream_path is not None else None
        )
        self.recorder = FlightRecorder(
            capacity=self.config.ring_capacity,
            trigger_prefixes=self.config.trigger_prefixes,
            snapshot_limit=self.config.snapshot_limit,
        )
        self.kind_stats: Dict[str, StreamStats] = {}
        self.red = RedAggregator(self.metrics, quantiles=self.config.quantiles)
        self.slo = SloMonitor(self.metrics, self.config.slo)
        self.seen = 0
        self.peak_retained = 0

    # -- sink surface --------------------------------------------------------
    def append(self, span: Span) -> None:
        self.seen += 1
        if self.writer is not None:
            self.writer.append(span)
        self.recorder.append(span)
        stats = self.kind_stats.get(span.name)
        if stats is None:
            stats = self.kind_stats[span.name] = StreamStats(self.config.quantiles)
        if span.end is not None:
            stats.observe(span.duration)
        self.red.observe(span)
        breach = self.slo.observe(span)
        if breach is not None:
            # Synthesized spans join the stream like any other.
            if self.writer is not None:
                self.writer.append(breach)
            self.recorder.append(breach)
        retained = len(self.recorder.ring)
        if retained > self.peak_retained:
            self.peak_retained = retained

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
