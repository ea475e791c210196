"""Post-hoc analyses over exported telemetry.

The span file a sweep writes (``--stream-spans``, or a
``--trace`` Chrome JSON) is the data; everything here is a plain
function over an iterable of :class:`Span`, computed exactly after the
run rather than estimated live:

* :func:`span_kind_stats` / :func:`span_summary_table` — for every span
  name, the count and the mean/p50/p95/max duration: the decomposition
  the paper's Fig. 7 discussion walks through (dispatch pickup vs.
  sandbox acquisition vs. execution).  ``repro obs kinds``.
* :func:`red_rows` — per-tenant RED (rate, errors, duration) over the
  request-root spans.  ``repro obs red``.
* :func:`slo_episodes` — sliding-window error-budget burn episodes per
  tenant, replayed separately for each run in the file.
  ``repro obs slo``.

All three share :func:`duration_stats`, numpy's exact percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..analysis.tables import render_table
from .span import Span, SpanKind, closed_spans_by_run

__all__ = [
    "SloConfig",
    "duration_stats",
    "red_rows",
    "slo_episodes",
    "span_kind_stats",
    "span_summary_table",
]


def duration_stats(durations: Sequence[float]) -> Dict[str, float]:
    """Exact sum/mean/min/max and p50/p95/p99 of a non-empty sample."""
    arr = np.asarray(durations, dtype=float)
    p50, p95, p99 = np.percentile(arr, (50, 95, 99))
    return {
        "sum": float(arr.sum()),
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
    }


def span_kind_stats(spans: Iterable[Span]) -> Dict[str, dict]:
    """Per span-name duration statistics (instants contribute count only)."""
    groups: Dict[str, List[Span]] = {}
    for span in spans:
        if span.end is None:
            continue
        groups.setdefault(span.name, []).append(span)
    stats: Dict[str, dict] = {}
    for name, members in sorted(groups.items()):
        durations = [s.duration for s in members if not s.is_instant]
        entry: dict = {"count": len(members), "instants": len(members) - len(durations)}
        if durations:
            entry.update(duration_stats(durations))
        stats[name] = entry
    return stats


def span_summary_table(spans: Sequence[Span]) -> str:
    """The ``repro obs kinds`` latency table."""
    stats = span_kind_stats(spans)
    if not stats:
        return "no spans recorded"
    rows = []
    for name, entry in stats.items():
        if "mean" in entry:
            rows.append([
                name, entry["count"],
                entry["mean"] * 1e6, entry["p50"] * 1e6,
                entry["p95"] * 1e6, entry["max"] * 1e6,
            ])
        else:
            rows.append([name, entry["count"], "-", "-", "-", "-"])
    return render_table(
        ["span", "count", "mean (us)", "p50 (us)", "p95 (us)", "max (us)"],
        rows,
        title=f"Telemetry summary — {sum(e['count'] for e in stats.values())} spans",
    )


# -- request roots: RED and SLO -----------------------------------------------

def _tenant_of(span: Span) -> str:
    return str(span.attrs.get("tenant") or span.attrs.get("client") or "unknown")


def _is_request_root(span: Span) -> bool:
    """Closed request-level spans, counted once per request.

    Governed invocations are counted at their ``capacity.invocation``
    root; a bare client's ``rfaas.request`` only counts when it has no
    parent (otherwise the capacity root above it already counted it).
    """
    if span.end is None:
        return False
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


def red_rows(spans: Iterable[Span]) -> List[dict]:
    """Per-tenant RED rollup, sorted by tenant.

    Each row holds ``tenant``, ``count`` (requests), ``errors`` and the
    :func:`duration_stats` of the request durations.
    """
    durations: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for span in spans:
        if not _is_request_root(span):
            continue
        tenant = _tenant_of(span)
        durations.setdefault(tenant, []).append(span.duration)
        errors[tenant] = errors.get(tenant, 0) + _is_error(span)
    return [
        {"tenant": tenant, "count": len(durations[tenant]),
         "errors": errors[tenant], **duration_stats(durations[tenant])}
        for tenant in sorted(durations)
    ]


#: Fixed bucket count of an SLO window: it advances one bucket at a time.
SLO_BUCKETS = 12
#: Burn rate at or above which an episode starts (1.0 = the budget is
#: being spent exactly as fast as the window allows).
BURN_THRESHOLD = 1.0


@dataclass(frozen=True)
class SloConfig:
    """One tenant-wide SLO: latency threshold plus an error budget."""

    #: A request slower than this counts against the budget.
    latency_threshold_s: float = 1.0
    #: Fraction of requests allowed to be bad (slow or failed).
    error_budget: float = 0.01
    #: Sliding window over which the burn rate is evaluated.
    window_s: float = 60.0

    def __post_init__(self):
        if self.latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be positive")
        if not 0 < self.error_budget < 1:
            raise ValueError("error_budget must be in (0, 1)")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")


class _TenantWindow:
    """Fixed-bucket sliding window of (total, bad) request counts."""

    __slots__ = ("bucket_s", "buckets", "totals", "bads", "head_index")

    def __init__(self, config: SloConfig):
        self.bucket_s = config.window_s / SLO_BUCKETS
        self.buckets = SLO_BUCKETS
        self.totals = [0] * SLO_BUCKETS
        self.bads = [0] * SLO_BUCKETS
        self.head_index = None   # absolute bucket index of the head

    def observe(self, t: float, bad: bool) -> None:
        """Count one request ending at ``t`` (never before the last one)."""
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
        slot = index % self.buckets
        self.totals[slot] += 1
        if bad:
            self.bads[slot] += 1


def slo_episodes(spans: Iterable[Span],
                 config: SloConfig = SloConfig()) -> List[dict]:
    """Burn-rate episodes per tenant, one row each, in stream order.

    Burn rate is ``bad_fraction / error_budget`` over the window, where
    a request is bad when it failed or took longer than the latency
    threshold: 1.0 means the tenant spends its budget exactly as fast
    as allowed.  An episode starts when the rate reaches
    :data:`BURN_THRESHOLD` and the tenant re-arms only after it drops back
    below, so a sustained burn is one row, not thousands.

    Each run in the file (:func:`~repro.telemetry.span.closed_spans_by_run`)
    is replayed separately, from empty windows.  A row holds ``run``
    (0-based), ``tenant``, ``t`` (the end of the request that started
    the episode), ``burn_rate``, and the window's ``bad``/``total``.
    """
    episodes: List[dict] = []
    current = 0
    windows: Dict[str, _TenantWindow] = {}
    burning: set = set()
    for run, span in closed_spans_by_run(spans):
        if run != current:
            current, windows, burning = run, {}, set()
        if not _is_request_root(span):
            continue
        tenant = _tenant_of(span)
        window = windows.get(tenant)
        if window is None:
            window = windows[tenant] = _TenantWindow(config)
        bad = _is_error(span) or span.duration > config.latency_threshold_s
        window.observe(span.end, bad)
        total, bads = sum(window.totals), sum(window.bads)
        rate = (bads / total) / config.error_budget
        if rate < BURN_THRESHOLD:
            burning.discard(tenant)
        elif tenant not in burning:
            burning.add(tenant)
            episodes.append({"run": run, "tenant": tenant, "t": span.end,
                             "burn_rate": round(rate, 4), "bad": bads,
                             "total": total})
    return episodes

