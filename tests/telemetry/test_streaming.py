"""The span stream: the bounded live pipeline, and the exact offline
RED/SLO analyses over the file it writes.

The bounded-memory assertions are the pipeline's acceptance criterion:
it must retain at most the flight recorder's capacity no matter how
long the stream runs — 100k spans in, ring-sized tail out.
"""

import itertools
import json

import numpy as np
import pytest

from repro.telemetry import (
    FlightRecorder,
    JsonlStreamWriter,
    SloConfig,
    Span,
    SpanKind,
    SpanPipeline,
    load_spans,
    red_rows,
    slo_episodes,
)
from repro.telemetry.summary import duration_stats


def test_stream_stats_snapshot_keys():
    """The exact duration summary every RED row and span kind carries."""
    snap = duration_stats([4.0, 1.0, 3.0, 2.0])
    assert snap["sum"] == 10.0
    assert snap["mean"] == 2.5
    assert snap["min"] == 1.0 and snap["max"] == 4.0
    for p in (50, 95, 99):
        assert snap[f"p{p}"] == np.percentile([1.0, 2.0, 3.0, 4.0], p)


# -- sinks --------------------------------------------------------------------

_span_ids = itertools.count(1)


def make_span(name, start, duration=0.01, parent_id=None, **attrs):
    span = Span(name, start, parent_id=parent_id, attrs=attrs,
                span_id=next(_span_ids))
    span.end = start + duration
    return span


def test_jsonl_writer_streams_and_flushes(tmp_path):
    path = tmp_path / "stream.jsonl"
    writer = JsonlStreamWriter(path, flush_every=2)
    writer.append(make_span("a", 0.0))
    writer.append(make_span("b", 1.0))       # hits the flush threshold
    assert len(path.read_text().strip().splitlines()) == 2
    writer.close()
    writer.append(make_span("c", 2.0))       # ignored after close
    assert writer.written == 2
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["a", "b"]


def test_flight_recorder_ring_and_snapshots():
    recorder = FlightRecorder(capacity=4, trigger_prefixes=("fault.",),
                              snapshot_limit=2)
    for i in range(10):
        recorder.append(make_span(f"s{i}", float(i)))
    assert len(recorder) == 4                # ring holds only the tail
    assert [s.name for s in recorder] == ["s6", "s7", "s8", "s9"]
    recorder.append(make_span("fault.node_crash", 10.0, node="n0001"))
    assert recorder.triggers == 1
    (snap,) = recorder.snapshots
    assert snap["trigger"] == "fault.node_crash"
    # The snapshot preserved the spans leading up to the incident.
    assert [s.name for s in snap["spans"]][-1] == "fault.node_crash"
    assert len(snap["spans"]) == 4


# -- RED rollup ---------------------------------------------------------------

def request_root(tenant, start, duration=0.01, route="hpc"):
    return make_span(SpanKind.CAPACITY, start, duration=duration,
                     tenant=tenant, route=route)


def test_red_counts_once_per_request():
    rows = {row["tenant"]: row for row in red_rows([
        request_root("a", 0.0),
        request_root("a", 1.0, route="rejected"),
        request_root("b", 2.0),
        # Child spans of a governed request must not double-count.
        make_span(SpanKind.REQUEST, 2.0, parent_id=123, tenant="b"),
        make_span(SpanKind.INVOCATION, 2.0, tenant="b"),
    ])}
    assert rows["a"]["count"] == 2 and rows["a"]["errors"] == 1
    assert rows["b"]["count"] == 1 and rows["b"]["errors"] == 0


def test_red_counts_bare_client_requests():
    (row,) = red_rows([
        make_span(SpanKind.REQUEST, 0.0, client="solo", outcome="ok"),
        make_span(SpanKind.REQUEST, 1.0, client="solo", outcome="gave_up"),
    ])
    assert row["tenant"] == "solo"
    assert row["count"] == 2 and row["errors"] == 1


# -- SLO burn-rate episodes ---------------------------------------------------

def test_slo_breach_fires_once_per_episode():
    config = SloConfig(latency_threshold_s=0.1, error_budget=0.1,
                       window_s=10.0, buckets=10, burn_threshold=1.0)
    # Fast requests, then a burst of slow ones that blows the 10% budget,
    # and one more slow request while the burn persists.
    spans = [request_root("a", i * 0.1) for i in range(5)]
    spans += [request_root("a", 1.0 + i * 0.1, duration=0.5) for i in range(5)]
    spans.append(request_root("a", 3.0, duration=0.5))
    (episode,) = slo_episodes(spans, config)
    assert episode["tenant"] == "a"
    assert episode["t"] == 1.5               # the first slow request's end
    assert episode["burn_rate"] >= 1.0
    assert (episode["bad"], episode["total"]) == (1, 6)


def test_slo_rearms_after_rate_recovers():
    config = SloConfig(latency_threshold_s=0.1, error_budget=0.5,
                       window_s=1.0, buckets=2, burn_threshold=1.0)
    spans = [request_root("a", 0.0, duration=0.5)]
    # The window slides past the bad bucket; plenty of good requests.
    spans += [request_root("a", 2.0 + i * 0.1, duration=0.01) for i in range(20)]
    # A fresh burn episode starts a second row.
    spans += [request_root("a", 10.0 + i * 0.1, duration=0.5) for i in range(6)]
    episodes = slo_episodes(spans, config)
    assert [e["t"] for e in episodes] == [0.5, 10.5]


def test_slo_tenants_are_independent():
    config = SloConfig(latency_threshold_s=0.1, error_budget=0.1,
                       window_s=10.0, buckets=10)
    spans = []
    for i in range(5):
        spans.append(request_root("slow", i * 0.1, duration=0.5))
        spans.append(request_root("fast", i * 0.1, duration=0.01))
    episodes = slo_episodes(spans, config)
    assert {e["tenant"] for e in episodes} == {"slow"}


def test_slo_replays_each_run_separately():
    """A clock restart starts the next run with empty windows."""
    config = SloConfig(latency_threshold_s=0.1, error_budget=0.1,
                       window_s=10.0, buckets=10)
    burning = [request_root("a", i * 0.1, duration=0.5) for i in range(3)]
    healthy = [request_root("a", i * 0.1) for i in range(30)]
    episodes = slo_episodes(healthy + burning, config)
    # One stream mixing both runs would dilute the burn (3 bad of 33).
    assert [(e["run"], e["bad"], e["total"]) for e in episodes] == [(1, 1, 1)]
    assert slo_episodes(healthy, config) == []


def test_slo_config_validation():
    with pytest.raises(ValueError):
        SloConfig(latency_threshold_s=0.0)
    with pytest.raises(ValueError):
        SloConfig(error_budget=1.5)
    with pytest.raises(ValueError):
        SloConfig(buckets=0)
    with pytest.raises(ValueError):
        SloConfig(burn_threshold=0.0)


# -- the pipeline: bounded memory end to end ---------------------------------

def test_pipeline_memory_is_bounded_by_ring_capacity(tmp_path):
    """Acceptance: >= 100k spans in, peak retained <= ring size."""
    path = tmp_path / "stream.jsonl"
    pipeline = SpanPipeline(stream_path=path)
    ring = pipeline.recorder.capacity
    total = 100_000
    for i in range(total):
        pipeline.append(request_root(f"t{i % 4}", i * 1e-3))
    pipeline.close()
    assert pipeline.seen == total
    assert pipeline.peak_retained == ring < total
    assert len(pipeline) == ring             # iteration yields only the tail
    # Nothing was lost: the full stream is on disk.
    assert pipeline.writer.written == total
    assert sum(1 for _ in path.open()) == total


def test_pipeline_stream_holds_only_appended_spans(tmp_path):
    """Burn episodes are read from the file, never synthesized into it."""
    config = SloConfig(latency_threshold_s=0.01, error_budget=0.01,
                       window_s=10.0, buckets=10)
    path = tmp_path / "stream.jsonl"
    spans = [request_root("a", i * 0.1, duration=0.5) for i in range(10)]
    with SpanPipeline(stream_path=path) as pipeline:
        for span in spans:
            pipeline.append(span)
    loaded = load_spans(str(path))
    assert [s.span_id for s in loaded] == [s.span_id for s in spans]
    assert len(slo_episodes(loaded, config)) == 1


def test_pipeline_snapshots_on_fault_spans():
    pipeline = SpanPipeline()
    for i in range(100):
        pipeline.append(make_span("rfaas.invocation", float(i)))
    pipeline.append(make_span("fault.node_crash", 100.0))
    assert pipeline.recorder.triggers == 1
    assert len(pipeline.recorder.snapshots) == 1


def test_pipeline_duck_types_the_span_list(tmp_path):
    """Batch exporters must keep working on the in-memory tail."""
    from repro.telemetry import chrome_trace_events, write_spans_jsonl

    pipeline = SpanPipeline()
    ring = pipeline.recorder.capacity
    for i in range(ring + 50):
        pipeline.append(make_span("rfaas.invocation", float(i)))
    assert len(pipeline) == ring
    events = chrome_trace_events(list(pipeline))
    assert [e for e in events if e["ph"] == "X"]
    out = tmp_path / "tail.jsonl"
    assert write_spans_jsonl(pipeline, str(out)) == ring


def test_stream_config_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        JsonlStreamWriter("unused", flush_every=0)
