"""The span stream: the streaming sink, and the exact offline RED/SLO
analyses over the file it writes.

The no-retention assertion is the stream's acceptance criterion: a
collector whose sink is a :class:`JsonlStreamWriter` keeps no span in
memory however long the run, and the file holds every span.
"""

import gc
import itertools
import json

import numpy as np
import pytest

from repro.sweep import run_sweep
from repro.telemetry import (
    JsonlStreamWriter,
    SloConfig,
    Span,
    SpanKind,
    TelemetryCollector,
    load_spans,
    red_rows,
    slo_episodes,
)
from repro.telemetry.summary import duration_stats
from repro.telemetry.streaming import FLUSH_EVERY


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
    writer = JsonlStreamWriter(path)
    names = [f"s{i}" for i in range(FLUSH_EVERY)]
    for i, name in enumerate(names):
        writer.append(make_span(name, float(i)))   # the last hits the flush threshold
    assert len(path.read_text().strip().splitlines()) == FLUSH_EVERY
    writer.close()
    writer.append(make_span("late", 0.0))          # ignored after close
    assert writer.written == FLUSH_EVERY
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == names


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
                       window_s=10.0)
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
                       window_s=1.0)
    spans = [request_root("a", 0.0, duration=0.5)]
    # The window slides past the bad bucket; plenty of good requests.
    spans += [request_root("a", 2.0 + i * 0.1, duration=0.01) for i in range(20)]
    # A fresh burn episode starts a second row.
    spans += [request_root("a", 10.0 + i * 0.1, duration=0.5) for i in range(6)]
    episodes = slo_episodes(spans, config)
    assert [e["t"] for e in episodes] == [0.5, 10.5]


def test_slo_tenants_are_independent():
    config = SloConfig(latency_threshold_s=0.1, error_budget=0.1,
                       window_s=10.0)
    spans = []
    for i in range(5):
        spans.append(request_root("slow", i * 0.1, duration=0.5))
        spans.append(request_root("fast", i * 0.1, duration=0.01))
    episodes = slo_episodes(spans, config)
    assert {e["tenant"] for e in episodes} == {"slow"}


def test_slo_replays_each_run_separately():
    """A clock restart starts the next run with empty windows."""
    config = SloConfig(latency_threshold_s=0.1, error_budget=0.1,
                       window_s=10.0)
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
        SloConfig(window_s=0.0)


# -- the streaming collector: nothing retained --------------------------------

def test_streaming_collector_keeps_no_span_in_memory(tmp_path):
    """Every span goes to the file; none stays reachable in the process."""
    def live_spans():
        gc.collect()
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, Span)}

    before = live_spans()
    path = tmp_path / "stream.jsonl"
    with JsonlStreamWriter(path) as writer, \
            TelemetryCollector(sink=writer) as collector:
        run_sweep("chaos", rates=(8.0,), window_s=2.0)
    assert collector.spans is writer          # no list behind the sink
    assert writer.written > 1000
    assert len(path.read_text().splitlines()) == writer.written
    assert live_spans() <= before


def test_pipeline_stream_holds_only_appended_spans(tmp_path):
    """Burn episodes are read from the file, never synthesized into it."""
    config = SloConfig(latency_threshold_s=0.01, error_budget=0.01,
                       window_s=10.0)
    path = tmp_path / "stream.jsonl"
    spans = [request_root("a", i * 0.1, duration=0.5) for i in range(10)]
    with JsonlStreamWriter(path) as writer:
        for span in spans:
            writer.append(span)
    loaded = load_spans(str(path))
    assert [s.span_id for s in loaded] == [s.span_id for s in spans]
    assert len(slo_episodes(loaded, config)) == 1

