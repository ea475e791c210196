"""Observability overhead harness: streaming-traced vs telemetry-off.

Companion to ``bench_engine.py`` for the observability plane.  The
committed ``BENCH_obs.json`` records what end-to-end causal tracing with
the streaming pipeline *costs* relative to running dark, and
``tools/perfgate.py --bench obs`` fails the build when that overhead
regresses structurally (an accidentally quadratic aggregator, a span
pipeline stage that starts retaining memory).

Scenarios:

* ``chaos_off`` — the chaos sweep with telemetry disabled (the
  untraced fast path), wall time;
* ``chaos_streamed`` — the same sweep traced end-to-end through a
  :class:`~repro.telemetry.streaming.SpanPipeline` writing JSONL to a
  temporary file (ring buffer, RED rollup, SLO monitor all active),
  wall time;
* ``pipeline_append`` — the pipeline in isolation: pre-built spans
  pushed through every stage, reported as spans/sec
  (``events_per_s``, so the gate treats it as a throughput floor).
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.sweep import run_sweep
from repro.telemetry import Span, SpanPipeline, StreamConfig, TelemetryCollector

pytestmark = pytest.mark.perf

DEFAULT_REPEATS = 3

#: Spans pushed through the isolated pipeline scenario.
PIPELINE_SPANS = 200_000


def run_chaos_off() -> None:
    run_sweep("chaos", rates=(0.0, 8.0), window_s=10.0, seed=0)


def run_chaos_streamed() -> None:
    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="bench_obs_")
    os.close(fd)
    try:
        pipeline = SpanPipeline(stream_path=path)
        with TelemetryCollector(pipeline=pipeline):
            run_sweep("chaos", rates=(0.0, 8.0), window_s=10.0, seed=0)
        pipeline.close()
    finally:
        os.unlink(path)


def _make_spans(n: int) -> list[Span]:
    spans = []
    for i in range(n):
        span = Span(
            "rfaas.invocation" if i % 7 else "capacity.invocation",
            float(i) * 1e-3,
            track=f"n{i % 16:04d}/executor-{i % 4}",
            parent_id=i - 1 if i % 7 else None,
            attrs={"trace_id": i // 7, "tenant": f"tenant-{i % 8}"},
        )
        span.end = span.start + 1e-3 * (1 + i % 5)
        spans.append(span)
    return spans


def measure_pipeline_append(repeats: int = DEFAULT_REPEATS) -> dict:
    spans = _make_spans(PIPELINE_SPANS)
    best = None
    for _ in range(max(1, repeats)):
        pipeline = SpanPipeline(StreamConfig(ring_capacity=4096))
        start = time.perf_counter()
        append = pipeline.append
        for span in spans:
            append(span)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return {
        "metric": "events_per_s",
        "value": PIPELINE_SPANS / best,
        "events": PIPELINE_SPANS,
        "wall_s": best,
    }


def _measure_wall(fn, repeats: int) -> dict:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return {"metric": "wall_s", "value": best, "wall_s": best}


#: name -> callable(repeats) -> {"metric", "value", ...}; keys match
#: BENCH_obs.json's "scenarios" table.
SCENARIOS = {
    "chaos_off": lambda repeats=DEFAULT_REPEATS: _measure_wall(run_chaos_off, repeats),
    "chaos_streamed": lambda repeats=DEFAULT_REPEATS: _measure_wall(run_chaos_streamed, repeats),
    "pipeline_append": measure_pipeline_append,
}


def measure_all(repeats: int = DEFAULT_REPEATS) -> dict[str, dict]:
    return {name: fn(repeats) for name, fn in SCENARIOS.items()}


# -- pytest entry points (opt-in via -m perf / REPRO_PERF=1) ----------------

def test_chaos_off_wall(report):
    result = SCENARIOS["chaos_off"]()
    report(f"obs chaos_off: {result['value']:.4f}s wall")
    assert result["value"] > 0


def test_chaos_streamed_wall(report):
    result = SCENARIOS["chaos_streamed"]()
    report(f"obs chaos_streamed: {result['value']:.4f}s wall")
    assert result["value"] > 0


def test_pipeline_throughput(report):
    result = measure_pipeline_append()
    report(
        f"obs pipeline_append: {result['events']} spans in "
        f"{result['wall_s']:.4f}s = {result['value']:,.0f} spans/s"
    )
    assert result["value"] > 0
