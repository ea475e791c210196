"""Span and trace identity come from the collector that records them.

No id is drawn from module state, so a traced run's bytes are a pure
function of ``(params, seed)`` whatever ran earlier in the interpreter:
a ``--trace`` export holds the per-scenario stream's spans, one collector's
scopes never reuse a span id, and a stream recorded after another
traced run still matches the chaos stream pin of
``tests/integration/test_sweep_goldens.py``.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.sweep import run_sweep
from repro.telemetry import TelemetryCollector, Tracer

from ..integration.test_sweep_goldens import GOLDENS


def _quiet(_text):
    pass


def test_whole_run_export_equals_the_stream(tmp_path):
    """The --trace events are the stream's spans, ids included."""
    plan = ["sweep", "chaos", "--set", "rates=(4, 8)", "--set", "window_s=5"]
    trace, stream = tmp_path / "trace.json", tmp_path / "stream.jsonl"
    assert main([*plan, "--trace", str(trace), "--stream-spans", str(stream)],
                out=_quiet) == 0
    events = [e for e in json.loads(trace.read_text())["traceEvents"]
              if e["ph"] != "M"]
    spans = [json.loads(line) for line in stream.read_text().splitlines()]
    assert [(e["name"], e["args"]["span_id"]) for e in events] == \
        [(s["name"], s["span_id"]) for s in spans]
    assert spans[0]["span_id"] == 1


def test_span_ids_are_unique_across_one_collectors_scopes():
    with TelemetryCollector() as collector:
        run_sweep("fig07", sizes=(1, 1024), samples=4)
    sims = [t for t in collector.scopes if t.scope.startswith("sim")]
    assert len(sims) >= 3              # each fig07 size builds three
    ids = [span.span_id for span in collector.spans]
    assert len(ids) == len(set(ids))
    assert min(ids) == 1


def test_standalone_tracers_number_their_own_spans():
    first, second = Tracer(clock=lambda: 0.0), Tracer(clock=lambda: 0.0)
    with first.span("a"):
        pass
    with second.span("b"):
        pass
    assert [s.span_id for s in first.spans] == [1]
    assert [s.span_id for s in second.spans] == [1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_stream_digest_is_pinned_after_another_traced_run(tmp_path, jobs):
    # Record something first, so any id state that outlived its
    # collector would shift the stream below.
    with TelemetryCollector() as earlier:
        run_sweep("fig07", sizes=(1,), samples=2)
    assert earlier.spans
    kwargs, json_sha, _, stream_sha = GOLDENS["chaos"]
    stream = tmp_path / "chaos.jsonl"
    result = run_sweep("chaos", jobs=jobs, stream_spans=str(stream), **kwargs)
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == json_sha
    assert hashlib.sha256(stream.read_bytes()).hexdigest() == stream_sha
