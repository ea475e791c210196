"""The ``repro obs`` subcommand family and ``--stream-spans``."""

import json

import pytest

from repro.cli import main


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


@pytest.fixture(scope="module")
def streamed_chaos(tmp_path_factory):
    """One traced chaos run shared by every obs test (they only read)."""
    path = tmp_path_factory.mktemp("obs") / "stream.jsonl"
    lines, out = collect()
    code = main(["sweep", "chaos", "--set", "rates=(8,)", "--set", "window_s=6",
                 "--stream-spans", str(path)], out=out)
    assert code == 0
    return path, "\n".join(lines)


def test_stream_spans_reports_pipeline_summary(streamed_chaos):
    path, text = streamed_chaos
    assert "[stream:" in text
    assert "peak retained" in text
    assert str(path) in text
    # The file is valid JSONL, one span per line.
    first = json.loads(path.read_text().splitlines()[0])
    assert "name" in first and "span_id" in first


def test_obs_critical_path_default_trace(streamed_chaos):
    path, _ = streamed_chaos
    lines, out = collect()
    assert main(["obs", "critical-path", str(path)], out=out) == 0
    text = "\n".join(lines)
    assert "critical path of trace" in text
    # The chain reaches from the client request into the executor.
    assert "rfaas.request" in text
    assert "rfaas.attempt" in text


def test_obs_critical_path_lists_all_traces(streamed_chaos):
    path, _ = streamed_chaos
    lines, out = collect()
    assert main(["obs", "critical-path", str(path), "--all"], out=out) == 0
    text = "\n".join(lines)
    assert "trace(s)" in text
    assert "rfaas.request" in text


def test_obs_critical_path_explicit_trace_id(streamed_chaos):
    path, _ = streamed_chaos
    record = next(
        json.loads(line) for line in path.read_text().splitlines()
        if "trace_id" in json.loads(line)["attrs"]
    )
    trace_id = record["attrs"]["trace_id"]
    lines, out = collect()
    code = main(["obs", "critical-path", str(path), "--trace-id", str(trace_id)],
                out=out)
    assert code == 0
    assert f"critical path of trace {trace_id}" in "\n".join(lines)


def test_obs_critical_path_rejects_unknown_trace(streamed_chaos):
    path, _ = streamed_chaos
    with pytest.raises(SystemExit):
        main(["obs", "critical-path", str(path), "--trace-id", "999999999"],
             out=lambda s: None)


def test_obs_critical_path_on_untraced_file_fails_cleanly(tmp_path):
    path = tmp_path / "untraced.jsonl"
    span = {"span_id": 1, "parent_id": None, "name": "x", "track": "main",
            "start": 0.0, "end": 1.0, "attrs": {}}
    path.write_text(json.dumps(span) + "\n")
    lines, out = collect()
    assert main(["obs", "critical-path", str(path)], out=out) == 1
    assert "no spans with a trace_id" in "\n".join(lines)


def test_obs_slo_replay(streamed_chaos):
    path, _ = streamed_chaos
    # A sub-millisecond threshold marks everything bad: breaches fire.
    lines, out = collect()
    assert main(["obs", "slo", str(path), "--threshold", "0.0001"], out=out) == 0
    assert "slo.breach episode(s)" in "\n".join(lines)
    # A generous threshold (and budget) stays quiet.
    lines, out = collect()
    assert main(["obs", "slo", str(path), "--threshold", "1000",
                 "--budget", "0.99"], out=out) == 0
    assert "no SLO breaches" in "\n".join(lines)


def test_obs_red_rollup(streamed_chaos):
    path, _ = streamed_chaos
    lines, out = collect()
    assert main(["obs", "red", str(path)], out=out) == 0
    text = "\n".join(lines)
    assert "per-tenant RED rollup" in text
    assert "p95_s" in text


def test_obs_tail(streamed_chaos):
    path, _ = streamed_chaos
    lines, out = collect()
    assert main(["obs", "tail", str(path), "-n", "5"], out=out) == 0
    text = "\n".join(lines)
    assert "last 5 of" in text


def test_obs_rejects_missing_file():
    with pytest.raises(SystemExit):
        main(["obs", "red", "/nonexistent/spans.jsonl"], out=lambda s: None)
