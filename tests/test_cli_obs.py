"""The ``repro obs`` subcommand family and ``--stream-spans``."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.telemetry import SpanKind, load_spans, slo_episodes

from .telemetry.test_exporters import exposition_blocks


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


@pytest.fixture(scope="module")
def streamed_autoscale(tmp_path_factory):
    """The CI smoke plan: four capacity scenarios, rejected requests."""
    path = tmp_path_factory.mktemp("obs") / "autoscale.jsonl"
    lines, out = collect()
    code = main(["sweep", "autoscale", "--set", "loads=(1, 16)",
                 "--set", "window_s=6", "--stream-spans", str(path)], out=out)
    assert code == 0
    return path, "\n".join(lines)


@pytest.fixture(scope="module")
def exported_chaos(tmp_path_factory):
    """Two chaos scenarios: the stream alone, then with every export."""
    root = tmp_path_factory.mktemp("exports")
    plan = ["sweep", "chaos", "--set", "rates=(4, 8)", "--set", "window_s=6"]
    assert main([*plan, "--stream-spans", str(root / "alone.jsonl")],
                out=lambda s: None) == 0
    assert main([*plan, "--stream-spans", str(root / "stream.jsonl"),
                 "--trace", str(root / "trace.json"),
                 "--metrics-out", str(root / "metrics.txt")],
                out=lambda s: None) == 0
    return root


def test_stream_bytes_do_not_depend_on_other_exports(exported_chaos):
    assert (exported_chaos / "stream.jsonl").read_bytes() == \
        (exported_chaos / "alone.jsonl").read_bytes()


def test_trace_holds_every_streamed_span(exported_chaos):
    events = json.loads((exported_chaos / "trace.json").read_text())["traceEvents"]
    assert len(events) == 7068
    spans = (exported_chaos / "stream.jsonl").read_text().splitlines()
    assert len([e for e in events if e["ph"] != "M"]) == len(spans)


def test_metrics_export_groups_each_family(exported_chaos):
    text = (exported_chaos / "metrics.txt").read_text()
    blocks = exposition_blocks(text)
    assert len(blocks) == 21
    assert any('scope="sim1"' in line
               for line in blocks["repro_executor_invocations_total"])


def test_obs_critical_path_keeps_each_scenarios_traces_apart(exported_chaos):
    path = exported_chaos / "stream.jsonl"
    lines, out = collect()
    assert main(["obs", "critical-path", str(path), "--all"], out=out) == 0
    text = "\n".join(lines)
    assert text.startswith("1174 trace(s)")
    assert text.splitlines()[1].split()[:3] == ["run", "|", "trace"]
    lines, out = collect()
    assert main(["obs", "critical-path", str(path), "--trace-id", "1:5"],
                out=out) == 0
    assert "critical path of trace 1:5" in "\n".join(lines)


def test_obs_critical_path_rejects_a_malformed_trace_ref(exported_chaos, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obs", "critical-path", str(exported_chaos / "stream.jsonl"),
              "--trace-id", "one:5"], out=lambda s: None)
    assert exc.value.code == 2
    assert "expected ID or RUN:ID" in capsys.readouterr().err


def test_stream_spans_reports_pipeline_summary(streamed_chaos):
    path, text = streamed_chaos
    assert "[stream:" in text
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


@pytest.mark.parametrize("flag,value", [
    ("--budget", "1.5"), ("--window", "0"), ("--threshold", "0"),
])
def test_obs_slo_rejects_bad_config(streamed_chaos, capsys, flag, value):
    path, _ = streamed_chaos
    with pytest.raises(SystemExit) as exc:
        main(["obs", "slo", str(path), flag, value], out=lambda s: None)
    assert exc.value.code == 2
    assert "repro: error: obs slo:" in capsys.readouterr().err


def test_obs_red_rollup(streamed_chaos):
    path, _ = streamed_chaos
    lines, out = collect()
    assert main(["obs", "red", str(path)], out=out) == 0
    text = "\n".join(lines)
    assert "per-tenant RED rollup" in text
    assert "p95_s" in text


@pytest.mark.parametrize("stream", ["streamed_chaos", "streamed_autoscale"])
def test_obs_red_is_exact(request, stream):
    """Counts and p50/p95/p99 equal numpy over the request-root spans."""
    path, _ = request.getfixturevalue(stream)
    roots = {}
    for span in load_spans(str(path)):
        if span.name == SpanKind.CAPACITY or (
                span.name == SpanKind.REQUEST and span.parent_id is None):
            tenant = span.attrs.get("tenant") or span.attrs["client"]
            roots.setdefault(tenant, []).append(span)
    expected = {}
    for tenant, spans in roots.items():
        durations = [s.duration for s in spans]
        errors = sum(s.attrs.get("route") == "rejected"
                     or s.attrs.get("status", "ok") != "ok" for s in spans)
        expected[tenant] = [str(len(spans)), str(errors)] + [
            f"{np.percentile(durations, p):.6f}" for p in (50, 95, 99)]
    lines, out = collect()
    assert main(["obs", "red", str(path)], out=out) == 0
    table = "\n".join(lines).splitlines()[3:]
    printed = {cells[0]: [cells[1], cells[2], *cells[4:]]
               for cells in ([c.strip() for c in row.split("|")] for row in table)}
    assert printed == expected


def test_obs_tail(streamed_chaos):
    path, _ = streamed_chaos
    lines, out = collect()
    assert main(["obs", "tail", str(path), "-n", "5"], out=out) == 0
    text = "\n".join(lines)
    assert "last 5 of" in text


def test_obs_tail_zero_prints_no_rows(streamed_chaos):
    path, _ = streamed_chaos
    lines, out = collect()
    assert main(["obs", "tail", str(path), "-n", "0"], out=out) == 0
    text = "\n".join(lines)
    assert "last 0 of" in text
    assert len(text.splitlines()) == 3       # title, header, rule


def test_obs_tail_rejects_negative_count(streamed_chaos, capsys):
    path, _ = streamed_chaos
    with pytest.raises(SystemExit) as exc:
        main(["obs", "tail", str(path), "-n", "-3"], out=lambda s: None)
    assert exc.value.code == 2
    assert "--count must be >= 0" in capsys.readouterr().err


#: Burn episodes of the CI smoke plan (``streamed_autoscale``) at seed 0
#: as (tenant, t, burn_rate, bad, total), in stream order: exactly the
#: ``slo.breach`` spans the live SLO monitor used to write into the stream.
SMOKE_AUTOSCALE_EPISODES = [
    ("tenant-06", 1.96875, 8.3333, 1, 12),
    ("tenant-07", 1.984375, 8.3333, 1, 12),
    ("tenant-08", 2.15625, 8.3333, 1, 12),
    ("tenant-09", 2.171875, 8.3333, 1, 12),
    ("tenant-00", 2.1875, 7.6923, 1, 13),
    ("tenant-01", 2.203125, 7.6923, 1, 13),
    ("tenant-02", 2.21875, 7.6923, 1, 13),
    ("tenant-03", 2.234375, 7.6923, 1, 13),
    ("tenant-04", 2.25, 7.6923, 1, 13),
    ("tenant-05", 2.265625, 7.6923, 1, 13),
] * 2


def test_obs_slo_replays_each_scenario_of_a_sweep_stream(streamed_autoscale):
    """Per-run replay reproduces the burn episodes of every scenario.

    Replaying the merged stream as one run mixes the scenarios and finds
    10 diluted episodes instead.
    """
    path, _ = streamed_autoscale
    episodes = slo_episodes(load_spans(str(path)))
    assert [(e["tenant"], e["t"], e["burn_rate"], e["bad"], e["total"])
            for e in episodes] == SMOKE_AUTOSCALE_EPISODES
    lines, out = collect()
    assert main(["obs", "slo", str(path)], out=out) == 0
    assert "20 slo.breach episode(s)" in "\n".join(lines)


def test_obs_rejects_missing_file():
    with pytest.raises(SystemExit):
        main(["obs", "red", "/nonexistent/spans.jsonl"], out=lambda s: None)
