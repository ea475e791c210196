"""CLI experiment runner tests."""

import pytest

from repro.cli import EXPERIMENTS, _parse_overrides, main


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_list_shows_every_experiment():
    lines, out = collect()
    assert main(["list"], out=out) == 0
    text = "\n".join(lines)
    for name in EXPERIMENTS:
        assert name in text


def test_run_single_experiment_with_override():
    lines, out = collect()
    code = main(["run", "fig08"], out=out)
    assert code == 0
    assert any("Fig. 8" in line for line in lines)
    assert any("completed in" in line for line in lines)


def test_run_with_set_override():
    lines, out = collect()
    main(["run", "tab03", "--set", "counts=(1, 4)"], out=out)
    text = "\n".join(lines)
    assert "Table III" in text
    assert "| 1 " in text and "| 4 " in text


def test_parse_overrides():
    assert _parse_overrides(["a=1", "b=2.5", "c=(1,2)", "d=text"]) == {
        "a": 1, "b": 2.5, "c": (1, 2), "d": "text",
    }
    with pytest.raises(SystemExit):
        _parse_overrides(["missing-equals"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"], out=lambda s: None)


def test_all_rejects_overrides():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "all", "--set", "x=1"], out=lambda s: None)
    assert excinfo.value.code == 2


def test_unknown_override_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig07", "--set", "bogus=1"], out=lambda s: None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "samples" in err


def test_run_with_trace_and_metrics_export(tmp_path):
    import json

    trace = tmp_path / "trace.json"
    spans = tmp_path / "spans.jsonl"
    metrics = tmp_path / "metrics.txt"
    lines, out = collect()
    code = main(
        ["run", "fig07", "--set", "samples=5", "--set", "sizes=(1, 1024)",
         "--trace", str(trace), "--spans", str(spans), "--metrics-out", str(metrics)],
        out=out,
    )
    assert code == 0
    payload = json.loads(trace.read_text())
    events = payload["traceEvents"]
    assert events
    names = {e["name"] for e in events}
    assert "rfaas.invocation" in names and "rfaas.dispatch" in names
    # Nested spans: children carry parent_id links into invocation spans.
    inv_ids = {e["args"]["span_id"] for e in events if e.get("name") == "rfaas.invocation"}
    assert any(e.get("args", {}).get("parent_id") in inv_ids for e in events)
    # Hot, warm, and cold paths all appear in the trace.
    modes = {e["args"].get("mode") for e in events if e.get("name") == "rfaas.invocation"}
    assert {"hot", "warm"} <= modes
    kinds = {e["args"].get("kind") for e in events if e.get("name") == "rfaas.sandbox"}
    assert "cold" in kinds
    assert spans.read_text().strip()
    assert "repro_executor_invocations_total" in metrics.read_text()
    assert any("[trace:" in line for line in lines)


def test_telemetry_summary_subcommand(tmp_path):
    trace = tmp_path / "trace.json"
    quiet = lambda s: None
    main(["run", "fig07", "--set", "samples=5", "--set", "sizes=(1,)",
          "--trace", str(trace)], out=quiet)
    lines, out = collect()
    code = main(["telemetry", "summary", str(trace)], out=out)
    assert code == 0
    text = "\n".join(lines)
    assert "Telemetry summary" in text
    assert "rfaas.invocation" in text
    assert "p95 (us)" in text


def test_run_without_telemetry_flags_records_nothing(tmp_path):
    from repro.telemetry.provider import _ACTIVE

    lines, out = collect()
    main(["run", "fig10"], out=out)
    assert _ACTIVE == []  # no collector leaks into later runs
