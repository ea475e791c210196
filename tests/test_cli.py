"""CLI runner tests: figures run as sweeps, and ``run all`` runs them all."""

import pytest

from repro.cli import _figure_names, _parse_overrides, main
from repro.experiments.base import SWEEPS


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_list_shows_every_experiment():
    lines, out = collect()
    assert main(["list"], out=out) == 0
    text = "\n".join(lines)
    for name in SWEEPS:
        assert name in text


def test_run_all_runs_the_paper_figures_in_paper_order():
    assert _figure_names() == ["fig01", "fig07", "fig08", "tab03", "fig09",
                               "fig10", "fig11", "fig12", "fig13"]


def test_run_single_experiment_with_override():
    lines, out = collect()
    code = main(["sweep", "fig08"], out=out)
    assert code == 0
    assert any("Fig. 8" in line for line in lines)
    assert any("completed in" in line for line in lines)


def test_run_with_set_override():
    lines, out = collect()
    main(["sweep", "tab03", "--set", "counts=(1, 4)"], out=out)
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
        main(["sweep", "fig99"], out=lambda s: None)
    with pytest.raises(SystemExit):
        main(["run", "fig07"], out=lambda s: None)  # 'run' only takes 'all'


def test_all_rejects_overrides():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "all", "--set", "x=1"], out=lambda s: None)
    assert excinfo.value.code == 2


def test_unknown_override_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "fig07", "--set", "bogus=1"], out=lambda s: None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "samples" in err


def test_run_with_trace_and_metrics_export(tmp_path):
    import json

    trace = tmp_path / "trace.json"
    stream = tmp_path / "spans.jsonl"
    metrics = tmp_path / "metrics.txt"
    lines, out = collect()
    code = main(
        ["sweep", "fig07", "--set", "samples=5", "--set", "sizes=(1, 1024)",
         "--trace", str(trace), "--stream-spans", str(stream),
         "--metrics-out", str(metrics)],
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
    assert stream.read_text().strip()
    assert "repro_executor_invocations_total" in metrics.read_text()
    assert any("[trace:" in line for line in lines)


def test_obs_kinds_subcommand(tmp_path):
    trace = tmp_path / "trace.json"
    quiet = lambda s: None
    main(["sweep", "fig07", "--set", "samples=5", "--set", "sizes=(1,)",
          "--trace", str(trace)], out=quiet)
    lines, out = collect()
    code = main(["obs", "kinds", str(trace)], out=out)
    assert code == 0
    text = "\n".join(lines)
    assert "Telemetry summary" in text
    assert "rfaas.invocation" in text
    assert "p95 (us)" in text


def test_run_without_telemetry_flags_records_nothing(tmp_path):
    from repro.telemetry.provider import _ACTIVE

    lines, out = collect()
    main(["sweep", "fig10"], out=out)
    assert _ACTIVE == []  # no collector leaks into later runs


def test_fig13_refuses_a_pool_worker(capsys):
    lines, out = collect()
    code = main(["sweep", "fig13", "--jobs", "2", "--set", "options=2000",
                 "--set", "particles=(500, 1000)", "--set", "iterations=1"],
                out=out)
    assert code == 1
    assert "fig13 times live worker processes; run it with --jobs 1" in "\n".join(lines)
