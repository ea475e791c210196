"""``repro sweep chaos``: rate sweeps, plan files, span export."""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_chaos_rate_sweep_runs():
    lines, out = collect()
    assert main(["sweep", "chaos", "--set", "rates=(0, 8)", "--set", "window_s=5"],
                out=out) == 0
    text = "\n".join(lines)
    assert "Chaos sweep" in text
    assert "rate-0" in text and "rate-8" in text
    assert "chaos completed in" in text


def test_chaos_replays_a_plan_file(tmp_path):
    plan_path = tmp_path / "plan.json"
    FaultPlan(name="file-plan").lease_storm(at_s=1.0, count=2).save(str(plan_path))
    lines, out = collect()
    assert main(["sweep", "chaos", "--plan", str(plan_path), "--set", "window_s=5"],
                out=out) == 0
    assert "file-plan" in "\n".join(lines)


def test_chaos_rates_and_plan_are_mutually_exclusive(tmp_path):
    plan_path = tmp_path / "plan.json"
    FaultPlan().lease_storm(at_s=1.0).save(str(plan_path))
    with pytest.raises(SystemExit):
        main(["sweep", "chaos", "--plan", str(plan_path), "--set", "rates=(8,)"],
             out=lambda s: None)


def test_chaos_rejects_unreadable_plan(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit):
        main(["sweep", "chaos", "--plan", str(bad)], out=lambda s: None)
    with pytest.raises(SystemExit):
        main(["sweep", "chaos", "--plan", str(tmp_path / "missing.json")],
             out=lambda s: None)


def test_chaos_rejects_malformed_rates():
    with pytest.raises(SystemExit):
        main(["sweep", "chaos", "--set", "rates=fast,faster"], out=lambda s: None)


def test_chaos_span_export(tmp_path):
    spans = tmp_path / "spans.jsonl"
    lines, out = collect()
    code = main(["sweep", "chaos", "--set", "rates=(8,)", "--set", "window_s=5",
                 "--spans", str(spans)], out=out)
    assert code == 0
    dumped = spans.read_text().strip().splitlines()
    assert len(dumped) > 0
    record = json.loads(dumped[0])
    assert "name" in record
    # The fault-injection spans made it into the export.
    assert any('"fault.' in line for line in dumped)
