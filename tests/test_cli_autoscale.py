"""``repro sweep autoscale``: loads, plan files, the crash switch."""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan


AUTOSCALE = ["sweep", "autoscale", "--set", "loads=(1,)", "--set", "window_s=5"]


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_autoscale_sweep_runs():
    lines, out = collect()
    assert main([*AUTOSCALE], out=out) == 0
    text = "\n".join(lines)
    assert "Autoscale sweep" in text
    assert "reactive" in text and "predictive" in text
    assert "autoscale completed in" in text


def test_autoscale_writes_json(tmp_path):
    out_path = tmp_path / "sweep.json"
    lines, out = collect()
    code = main([*AUTOSCALE, "--json", str(out_path)], out=out)
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["window_s"] == 5.0
    assert {p["mode"] for p in blob["points"]} == {"reactive", "predictive"}
    assert str(out_path) in "\n".join(lines)


def test_autoscale_no_crash_flag():
    lines, out = collect()
    assert main([*AUTOSCALE, "--set", "crash=False"], out=out) == 0


def test_autoscale_replays_a_plan_file(tmp_path):
    plan_path = tmp_path / "plan.json"
    FaultPlan(name="file-plan").node_crash(
        at_s=1.0, node="n0001", duration_s=1.0, immediate=True,
    ).save(str(plan_path))
    lines, out = collect()
    assert main([*AUTOSCALE, "--plan", str(plan_path)], out=out) == 0


def test_autoscale_plan_and_no_crash_are_mutually_exclusive(tmp_path):
    plan_path = tmp_path / "plan.json"
    FaultPlan().node_crash(at_s=1.0, node="n0001").save(str(plan_path))
    with pytest.raises(SystemExit):
        main(["sweep", "autoscale", "--plan", str(plan_path),
              "--set", "crash=False"], out=lambda s: None)


def test_autoscale_rejects_malformed_loads():
    with pytest.raises(SystemExit):
        main(["sweep", "autoscale", "--set", "loads=high,higher"],
             out=lambda s: None)


def test_autoscale_listed_as_experiment():
    lines, out = collect()
    assert main(["list"], out=out) == 0
    assert any("autoscale" in line for line in lines)


def test_autoscale_metrics_export(tmp_path):
    metrics = tmp_path / "metrics.txt"
    lines, out = collect()
    code = main([*AUTOSCALE, "--metrics-out", str(metrics)], out=out)
    assert code == 0
    text = metrics.read_text()
    assert "repro_capacity_admitted_total" in text
    assert "repro_capacity_prewarms_total" in text
