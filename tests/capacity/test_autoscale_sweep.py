"""autoscale_sweep experiment: shape, conservation, the predictive win."""

import json

import pytest

from repro.experiments import autoscale_sweep
from repro.faults import FaultPlan
from repro.sweep import run_sweep


@pytest.fixture(scope="module")
def default_sweep():
    """One full default run (crash storm, 1x/4x/16x) shared by the asserts."""
    return run_sweep("autoscale")


def pairs_by_load(result):
    by_load = {}
    for point in result.points:
        by_load.setdefault(point.load, {})[point.mode] = point
    return by_load


def test_every_scenario_conserves_invocations(default_sweep):
    for point in default_sweep.points:
        assert (point.completed + point.bursts + point.rejected
                == point.invocations)
        assert point.invocations > 0


def test_predictive_beats_reactive_at_high_load(default_sweep):
    """The ISSUE acceptance bar: warm-start rate, >= 4x load."""
    for load, modes in pairs_by_load(default_sweep).items():
        if load >= 4.0:
            assert (modes["predictive"].warm_start_rate
                    > modes["reactive"].warm_start_rate), f"load {load}"
    # And the mechanism is visible: predictive prewarms, reactive never.
    for point in default_sweep.points:
        if point.mode == "reactive":
            assert point.prewarms == 0
        else:
            assert point.prewarms > 0


def test_pressure_grows_with_load(default_sweep):
    by_load = pairs_by_load(default_sweep)
    loads = sorted(by_load)
    reactive = [by_load[load]["reactive"] for load in loads]
    assert reactive[-1].burst_fraction > reactive[0].burst_fraction
    assert reactive[-1].rejected > 0            # backpressure engages at 16x
    assert reactive[-1].burst_cost > 0.0        # ... and bursts were billed
    # The crash storm fired in every scenario.
    assert all(p.faults_injected > 0 for p in default_sweep.points)


def test_json_round_trip(default_sweep):
    blob = json.loads(default_sweep.to_json())
    assert blob["window_s"] == default_sweep.meta["window_s"]
    assert len(blob["points"]) == len(default_sweep.points)
    # sort_keys makes the dump canonical for byte-comparison.
    assert default_sweep.to_json() == json.dumps(blob, sort_keys=True, indent=2)


def test_report_renders(default_sweep):
    report = default_sweep.format_report()
    assert "predictive" in report and "reactive" in report
    assert "warm" in report and "burst cost" in report


def test_crash_false_disables_the_storm():
    result = run_sweep("autoscale", loads=(1.0,), window_s=4.0, crash=False)
    assert all(p.faults_injected == 0 for p in result.points)


def test_custom_plan_overrides_default():
    plan = FaultPlan(name="one-crash").node_crash(
        at_s=1.0, node="n0001", duration_s=1.0, immediate=True)
    result = run_sweep("autoscale", loads=(1.0,), window_s=4.0, plan=plan)
    assert all(p.faults_injected >= 1 for p in result.points)


def test_validation():
    with pytest.raises(ValueError):
        autoscale_sweep.plan_scenarios(window_s=0.0)
    with pytest.raises(ValueError):
        autoscale_sweep.plan_scenarios(loads=(0.0,), window_s=1.0)
    with pytest.raises(ValueError):
        autoscale_sweep.plan_scenarios(tenants=0)
    with pytest.raises(ValueError):
        autoscale_sweep.plan_scenarios(plan=FaultPlan(name="p"), crash=False)
