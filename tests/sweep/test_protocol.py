"""The experiment protocol: specs, plans, the registry, the result type."""

import dataclasses
import json

import pytest

from repro.experiments import (autoscale_sweep, chaos_sweep,
                               gpu_scaling_sweep, memdurability_sweep)
from repro.experiments.base import (
    ScenarioSpec,
    Sweep,
    SweepPlan,
    SweepResult,
    get_sweep,
    register_sweep,
    registered_sweeps,
)
from repro.sweep import run_sweep, sweep_names


def _echo(params, seed):
    return {"params": dict(params), "seed": seed}


def test_scenario_spec_executes_fn_with_params_and_seed():
    spec = ScenarioSpec(fn=_echo, params={"rate": 8.0}, seed=41, label="rate-8")
    assert spec.execute() == {"params": {"rate": 8.0}, "seed": 41}


def test_builtin_sweeps_are_registered():
    assert {"chaos", "autoscale", "gpu_scaling", "memdurability"} <= set(registered_sweeps())
    assert sweep_names() == list(registered_sweeps())


def test_get_sweep_unknown_name_lists_the_registry():
    with pytest.raises(KeyError) as excinfo:
        get_sweep("no-such-sweep")
    message = excinfo.value.args[0]
    assert "no-such-sweep" in message and "chaos" in message


def test_register_sweep_rejects_a_second_sweep_under_the_same_name():
    sweep = get_sweep("chaos")
    # Re-registering the identical object is idempotent...
    assert register_sweep(sweep) is sweep
    # ...but a different object under a taken name is a wiring bug.
    clone = Sweep(name="chaos", description="imposter", plan=sweep.plan,
                  point_type=sweep.point_type, columns=sweep.columns,
                  title=sweep.title, footer=sweep.footer)
    with pytest.raises(ValueError):
        register_sweep(clone)


@pytest.mark.parametrize("module", [chaos_sweep, autoscale_sweep,
                                    gpu_scaling_sweep, memdurability_sweep])
def test_default_plans_fix_order_seeds_and_labels(module):
    plan = module.plan_scenarios()
    assert isinstance(plan, SweepPlan)
    assert len(plan) == len(plan.scenarios) > 0
    labels = [spec.label for spec in plan.scenarios]
    assert len(labels) == len(set(labels))
    assert all(isinstance(spec.seed, int) for spec in plan.scenarios)
    # The plan is deterministic: same arguments, same specs.
    again = module.plan_scenarios()
    assert [(s.params, s.seed, s.label) for s in plan.scenarios] == \
           [(s.params, s.seed, s.label) for s in again.scenarios]


def test_plan_seed_fans_out_per_scenario():
    one = chaos_sweep.plan_scenarios(rates=(0.0, 8.0), window_s=4.0, seed=1)
    two = chaos_sweep.plan_scenarios(rates=(0.0, 8.0), window_s=4.0, seed=2)
    assert [s.seed for s in one.scenarios] != [s.seed for s in two.scenarios]


def test_run_sweep_returns_the_generic_sweep_result():
    result = run_sweep("chaos", rates=(0.0,), window_s=4.0)
    assert isinstance(result, SweepResult)
    assert isinstance(result.points[0], chaos_sweep.ChaosPoint)
    data = result.to_dict()
    assert data == {"window_s": 4.0, "seed": 0,
                    "points": [dataclasses.asdict(result.points[0])]}
    assert result.to_json() == json.dumps(data, sort_keys=True, indent=2)
    assert result.format_report().startswith("Chaos sweep")

