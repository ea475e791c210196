"""Loadstorm sweep: conservation, shared-seed planning, shard crashes."""

import pytest

from repro.experiments import loadstorm_sweep
from repro.experiments.base import SweepResult
from repro.experiments.loadstorm_sweep import plan_scenarios, scenario
from repro.sweep import run_sweep

#: Small enough for the default suite, large enough to exercise batching.
SMALL = dict(window_s=2.0, rate_per_s=600.0, population=50_000,
             nodes=4, cores_per_node=8)


def _point(shards=2, **overrides):
    (spec,) = plan_scenarios(shards=(shards,), seed=0, **SMALL).scenarios
    return scenario({**spec.params, **overrides}, seed=0)


def test_every_admitted_request_is_accounted_for():
    point = _point()
    assert point["admitted"] == (
        point["completed"] + point["rejected"] + point["degraded"]
    )
    assert point["conservation_ok"]
    assert point["admitted"] > 0


def test_scenario_is_deterministic():
    assert _point() == _point()


def test_one_seed_is_shared_across_all_points():
    plan = plan_scenarios(shards=(1, 2, 4), seed=9, **SMALL)
    assert [spec.seed for spec in plan.scenarios] == [9, 9, 9]
    assert [spec.label for spec in plan.scenarios] == [
        "shards=1", "shards=2", "shards=4",
    ]
    # Same seed means the identical trace at every shard count: the
    # admitted column must agree point-to-point.
    points = [spec.execute() for spec in plan.scenarios]
    assert len({p["admitted"] for p in points}) == 1


def test_mmpp_arrivals_run_and_conserve():
    point = _point(arrival="mmpp")
    assert point["conservation_ok"]
    assert point["admitted"] > 0


def test_shard_crash_mid_storm_conserves_and_recovers():
    point = _point(shards=2, crash_at_frac=0.5)
    assert point["crashes"] == 1
    # Crash fencing turns in-flight grants into retries/degraded and
    # revoked leases — never silent drops.
    assert point["admitted"] == (
        point["completed"] + point["rejected"] + point["degraded"]
    )
    assert point["conservation_ok"]
    assert point["completed"] > 0  # the surviving shard kept granting


def test_crash_retry_ladder_is_pinned():
    """The grant retry ladder (6 attempts, 0.02 s doubling to 0.64 s)
    decides who degrades during the crash and how late the rest are
    granted; the default sweep plans never crash, so this pins it."""
    point = _point(shards=2, crash_at_frac=0.5)
    assert point["degraded"] == 65
    assert point["p99_ms"] == 787.0662748157159


def test_unknown_arrival_kind_is_rejected():
    with pytest.raises(ValueError):
        _point(arrival="bursty")


def test_assemble_rebuilds_the_typed_result_in_plan_order():
    plan = plan_scenarios(shards=(2, 1), seed=0, **SMALL)
    points = [spec.execute() for spec in plan.scenarios]
    result = loadstorm_sweep.SWEEP.assemble(points, plan.meta)
    assert isinstance(result, SweepResult)
    assert all(isinstance(p, loadstorm_sweep.LoadstormPoint) for p in result.points)
    assert [p.shards for p in result.points] == [2, 1]
    assert result.meta["population"] == SMALL["population"]
    report = result.format_report()
    assert "shards=2" in report and "conserved" in report


def test_run_shim_matches_serial_protocol():
    result = run_sweep("loadstorm", shards=(1,), seed=0, **SMALL)
    assert len(result.points) == 1
    assert result.points[0].conservation_ok
    plan = plan_scenarios(shards=(1,), seed=0, **SMALL)
    serial = loadstorm_sweep.SWEEP.assemble(
        [spec.execute() for spec in plan.scenarios], plan.meta)
    assert result.to_json() == serial.to_json()
