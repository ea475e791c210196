"""The parallel runner: merge order, telemetry parts, failure surfacing.

Everything here runs in-process (``jobs=1`` and a real 2-worker pool in
the same interpreter); that every jobs count gives the pinned JSON and
span stream is checked in ``tests/integration/test_sweep_goldens.py``.
"""

import os

import pytest

from repro.experiments.base import ScenarioSpec, Sweep, SweepPlan
from repro.sweep import (
    SweepScenarioError,
    run_sweep,
    stream_part_path,
    sweep_names,
)

CHAOS_KWARGS = dict(rates=(0.0, 8.0), window_s=4.0, seed=7)


def test_run_sweep_rejects_bad_jobs_and_unknown_names():
    with pytest.raises(ValueError):
        run_sweep("chaos", jobs=0, **CHAOS_KWARGS)
    with pytest.raises(KeyError):
        run_sweep("no-such-sweep")


def test_excess_jobs_are_clamped_to_the_scenario_count():
    # 2 scenarios, 8 requested workers: still correct, still merged in order.
    result = run_sweep("chaos", jobs=8, **CHAOS_KWARGS)
    assert [p["label"] for p in result.to_dict()["points"]] == \
           ["rate-0", "rate-8"]


def test_stream_spans_merges_parts_in_plan_order(tmp_path):
    stream = tmp_path / "spans.jsonl"
    result = run_sweep("chaos", jobs=2, stream_spans=str(stream), **CHAOS_KWARGS)
    assert stream.exists()
    # Part files are consumed by the merge, never left behind.
    for index in range(4):
        assert not os.path.exists(stream_part_path(str(stream), index))
    assert stream.read_text().strip().splitlines()
    # Each scenario's metric scopes are numbered on after the previous one's.
    scopes = [scope for scope, _ in result.metrics]
    assert scopes == [f"sim{i}" for i in range(len(scopes))] and len(scopes) >= 2


# -- failure contract --------------------------------------------------------

def _boom(params, seed):
    raise RuntimeError(f"kaboom-{params['rate']}")


def _ok(params, seed):
    return {"rate": params["rate"]}


def _failing_plan(**kwargs):
    return SweepPlan(scenarios=(
        ScenarioSpec(fn=_ok, params={"rate": 0.0}, seed=0, label="rate-0"),
        ScenarioSpec(fn=_boom, params={"rate": 8.0}, seed=1, label="rate-8"),
    ))


FAILING = Sweep(name="failing-test-sweep", description="always fails",
                plan=_failing_plan, point_type=dict, columns=(), title="",
                footer="")


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_surfaces_the_original_traceback(jobs, tmp_path):
    with pytest.raises(SweepScenarioError) as excinfo:
        run_sweep(FAILING, jobs=jobs, stream_spans=str(tmp_path / "spans.jsonl"))
    message = str(excinfo.value)
    # The failing scenario is named and the worker's real stack — down to
    # the raising frame — crossed the pool boundary.
    assert excinfo.value.label == "rate-8"
    assert "kaboom-8.0" in message
    assert "RuntimeError" in message and "_boom" in message
    # The failed sweep leaves no span part file behind.
    assert not list(tmp_path.glob("*.part-*"))


def test_failing_sweeps_are_not_registered():
    assert FAILING.name not in sweep_names()
