"""Control-plane HA harness: completion through failover + sweep wall time.

Companion to ``bench_gpu.py`` for the replicated resource manager
(``src/repro/controlplane/``).  The committed ``BENCH_managerha.json``
records three kinds of baseline and ``tools/perfgate.py --bench
managerha`` fails the build when any regresses:

* ``managerha_completion`` — **simulated** completion ratio of one
  :func:`repro.experiments.manager_failover_sweep.scenario` point with
  one standby through the canonical crash + partition storm (metric
  ``completion_ratio``, higher is better, tight tolerance: this is the
  PR's acceptance bar — >= 99 % of invocations complete because a
  standby takes over).
* ``managerha_p99_fast_detect`` — **simulated** p99 invocation latency
  with an aggressive failure detector (``suspect_after=2``), gated as a
  ceiling (metric ``latency_ms``): catches accidental extra backoff
  rounds or detector slowdowns on the client recovery path.
* ``managerha_sweep_wall`` — wall clock of a reduced ``manager_failover``
  sweep through the serial path (metric ``wall_s``, loose tolerance):
  catches structural slowdowns in heartbeat/replication bookkeeping.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import manager_failover_sweep
from repro.sweep import run_sweep

pytestmark = pytest.mark.perf

DEFAULT_REPEATS = 3

#: Simulated window for the single-point scenarios.
BENCH_WINDOW_S = 12.0

#: Reduced sweep for the wall-clock scenario.
WALL_STANDBYS = (0, 1)
WALL_WINDOW_S = 8.0


def _simulated_point(standbys: int, suspect_after: int = 3) -> dict:
    return manager_failover_sweep.scenario(
        {
            "standbys": standbys,
            "window_s": BENCH_WINDOW_S,
            "runtime_s": 0.02,
            "payload_bytes": 1024,
            "streams": 3,
            "heartbeat_interval_s": 0.1,
            "suspect_after": suspect_after,
        },
        seed=0,
    )


def measure_completion(repeats: int = DEFAULT_REPEATS) -> dict:
    del repeats  # deterministic simulated time: repeats cannot change it
    point = _simulated_point(standbys=1)
    return {
        "metric": "completion_ratio",
        "value": point["completed"] / point["invocations"],
        "invocations": point["invocations"],
        "modeled": True,
    }


def measure_p99_fast_detect(repeats: int = DEFAULT_REPEATS) -> dict:
    del repeats
    point = _simulated_point(standbys=1, suspect_after=2)
    return {
        "metric": "latency_ms",
        "value": point["p99_ms"],
        "invocations": point["invocations"],
        "modeled": True,
    }


def measure_sweep_wall(repeats: int = DEFAULT_REPEATS) -> dict:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_sweep("manager_failover", standbys=WALL_STANDBYS,
                                   window_s=WALL_WINDOW_S)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return {
        "metric": "wall_s",
        "value": best,
        "scenarios": len(WALL_STANDBYS),
    }


#: name -> callable(repeats) -> {"metric", "value", ...}; keys match
#: BENCH_managerha.json's "scenarios" table.
SCENARIOS = {
    "managerha_completion": measure_completion,
    "managerha_p99_fast_detect": measure_p99_fast_detect,
    "managerha_sweep_wall": measure_sweep_wall,
}


def measure_all(repeats: int = DEFAULT_REPEATS) -> dict[str, dict]:
    return {name: fn(repeats) for name, fn in SCENARIOS.items()}


# -- pytest entry points (opt-in via -m perf / REPRO_PERF=1) ----------------

def test_zero_standbys_lose_inflight_work(report):
    point = _simulated_point(standbys=0)
    ratio = point["completed"] / point["invocations"]
    report(f"managerha k=0: {ratio:.1%} completion (lost work expected)")
    assert ratio < 0.9  # the crash wipes lease state; the storm is rejected
    assert point["invariants_ok"]  # losing work honestly still conserves


def test_one_standby_meets_the_acceptance_bar(report):
    point = _simulated_point(standbys=1)
    ratio = point["completed"] / point["invocations"]
    report(f"managerha k=1: {ratio:.1%} completion, "
           f"{point['failovers']} failover(s), epoch {point['epochs']}")
    assert ratio >= 0.99
    assert point["failovers"] >= 1
    assert point["invariants_ok"]  # zero double grants, one primary/epoch


def test_sweep_wall(report):
    result = measure_sweep_wall(repeats=1)
    report(f"managerha sweep ({result['scenarios']} standby counts, "
           f"{WALL_WINDOW_S:g}s windows): {result['value']:.2f}s wall")
    assert result["value"] > 0


if __name__ == "__main__":
    # Regenerate BENCH_managerha.json: "before" on the completion row is
    # the k=0 ratio, so "speedup" records what the standby buys.
    import json
    import pathlib

    lost = _simulated_point(standbys=0)
    before_ratio = lost["completed"] / lost["invocations"]
    completion = measure_completion()
    p99 = measure_p99_fast_detect()
    wall = measure_sweep_wall()
    baseline = {
        "benchmark": "replicated control plane (manager crash + partition storm)",
        "description": "completion ratio and p99 with one standby vs none, "
                       "plus serial manager_failover sweep wall clock",
        "scenarios": {
            "managerha_completion": {
                "metric": "completion_ratio",
                "after": round(completion["value"], 4),
                "before": round(before_ratio, 4),
                "speedup": round(completion["value"] / before_ratio, 2),
                "modeled": True,
                "invocations": completion["invocations"],
            },
            "managerha_p99_fast_detect": {
                "metric": "latency_ms",
                "after": round(p99["value"], 4),
                "before": round(p99["value"], 4),
                "speedup": 1.0,
                "modeled": True,
                "invocations": p99["invocations"],
            },
            "managerha_sweep_wall": {
                "metric": "wall_s",
                "after": round(wall["value"], 4),
                "before": round(wall["value"], 4),
                "speedup": 1.0,
                "scenarios": wall["scenarios"],
            },
        },
        # The simulated ratio/latency are deterministic: any drift is a
        # control-plane behaviour change, so gate them tightly.  Wall
        # time is noisy.
        "tolerance": {"completion_ratio": 0.02, "latency_ms": 0.1,
                      "wall_s": 0.5},
    }
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_managerha.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(baseline["scenarios"], indent=2, sort_keys=True))
