"""Sharded control plane: million-client load storm throughput/p99.

Companion to ``bench_managerha.py`` for the sharded control plane
(``src/repro/shard/``) and the open-loop workload engine
(``src/repro/loadgen/``).  The committed ``BENCH_loadstorm.json``
records three kinds of baseline and ``tools/perfgate.py --bench
loadstorm`` fails the build when any regresses:

* ``loadstorm_throughput`` — **simulated** completed-request throughput
  of one :func:`repro.experiments.loadstorm_sweep.scenario` point with
  four shards under an open-loop storm that saturates a single shard's
  serialization ceiling (metric ``requests_per_s``, floor, tight
  tolerance: this is the PR's acceptance bar — sharding the plane must
  keep buying throughput).  The recorded "before" is the same storm
  against one shard, so "speedup" records what sharding buys.
* ``loadstorm_p99`` — **simulated** p99 request latency at four shards
  (metric ``latency_ms``, ceiling): catches batching/rebalance
  regressions that push the open-loop queue into the tail.
* ``loadstorm_sweep_wall`` — wall clock of a reduced ``loadstorm``
  sweep through the serial path (metric ``wall_s``, loose tolerance):
  catches structural slowdowns in ring/batcher/ledger bookkeeping.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import loadstorm_sweep
from repro.sweep import run_sweep

pytestmark = pytest.mark.perf

DEFAULT_REPEATS = 3

#: The storm for the single-point scenarios: 2400 req/s is ~2x the
#: one-shard serialization ceiling, so the unsharded plane visibly
#: drowns while four shards (two nodes each) keep up.
BENCH_PARAMS = {
    "window_s": 4.0,
    "rate_per_s": 2400.0,
    "population": 400_000,
    "zipf_s": 1.1,
    "service_s": 0.05,
    "arrival": "poisson",
    "nodes": 8,
    "cores_per_node": 24,
    "max_batch": 32,
    "crash_at_frac": 0.0,
}

#: Reduced sweep for the wall-clock scenario.
WALL_SHARDS = (1, 2)
WALL_PARAMS = dict(window_s=2.0, rate_per_s=600.0, population=50_000,
                   nodes=4, cores_per_node=8)


def _simulated_point(shards: int) -> dict:
    return loadstorm_sweep.scenario({**BENCH_PARAMS, "shards": shards}, seed=0)


def measure_throughput(repeats: int = DEFAULT_REPEATS) -> dict:
    del repeats  # deterministic simulated time: repeats cannot change it
    point = _simulated_point(shards=4)
    return {
        "metric": "requests_per_s",
        "value": point["throughput_rps"],
        "admitted": point["admitted"],
        "modeled": True,
    }


def measure_p99(repeats: int = DEFAULT_REPEATS) -> dict:
    del repeats
    point = _simulated_point(shards=4)
    return {
        "metric": "latency_ms",
        "value": point["p99_ms"],
        "admitted": point["admitted"],
        "modeled": True,
    }


def measure_sweep_wall(repeats: int = DEFAULT_REPEATS) -> dict:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_sweep("loadstorm", shards=WALL_SHARDS, **WALL_PARAMS)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return {
        "metric": "wall_s",
        "value": best,
        "scenarios": len(WALL_SHARDS),
    }


#: name -> callable(repeats) -> {"metric", "value", ...}; keys match
#: BENCH_loadstorm.json's "scenarios" table.
SCENARIOS = {
    "loadstorm_throughput": measure_throughput,
    "loadstorm_p99": measure_p99,
    "loadstorm_sweep_wall": measure_sweep_wall,
}


def measure_all(repeats: int = DEFAULT_REPEATS) -> dict[str, dict]:
    return {name: fn(repeats) for name, fn in SCENARIOS.items()}


# -- pytest entry points (opt-in via -m perf / REPRO_PERF=1) ----------------

def test_one_shard_drowns_in_the_storm(report):
    point = _simulated_point(shards=1)
    report(f"loadstorm shards=1: {point['throughput_rps']:.0f} req/s, "
           f"p99 {point['p99_ms']:.0f} ms (saturation expected)")
    assert point["throughput_rps"] < 1000
    assert point["conservation_ok"]  # drowning honestly still conserves


def test_four_shards_meet_the_acceptance_bar(report):
    one = _simulated_point(shards=1)
    four = _simulated_point(shards=4)
    gain = four["throughput_rps"] / one["throughput_rps"]
    report(f"loadstorm shards=4: {four['throughput_rps']:.0f} req/s "
           f"({gain:.1f}x over one shard), p99 {four['p99_ms']:.0f} ms")
    assert gain >= 2.0
    assert four["p99_ms"] < one["p99_ms"]
    assert four["conservation_ok"]


def test_sweep_wall(report):
    result = measure_sweep_wall(repeats=1)
    report(f"loadstorm sweep ({result['scenarios']} shard counts, "
           f"{WALL_PARAMS['window_s']:g}s windows): {result['value']:.2f}s wall")
    assert result["value"] > 0


if __name__ == "__main__":
    # Regenerate BENCH_loadstorm.json: "before" on the throughput row is
    # the one-shard point, so "speedup" records what sharding buys.
    import json
    import pathlib

    one = _simulated_point(shards=1)
    throughput = measure_throughput()
    p99 = measure_p99()
    wall = measure_sweep_wall()
    baseline = {
        "benchmark": "sharded control plane (open-loop million-client load storm)",
        "description": "completed-request throughput and p99 with four shards "
                       "vs one, plus serial loadstorm sweep wall clock",
        "scenarios": {
            "loadstorm_throughput": {
                "metric": "requests_per_s",
                "after": round(throughput["value"], 4),
                "before": round(one["throughput_rps"], 4),
                "speedup": round(throughput["value"] / one["throughput_rps"], 2),
                "modeled": True,
                "admitted": throughput["admitted"],
            },
            "loadstorm_p99": {
                "metric": "latency_ms",
                "after": round(p99["value"], 4),
                "before": round(one["p99_ms"], 4),
                "speedup": round(one["p99_ms"] / p99["value"], 2),
                "modeled": True,
                "admitted": p99["admitted"],
            },
            "loadstorm_sweep_wall": {
                "metric": "wall_s",
                "after": round(wall["value"], 4),
                "before": round(wall["value"], 4),
                "speedup": 1.0,
                "scenarios": wall["scenarios"],
            },
        },
        # The simulated throughput/latency are deterministic: any drift
        # is a shard-plane behaviour change, so gate them tightly.  Wall
        # time is noisy.
        "tolerance": {"requests_per_s": 0.02, "latency_ms": 0.1,
                      "wall_s": 0.5},
    }
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_loadstorm.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(baseline["scenarios"], indent=2, sort_keys=True))
