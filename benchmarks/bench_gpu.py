"""GPU control-plane harness: batching throughput + sweep wall time.

Companion to ``bench_sweep.py`` for the GPU disaggregation control plane
(``src/repro/gpuservice/``).  The committed ``BENCH_gpu.json`` records
two kinds of baseline and ``tools/perfgate.py --bench gpu`` fails the
build when either regresses:

* ``gpu_unbatched`` / ``gpu_batched32`` — **simulated-time** request
  throughput of one :func:`repro.experiments.gpu_scaling_sweep.scenario`
  point at ``max_batch_size`` 1 and 32 (metric ``requests_per_s``,
  higher is better).  These are deterministic model outputs, so their
  tolerance is tight: a drop means the batching cost model or the
  batcher's coalescing changed, not that the host was busy.
* ``gpu_sweep_wall`` — wall clock of a reduced ``gpu_scaling`` sweep
  through the serial path (metric ``wall_s``, lower is better, loose
  tolerance): catches structural slowdowns in the service's event
  handling (per-request span bookkeeping, batcher timer churn).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import gpu_scaling_sweep
from repro.sweep import run_sweep

pytestmark = pytest.mark.perf

DEFAULT_REPEATS = 3

#: Per-stream request count for the simulated-throughput points
#: (divisible by every batch size used below — no partial final batch).
BENCH_REQUESTS = 1024
BENCH_MAX_RATE = 800.0

#: Reduced sweep for the wall-clock scenario.
WALL_BATCH_SIZES = (1, 8, 64)
WALL_REQUESTS = 512


def _simulated_point(batch_size: int) -> dict:
    return gpu_scaling_sweep.scenario(
        {
            "batch_size": batch_size,
            "requests": BENCH_REQUESTS,
            "max_rate_rps": BENCH_MAX_RATE,
        },
        seed=0,
    )


def measure_unbatched(repeats: int = DEFAULT_REPEATS) -> dict:
    del repeats  # deterministic simulated time: repeats cannot change it
    point = _simulated_point(1)
    return {
        "metric": "requests_per_s",
        "value": point["throughput_rps"],
        "requests": point["completed"],
        "modeled": True,
    }


def measure_batched32(repeats: int = DEFAULT_REPEATS) -> dict:
    del repeats
    point = _simulated_point(32)
    return {
        "metric": "requests_per_s",
        "value": point["throughput_rps"],
        "requests": point["completed"],
        "modeled": True,
    }


def measure_sweep_wall(repeats: int = DEFAULT_REPEATS) -> dict:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_sweep("gpu_scaling", batch_sizes=WALL_BATCH_SIZES,
                              requests=WALL_REQUESTS)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return {
        "metric": "wall_s",
        "value": best,
        "scenarios": len(WALL_BATCH_SIZES),
    }


#: name -> callable(repeats) -> {"metric", "value", ...}; keys match
#: BENCH_gpu.json's "scenarios" table.
SCENARIOS = {
    "gpu_unbatched": measure_unbatched,
    "gpu_batched32": measure_batched32,
    "gpu_sweep_wall": measure_sweep_wall,
}


def measure_all(repeats: int = DEFAULT_REPEATS) -> dict[str, dict]:
    return {name: fn(repeats) for name, fn in SCENARIOS.items()}


# -- pytest entry points (opt-in via -m perf / REPRO_PERF=1) ----------------

def test_unbatched_throughput(report):
    result = measure_unbatched()
    report(f"gpu unbatched: {result['value']:.1f} requests/s (simulated)")
    assert result["value"] > 0


def test_batching_amortizes_launches(report):
    single = measure_unbatched()
    batched = measure_batched32()
    gain = batched["value"] / single["value"]
    report(f"gpu batched32: {batched['value']:.1f} requests/s = "
           f"{gain:.2f}x over unbatched")
    assert gain >= 3.0  # B=32 amortizes 16 launches/request into ~1/2


def test_sweep_wall(report):
    result = measure_sweep_wall(repeats=1)
    report(f"gpu sweep ({result['scenarios']} batch sizes, "
           f"{WALL_REQUESTS}x2 requests each): {result['value']:.2f}s wall")
    assert result["value"] > 0


if __name__ == "__main__":
    # Regenerate BENCH_gpu.json: "before" on the batched row is the
    # unbatched throughput, so "speedup" records the coalescing gain.
    import json
    import pathlib

    single = measure_unbatched()
    batched = measure_batched32()
    wall = measure_sweep_wall()
    baseline = {
        "benchmark": "GPU control plane (invocation batching, 2 devices)",
        "description": "simulated requests/s at max_batch_size 1 vs 32, plus "
                       "serial gpu_scaling sweep wall clock",
        "scenarios": {
            "gpu_unbatched": {
                "metric": "requests_per_s",
                "after": round(single["value"], 1),
                "before": round(single["value"], 1),
                "speedup": 1.0,
                "modeled": True,
                "requests": single["requests"],
            },
            "gpu_batched32": {
                "metric": "requests_per_s",
                "after": round(batched["value"], 1),
                "before": round(single["value"], 1),
                "speedup": round(batched["value"] / single["value"], 2),
                "modeled": True,
                "requests": batched["requests"],
            },
            "gpu_sweep_wall": {
                "metric": "wall_s",
                "after": round(wall["value"], 4),
                "before": round(wall["value"], 4),
                "speedup": 1.0,
                "scenarios": wall["scenarios"],
            },
        },
        # The simulated throughputs are deterministic: any drift at all is
        # a cost-model change, so gate them tightly.  Wall time is noisy.
        "tolerance": {"requests_per_s": 0.05, "wall_s": 0.5},
    }
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_gpu.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(baseline["scenarios"], indent=2, sort_keys=True))
