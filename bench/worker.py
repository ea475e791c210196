"""One benchmark repetition, run in a fresh single-threaded interpreter.

    python3 bench/worker.py '{"workload": "storm", "seed": 0, "traced": false}'

Optional spec keys: ``overrides`` (keyword arguments for the sweep's
``plan_scenarios``, to shrink a workload in the self-tests) and
``spans`` (where a traced run writes its sampled spans).  The last line
of standard output is one JSON object: the set-up and scenario wall
times, peak RSS, the requests counted, the point and its sha256, the
invariants it broke and, when traced, the per-layer counters.
"""

import time

T0 = time.perf_counter()  # set-up time starts at the first statement

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _check_storm(point, params):
    broken = []
    if point["conservation_ok"] is not True:
        broken.append("conservation_ok is false")
    if point["admitted"] != point["completed"] + point["rejected"] + point["degraded"]:
        broken.append("admitted != completed + rejected + degraded")
    return broken


def _check_chaos(point, params):
    broken = []
    ended = point["completed"] + point["gave_up"] + point["rejected"] + point["timed_out"]
    if ended != point["invocations"]:
        broken.append("outcomes do not sum to invocations")
    if point["completed"] < 0.95 * point["invocations"]:
        broken.append("completion below 95%")
    return broken


def _check_gpu(point, params):
    broken = []
    if point["completed"] != 2 * params["requests"]:
        broken.append("completed != 2 x requests")
    if point["timer_flushes"] != 0:
        broken.append("timer_flushes != 0")
    return broken


#: name -> (sweep module, plan_scenarios arguments, requests counted, check)
WORKLOADS = {
    "storm": ("loadstorm_sweep", {"shards": (4,), "window_s": 4.0},
              "admitted", _check_storm),
    "hotshard": ("loadstorm_sweep", {"shards": (1,), "window_s": 4.0},
                 "admitted", _check_storm),
    "chaos": ("chaos_sweep", {"rates": (16.0,), "window_s": 60.0, "streams": 4},
              "invocations", _check_chaos),
    "gpu": ("gpu_scaling_sweep", {"batch_sizes": (8,), "requests": 30_000},
            "completed", _check_gpu),
}


def run(spec: dict) -> dict:
    module_name, plan_args, counted, check = WORKLOADS[spec["workload"]]
    sweep = importlib.import_module(f"repro.experiments.{module_name}")
    plan = sweep.plan_scenarios(**{**plan_args, **spec.get("overrides", {})},
                                seed=spec["seed"])
    scenario = plan.scenarios[0]
    setup_s = time.perf_counter() - T0

    tracer = None
    if spec.get("traced"):
        from layertrace import LayerTracer
        tracer = LayerTracer()
        tracer.install()
        tracer.start()
    start = time.perf_counter()
    point = scenario.fn(scenario.params, scenario.seed)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
    result = {
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests": point[counted],
        "digest": hashlib.sha256(json.dumps(point, sort_keys=True).encode()).hexdigest(),
        "violations": check(point, scenario.params), "point": point,
    }
    if tracer is not None:
        result.update(
            self_s=tracer.self_s, calls=tracer.calls, events=tracer.events(),
            # Only driver code calls request_grant, so each call is a span.
            grant_calls=tracer.span_counts["shard.ShardedControlPlane.request_grant"],
        )
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
