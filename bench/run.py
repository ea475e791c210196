"""Wall-clock benchmark of the simulator, end to end and layer by layer.

    python3 bench/run.py [--workload W ...] [--seed N]
                         [--repeats R] [--seconds S] [--trace 0|1 | --traced]

Each repetition calls one sweep's module-level ``scenario(params, seed)``
in a fresh single-threaded worker interpreter (``bench/worker.py``).
Workers run one at a time, and repetitions are interleaved round-robin
across workloads, so drift on a shared machine hits every workload
alike.  Repetition ``i`` of ``--seed n`` runs scenario seed
``n * 1000 + i``: a run measures several instances of its workload, so
its medians do not hinge on one trace.

Untraced, a run reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates an untraced and a traced repetition of
one instance (scenario seed ``n * 1000``) and reports the per-layer
metrics.  ``--repeats`` caps the repetitions per workload (by default
5, or 1 traced pair, unless ``--seconds`` is given).  ``--seconds``
repeats while the next repetition is expected to end within that many
seconds per workload (at least 3, or 1 traced pair).

Every point is checked against the invariants of its workload and, for
the seeds pinned in ``bench/golden.json``, against its sha256.  The
command prints a table, writes ``bench/out/results.json``, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
It exits 1 if any repetition failed, and 2 without a result if the
program to measure is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import ALL_LAYERS as LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

CASES_PER_SEED = 1000
DEFAULT_REPEATS = 5
MIN_REPEATS = 3
WORKER_TIMEOUT_S = 150


def load_json(path: Path):
    with open(path) as f:
        return json.load(f)


def worker_env() -> dict:
    """One thread, a fixed hash seed, and bytecode cached inside ``out/``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPYCACHEPREFIX=str(OUT / "pycache"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(workload: str, seed: int, traced: bool,
               overrides: dict | None = None, spans: Path | None = None) -> dict:
    """One repetition in a fresh interpreter; ``{"error": ...}`` if it broke."""
    spec = {"workload": workload, "seed": seed, "traced": traced,
            "overrides": overrides or {}}
    if spans is not None:
        spec["spans"] = str(spans)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    return json.loads(lines[-1])


def measure(workloads, seed: int, *, traced: bool, repeats: int | None,
            seconds: float | None) -> dict:
    """Repetitions per workload, round-robin; a traced one is a pair."""
    runs = {w: [] for w in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    minimum = 1 if traced else MIN_REPEATS

    def wants_more(w: str) -> bool:
        n = len(runs[w])
        if repeats is not None and n >= repeats:
            return False
        if seconds is None or n < minimum:
            return True
        return spent[w] * (n + 1) / n <= seconds

    active = list(workloads)
    while active:
        for w in active:
            start = time.perf_counter()
            if traced:
                case = seed * CASES_PER_SEED
                runs[w].append((run_worker(w, case, False), run_worker(
                    w, case, True, spans=OUT / f"{w}.spans.jsonl")))
            else:
                case = seed * CASES_PER_SEED + len(runs[w])
                runs[w].append(run_worker(w, case, False))
            spent[w] += time.perf_counter() - start
        active = [w for w in active if wants_more(w)]
    return runs


def check(rep: dict, pinned: list, index: int) -> str | None:
    """Why ``rep`` failed, or None."""
    if "error" in rep:
        return rep["error"]
    if rep["violations"]:
        return "; ".join(rep["violations"])
    if index < len(pinned) and rep["digest"] != pinned[index]:
        return f"digest {rep['digest'][:12]} != pinned {pinned[index][:12]}"
    return None


def stats(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(reps: list) -> dict:
    return {
        "sim_req_per_s": stats([r["requests"] / r["wall_s"] for r in reps]),
        "setup_s": stats([r["setup_s"] for r in reps]),
        "peak_rss_mb": stats([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(pairs: list) -> dict:
    """Per-layer metrics of one instance: counts from its traced run,
    times as medians over the traced repetitions."""
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    first = traced[0]
    requests, point = first["requests"], first["point"]
    metrics = {}
    for layer in LAYERS:
        self_s = statistics.median(t["self_s"][layer] for t in traced)
        metrics[f"{layer}.calls"] = first["calls"][layer]
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.us_per_req"] = 1e6 * self_s / requests
    metrics["sim.events"] = first["events"]
    metrics["sim.us_per_event"] = 1e6 * metrics["sim.self_s"] / first["events"]
    metrics["shard.grant_success_ratio"] = (
        point["completed"] / first["grant_calls"] if first["grant_calls"] else 0.0)
    attempts = point.get("invocations", 0) + point.get("retries", 0)
    metrics["rfaas.attempt_success_ratio"] = (
        point["completed"] / attempts if attempts else 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return metrics


def summarize(runs: dict, seed: int, traced: bool, golden: dict) -> dict:
    report = {}
    for workload, reps in runs.items():
        pinned = golden.get(workload, {}).get(str(seed), [])
        errors, good = [], []
        for index, rep in enumerate(reps):
            if traced:
                plain, timed = rep
                why = check(plain, pinned, 0) or check(timed, pinned, 0)
                if why is None and plain["digest"] != timed["digest"]:
                    why = "traced digest differs from untraced"
            else:
                why = check(rep, pinned, index)
            if why is None:
                good.append(rep)
            else:
                errors.append(f"repetition {index}: {why}")
        entry = {"attempted": len(reps), "failed": len(errors), "errors": errors,
                 "error_rate": len(errors) / len(reps)}
        if good:
            entry["metrics"] = per_layer(good) if traced else end_to_end(good)
        entry["repetitions"] = [
            [_recorded(r) for r in rep] if traced else _recorded(rep) for rep in reps]
        report[workload] = entry
    return report


def _recorded(rep: dict) -> dict:
    """What results.json keeps of one repetition."""
    keys = ("error", "digest", "requests", "wall_s", "setup_s", "peak_rss_mb")
    return {k: rep[k] for k in keys if k in rep}


def print_report(report: dict, units: dict, traced: bool) -> None:
    if traced:
        print(f"{'workload':<10}{'metric':<30}{'unit':<10}{'value':>14}")
        for workload, entry in report.items():
            for name, value in entry.get("metrics", {}).items():
                print(f"{workload:<10}{name:<30}{units[name]:<10}{value:>14.6g}")
    else:
        print(f"{'workload':<10}{'metric':<16}{'unit':<10}"
              f"{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
        for workload, entry in report.items():
            for name, s in entry.get("metrics", {}).items():
                print(f"{workload:<10}{name:<16}{units[name]:<10}{s['median']:>12.6g}"
                      f"{s['q1']:>12.6g}{s['q3']:>12.6g}{s['n']:>4}")
            print(f"{workload:<10}{'error_rate':<16}{'fraction':<10}"
                  f"{entry['error_rate']:>12.6g}{'':>24}{entry['attempted']:>4}")
    for workload, entry in report.items():
        for error in entry["errors"]:
            print(f"{workload}: FAILED {error}")


def result_line(report: dict, units: dict, traced: bool) -> dict:
    """The closing JSON object; keys are prefixed when several workloads ran."""
    metrics = {}
    for workload, entry in report.items():
        prefix = f"{workload}." if len(report) > 1 else ""
        for name, value in entry.get("metrics", {}).items():
            metrics[prefix + name] = {
                "value": value if traced else value["median"], "unit": units[name]}
    failed = sum(e["failed"] for e in report.values())
    return {"correct": failed == 0,
            "attempted": sum(e["attempted"] for e in report.values()),
            "failed": failed, "metrics": metrics}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeat to run several (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, help="repetitions per workload")
    parser.add_argument("--seconds", type=float, help="time budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.repeats is None and args.seconds is None:
        args.repeats = 1 if args.trace else DEFAULT_REPEATS
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    traced = bool(args.trace)
    workloads = list(dict.fromkeys(args.workload or [w["name"] for w in spec["workloads"]]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    OUT.mkdir(exist_ok=True)
    runs = measure(workloads, args.seed, traced=traced,
                   repeats=args.repeats, seconds=args.seconds)
    report = summarize(runs, args.seed, traced, load_json(BENCH / "golden.json"))
    print_report(report, units, traced)
    with open(OUT / "results.json", "w") as f:
        json.dump({
            "seed": args.seed, "traced": traced, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "workloads": report,
        }, f, indent=2, sort_keys=True)
    line = result_line(report, units, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
