"""Engine perf harness: events/sec and wall time on three scenarios.

This file is both a benchmark module (``pytest benchmarks/bench_engine.py
-m perf``) and a scenario library imported by ``tools/perfgate.py``, which
compares live measurements against the committed ``BENCH_engine.json``
baseline and fails on regressions beyond the configured tolerance.

Scenarios:

* ``event_loop`` — a pure engine microbench with no model code: timeout
  churn (half zero-delay), trigger/wait event chains, mostly-uncontended
  and contended resource handoffs, and process fan-out/fan-in.  Reported
  as events/sec (``Environment.event_count`` over the drain wall time).
* ``fig07_latency`` — the end-to-end invocation latency sweep (hot/warm
  executors over RDMA), wall time.
* ``chaos_sweep`` — the fault-injection sweep (telemetry active, so the
  traced path is what is measured), wall time.

All scenarios are deterministic; only the wall clock varies between
machines, which is why the perf gate compares against a per-repo
committed baseline with a generous tolerance instead of absolute numbers.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import fig07_latency
from repro.sim import Environment
from repro.sim.resources import Resource
from repro.sweep import run_sweep

pytestmark = pytest.mark.perf

#: Best-of repeats per measurement (first run also warms imports/JIT-less
#: caches like the regex and hop-latency caches).
DEFAULT_REPEATS = 3


def build_event_loop(env: Environment) -> None:
    """Populate ``env`` with the canonical microbench process mix.

    The mix mirrors the hot paths of the real simulator: zero-delay
    control events and short timeouts (invocation dispatch/execute
    chains), trigger/wait pairs (lease grants, transfer completions),
    resource slot handoffs (executor cores, NIC channels), and one
    process per invocation fan-out.
    """

    def churn(pid: int, iters: int):
        for i in range(iters):
            yield env.timeout(0.0 if (pid + i) % 2 == 0 else 1e-6 * ((pid + i) % 5 + 1))

    def triggered(rounds: int):
        for i in range(rounds):
            ev = env.event()

            def trigger(ev=ev, i=i):
                yield env.timeout(0.0)
                ev.succeed(i)

            env.process(trigger())
            value = yield ev
            assert value == i

    def slots(res: Resource, iters: int):
        for _ in range(iters):
            with res.request() as req:
                yield req
                yield env.timeout(0.0)

    def leaf():
        yield env.timeout(1e-6)
        return 1

    def parent(children: int):
        total = 0
        for _ in range(children):
            total += yield env.process(leaf())
        return total

    for pid in range(40):
        env.process(churn(pid, 2000))
    for _ in range(10):
        env.process(triggered(800))
    wide = Resource(env, capacity=32)
    for _ in range(8):
        env.process(slots(wide, 1500))
    narrow = Resource(env, capacity=2)
    for _ in range(4):
        env.process(slots(narrow, 500))
    for _ in range(50):
        env.process(parent(20))


def run_event_loop() -> tuple[int, float]:
    """One microbench run; returns (events processed, wall seconds)."""
    env = Environment()
    build_event_loop(env)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return env.event_count, wall


def run_fig07() -> None:
    fig07_latency.run(samples=40, seed=0)


def run_chaos() -> None:
    run_sweep("chaos", rates=(0.0, 8.0), window_s=10.0, seed=0)


def measure_event_loop(repeats: int = DEFAULT_REPEATS) -> dict:
    best = None
    for _ in range(max(1, repeats)):
        events, wall = run_event_loop()
        if best is None or wall < best[1]:
            best = (events, wall)
    events, wall = best
    return {
        "metric": "events_per_s",
        "value": events / wall,
        "events": events,
        "wall_s": wall,
    }


def _measure_wall(fn, repeats: int) -> dict:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return {"metric": "wall_s", "value": best, "wall_s": best}


#: name -> callable(repeats) -> {"metric", "value", ...}; the names match
#: the keys of BENCH_engine.json's "scenarios" table.
SCENARIOS = {
    "event_loop": measure_event_loop,
    "fig07_latency": lambda repeats=DEFAULT_REPEATS: _measure_wall(run_fig07, repeats),
    "chaos_sweep": lambda repeats=DEFAULT_REPEATS: _measure_wall(run_chaos, repeats),
}


def measure_all(repeats: int = DEFAULT_REPEATS) -> dict[str, dict]:
    return {name: fn(repeats) for name, fn in SCENARIOS.items()}


# -- pytest entry points (opt-in via -m perf / REPRO_PERF=1) ----------------

def test_event_loop_throughput(report):
    result = measure_event_loop()
    report(
        f"engine event_loop: {result['events']} events in "
        f"{result['wall_s']:.4f}s = {result['value']:,.0f} events/s"
    )
    assert result["events"] > 100_000
    assert result["value"] > 0


def test_fig07_wall(report):
    result = SCENARIOS["fig07_latency"]()
    report(f"engine fig07_latency: {result['value']:.4f}s wall")
    assert result["value"] > 0


def test_chaos_wall(report):
    result = SCENARIOS["chaos_sweep"]()
    report(f"engine chaos_sweep: {result['value']:.4f}s wall")
    assert result["value"] > 0
