"""Experiment Fig. 7: invocation round-trip latency vs. message size.

Measures the simulated rFaaS invocation RTT for a no-op function with
*hot* (busy-polling) and *warm* (event-driven) executors against the raw
fabric round trip (the libfabric baseline), reporting median and 95th
percentile per payload size — the exact series of the paper's Fig. 7.

Expected shape: hot executors track the fabric baseline within a small
constant, warm executors pay tens of microseconds of wakeup latency,
and every curve converges to bandwidth-bound behaviour for large
payloads.

Sweep protocol: one scenario per payload size.  Each builds its own
hot, warm and fabric platforms and measures that size only, so a row
does not depend on which other sizes were planned.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..api import Platform, PlatformConfig
from ..containers import Image
from ..interference import ResourceDemand
from ..rfaas import ExecutorMode
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig07Point", "scenario", "plan_scenarios", "SWEEP"]

MiB = 1024**2

DEFAULT_SIZES = (1, 64, 1024, 16 * 1024, 256 * 1024, 1 * MiB)


@dataclass(frozen=True)
class Fig07Point:
    """Median and p95 RTT of one payload size, per series."""

    size_bytes: int
    fabric_p50_s: float
    fabric_p95_s: float
    hot_p50_s: float
    hot_p95_s: float
    warm_p50_s: float
    warm_p95_s: float


def _percentiles(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    return float(np.median(arr)), float(np.percentile(arr, 95))


def _rfaas_latencies(mode: str, size: int, samples: int, seed: int) -> list[float]:
    platform = Platform.build(PlatformConfig(nodes=2), seed=seed)
    env = platform.env
    platform.register_node("n0001", cores=2, memory_bytes=8 * 1024**3, mode=mode)
    image = Image("noop", size_bytes=50 * MiB)
    platform.functions.register(
        "noop", image, runtime_s=0.0,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    client = platform.client("n0000")
    measurements: list[float] = []

    def bench():
        # One untimed warmup invocation walks the full cold path (so a
        # trace of this experiment decomposes cold start alongside the
        # hot/warm steady state); measured invocations then hit the
        # attached container, as in the paper's steady-state runs.
        warmup = yield client.invoke("noop", payload_bytes=1)
        assert warmup.ok
        for _ in range(samples):
            t0 = env.now
            result = yield client.invoke("noop", payload_bytes=size)
            assert result.ok
            measurements.append(env.now - t0)

    platform.process(bench())
    platform.run()
    return measurements


def _fabric_latencies(size: int, samples: int, seed: int) -> list[float]:
    platform = Platform.build(PlatformConfig(nodes=2), seed=seed)
    env = platform.env
    cred = platform.drc.acquire("bench")
    platform.drc.grant(cred.cred_id, "bench", "bench")
    fabric = platform.fabric
    measurements: list[float] = []

    def bench():
        conn = yield fabric.connect("n0000", "n0001", user="bench", cred_id=cred.cred_id)
        for _ in range(samples):
            t0 = env.now
            yield conn.send(size)
            yield conn.recv_response(1)
            measurements.append(env.now - t0)

    platform.process(bench())
    platform.run()
    return measurements


def scenario(params: dict, seed: int) -> dict:
    """One payload size on fresh hot, warm and fabric platforms.

    ``params``: ``size_bytes``, ``samples``.  Returns the
    :class:`Fig07Point` as a plain dict.
    """
    size: int = params["size_bytes"]
    samples: int = params["samples"]
    hot = _percentiles(_rfaas_latencies(ExecutorMode.HOT, size, samples, seed))
    warm = _percentiles(_rfaas_latencies(ExecutorMode.WARM, size, samples, seed))
    fabric = _percentiles(_fabric_latencies(size, samples, seed))
    return asdict(Fig07Point(size, *fabric, *hot, *warm))


def plan_scenarios(sizes=DEFAULT_SIZES, samples: int = 200,
                   seed: int = 0) -> SweepPlan:
    """One scenario per payload size, in the given order."""
    sizes = tuple(int(size) for size in sizes)
    if samples < 2:
        raise ValueError("need >= 2 samples per size")
    scenarios = tuple(
        ScenarioSpec(fn=scenario, params={"size_bytes": size, "samples": samples},
                     seed=seed, label=f"{size}B")
        for size in sizes
    )
    return SweepPlan(scenarios=scenarios, meta={"samples": samples, "seed": seed})


SWEEP = Sweep(
    name="fig07",
    description="rFaaS vs libfabric invocation latency",
    plan=plan_scenarios,
    point_type=Fig07Point,
    columns=(
        ("size (B)", lambda p: p.size_bytes),
        ("fabric p50 (us)", lambda p: p.fabric_p50_s * 1e6),
        ("fabric p95", lambda p: p.fabric_p95_s * 1e6),
        ("hot p50", lambda p: p.hot_p50_s * 1e6),
        ("hot p95", lambda p: p.hot_p95_s * 1e6),
        ("warm p50", lambda p: p.warm_p50_s * 1e6),
        ("warm p95", lambda p: p.warm_p95_s * 1e6),
    ),
    title="Fig. 7 — invocation RTT vs payload ({samples} samples/point)",
    footer=("Paper: hot executors within a few us of libfabric; warm pay"
            " tens of us of wakeup latency; single-digit us small-message RTT."),
)
