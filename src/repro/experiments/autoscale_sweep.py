"""Autoscale experiment: predictive vs reactive warm pools under load.

The capacity control plane (:mod:`repro.capacity`) governs every
invocation: forecast → admission (token buckets, bounded queue) →
harvested-pool placement → cloud-burst overflow.  This sweep replays the
same deterministic open-loop arrival schedule at increasing load
multipliers, twice per load — once with the warm-pool autoscaler
*reactive* (pools grow on miss, the seed system's behaviour) and once
*predictive* (pools resized ahead of the forecast) — and reports, per
scenario: p50/p99 latency, warm-start rate, admission-reject rate, burst
fraction, and the accumulated cloud-burst bill.

A node-crash plan runs by default (pass ``crash=False`` to disable): mid-
window crashes wipe two executor nodes' pools, the nodes heal and
re-register empty, and the difference between the modes becomes visible —
the predictive loop re-provisions the recovered nodes before traffic
lands on them, the reactive baseline pays the cold starts in-band.

Conservation invariant (asserted here, required by the ISSUE): every
arrival completes on HPC, completes on the cloud with its cost
accounted, or is explicitly rejected — nothing is silently dropped.

Fully deterministic: same seed ⇒ identical JSON, with and without the
crash storm (pinned in ``tests/integration/test_sweep_goldens.py``).

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)``; :func:`plan_scenarios` and the report columns are
registered as the ``autoscale`` sweep (``repro sweep autoscale --jobs N``
fans scenarios out).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import count, islice
from typing import Optional

import numpy as np

from ..api import Platform, PlatformConfig
from ..capacity import (
    AdmissionConfig,
    CapacityConfig,
    TenantQuota,
)
from ..containers import Image
from ..faults import FaultPlan
from ..interference import ResourceDemand
from ..loadgen import open_loop
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = [
    "AutoscalePoint",
    "default_crash_plan",
    "scenario",
    "plan_scenarios",
    "SWEEP",
]

MiB = 1024**2
GiB = 1024**3

#: Load multipliers swept by default (1x = DEFAULT_RATE arrivals/s).
DEFAULT_LOADS = (1.0, 4.0, 16.0)

#: Aggregate arrival rate at load 1.0, in invocations per second.
DEFAULT_RATE = 4.0

#: Executor nodes registered with the harvested pool (n0000 hosts clients).
EXECUTORS = ("n0001", "n0002", "n0003", "n0004")


@dataclass(frozen=True)
class AutoscalePoint:
    """Outcome of one (load multiplier, autoscaler mode) scenario."""

    load: float
    mode: str                     # "reactive" | "predictive"
    invocations: int
    completed: int                # served on harvested HPC capacity
    bursts: int                   # served on the cloud overflow
    rejected: int                 # explicit AdmissionRejected backpressure
    warm_start_rate: float        # HPC completions that skipped the cold start
    cold_starts: int              # cold starts paid by invocations (not prewarm)
    prewarms: int                 # containers started ahead of demand
    p50_ms: float
    p99_ms: float
    mean_queue_wait_ms: float
    burst_cost: float
    faults_injected: int

    @property
    def burst_fraction(self) -> float:
        return self.bursts / self.invocations if self.invocations else 0.0


def default_crash_plan(window_s: float) -> FaultPlan:
    """A crash storm: every executor node crashes once, staggered.

    Each crash wipes the node's warm pool and attached containers; the
    node heals and re-registers *empty*, which is exactly where
    predictive re-provisioning pays off — the reactive baseline pays the
    recovered nodes' cold starts in-band on the next spillover.
    """
    heal = max(1.0, window_s / 10.0)
    plan = FaultPlan(name="autoscale-crash")
    for i, node in enumerate(EXECUTORS):
        at = window_s * (0.25 + 0.15 * i)
        plan.node_crash(at_s=at, node=node, duration_s=heal, immediate=True)
    return plan


def _capacity_config(predictive: bool) -> CapacityConfig:
    return CapacityConfig(
        predictive=predictive,
        # Quotas sized so backpressure engages only at the extreme end of
        # the default sweep (per-tenant rate passes 3/s at 16x load).
        admission=AdmissionConfig(
            max_queue_depth=16,
            max_queue_wait_s=0.5,
            quota=TenantQuota(rate_per_s=3.0, burst=6.0),
        ),
    )


def _govern_one(plane, client, tenant: str, function: str,
                payload_bytes: int, results):
    """One governed invocation (module-level so scenarios stay picklable)."""
    result = yield plane.invoke(client, function,
                                payload_bytes=payload_bytes, tenant=tenant)
    results.append(result)


def scenario(params: dict, seed: int) -> dict:
    """One autoscale scenario as a pure function of ``(params, seed)``.

    ``params``: ``platform`` (a :class:`PlatformConfig` whose capacity
    plane is reactive or predictive), ``load``, ``window_s``,
    ``runtime_s``, ``payload_bytes``, ``tenants``, ``base_rate_per_s``,
    ``plan`` (a :class:`FaultPlan` or None).  Returns the
    :class:`AutoscalePoint` as a plain dict.
    """
    load: float = params["load"]
    window_s: float = params["window_s"]
    runtime_s: float = params["runtime_s"]
    payload_bytes: int = params["payload_bytes"]
    tenants: int = params["tenants"]
    base_rate_per_s: float = params["base_rate_per_s"]
    plan: Optional[FaultPlan] = params["plan"]
    platform = Platform.build(params["platform"], seed=seed, faults=plan)
    env = platform.env
    # One executor core per node: the harvested pool (4 slots) is scarce
    # relative to the tenant count, so lease contention — and with it the
    # burst fraction — grows with the load multiplier.
    for node in EXECUTORS:
        platform.register_node(node, cores=1, memory_bytes=8 * GiB)
    # Several functions with distinct images: warmth is per (node, image),
    # so spillover keeps re-exposing cold starts instead of saturating
    # after one touch per node.
    names = []
    for f in range(3):
        image = Image(f"autoscale-img{f}", size_bytes=150 * MiB,
                      runtime_memory_bytes=256 * MiB)
        name = f"fn{f}"
        platform.functions.register(
            name, image, runtime_s=runtime_s,
            demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
            output_bytes=1,
        )
        names.append(name)
    plane = platform.capacity
    clients = [platform.client("n0000", name=f"tenant-{i:02d}")
               for i in range(tenants)]
    results = []

    def submit(i: int) -> None:
        client = clients[i % len(clients)]
        function = names[(i % len(clients)) % len(names)]
        env.process(_govern_one(plane, client, client.name, function,
                                payload_bytes, results), name=f"arrival-{i}")

    # Evenly spaced open-loop arrivals, tenants round-robin (each pinned
    # to one function), whatever each invocation takes.
    rate = base_rate_per_s * load
    open_loop(env, islice(count(env.now, 1.0 / rate), round(rate * window_s)),
              submit)
    # Let the window play out (plus slack for stragglers), then drain.
    platform.run(window_s + 5.0)
    platform.run()
    for client in clients:
        client.close()

    stats = plane.stats()
    assert stats["completed"] + stats["rejected"] + stats["bursts"] \
        == stats["invocations"] == len(results), "an invocation went missing"

    hpc = [r for r in results if r.route == "hpc"]
    served = [r for r in results if r.route in ("hpc", "cloud")]
    warm = sum(1 for r in hpc if r.startup_kind != "cold")
    latencies = [r.latency_s for r in served]
    waits = [r.queue_wait_s for r in served]
    invocation_colds = sum(1 for r in hpc if r.startup_kind == "cold")
    injector = platform.injector
    return asdict(AutoscalePoint(
        load=load,
        mode="predictive" if plane.config.predictive else "reactive",
        invocations=len(results),
        completed=len(hpc),
        bursts=sum(1 for r in results if r.route == "cloud"),
        rejected=sum(1 for r in results if r.route == "rejected"),
        warm_start_rate=round(warm / len(hpc), 6) if hpc else 0.0,
        cold_starts=invocation_colds,
        prewarms=plane.autoscaler.prewarms,
        p50_ms=round(float(np.median(latencies)) * 1e3, 6) if latencies else 0.0,
        p99_ms=round(float(np.percentile(latencies, 99)) * 1e3, 6) if latencies else 0.0,
        mean_queue_wait_ms=round(float(np.mean(waits)) * 1e3, 6) if waits else 0.0,
        burst_cost=round(stats["burst_cost"], 9),
        faults_injected=len(injector.injected) if injector is not None else 0,
    ))


def plan_scenarios(
    loads=DEFAULT_LOADS,
    window_s: float = 20.0,
    seed: int = 0,
    runtime_s: float = 0.15,
    payload_bytes: int = 1024,
    tenants: int = 10,
    base_rate_per_s: float = DEFAULT_RATE,
    crash: bool = True,
    plan: Optional[FaultPlan] = None,
) -> SweepPlan:
    """Fix the canonical scenario order: each load reactive, then
    predictive, all replaying the same schedule (and crash storm).

    ``crash=True`` (default) replays :func:`default_crash_plan` in every
    scenario; pass an explicit ``plan`` to replace it, or ``crash=False``
    for a fault-free sweep.
    """
    window_s = float(window_s)
    runtime_s = float(runtime_s)
    base_rate_per_s = float(base_rate_per_s)
    loads = tuple(float(load) for load in loads)
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if tenants < 1:
        raise ValueError("need at least one tenant")
    if plan is not None and not crash:
        raise ValueError("plan and crash=False are mutually exclusive")
    if plan is None and crash:
        plan = default_crash_plan(window_s)
    scenarios = []
    for load in loads:
        if load <= 0:
            raise ValueError("load multipliers must be positive")
        for predictive in (False, True):
            scenarios.append(ScenarioSpec(
                fn=scenario,
                params={
                    "platform": PlatformConfig(
                        nodes=5, jitter=0.0,
                        capacity=_capacity_config(predictive)),
                    "load": load,
                    "window_s": window_s,
                    "runtime_s": runtime_s,
                    "payload_bytes": payload_bytes,
                    "tenants": tenants,
                    "base_rate_per_s": base_rate_per_s,
                    "plan": plan,
                },
                seed=seed,
                label=f"{load:g}x-{'predictive' if predictive else 'reactive'}",
            ))
    return SweepPlan(scenarios=tuple(scenarios),
                     meta={"window_s": window_s, "seed": seed})


SWEEP = Sweep(
    name="autoscale",
    description="predictive vs reactive warm pools under load",
    plan=plan_scenarios,
    point_type=AutoscalePoint,
    columns=(
        ("load", lambda p: f"{p.load:g}x"),
        ("mode", lambda p: p.mode),
        ("arrivals", lambda p: p.invocations),
        ("hpc", lambda p: p.completed),
        ("cloud", lambda p: p.bursts),
        ("rejected", lambda p: p.rejected),
        ("warm", lambda p: f"{p.warm_start_rate * 100:.1f}%"),
        ("prewarms", lambda p: p.prewarms),
        ("p50 (ms)", lambda p: f"{p.p50_ms:.3f}"),
        ("p99 (ms)", lambda p: f"{p.p99_ms:.3f}"),
        ("burst", lambda p: f"{p.burst_fraction * 100:.1f}%"),
        ("burst cost", lambda p: f"{p.burst_cost:.6f}"),
    ),
    title=("Autoscale sweep — predictive vs reactive warm pools "
           "({window_s:g}s window)"),
    footer=("Every arrival is accounted for: served on harvested HPC cores,"
            " overflowed to the cloud (billed), or explicitly rejected."),
)
