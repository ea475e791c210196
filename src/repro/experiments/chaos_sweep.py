"""Chaos experiment: invocation latency under increasing fault rates.

The fig07 workload (noop invocations against hot executors) replayed
while a :class:`~repro.faults.Injector` crashes nodes, revokes leases,
degrades the interconnect, plants stragglers, and evicts warm
containers.  The client runs under a :class:`~repro.faults.RetryPolicy`
with backoff, so faults cost latency rather than failures; the report
shows, per fault rate, the completion ratio, latency percentiles, and
the recovery overhead: faults from the injector's log, retries from the
client's per-reason count, and mean recovery time from the recovered
outcomes.

Expected shape: completion stays >= 95 % across the default sweep —
the point of the paper's ephemeral-resource design is that reclamation
is routine, not fatal — while tail latency grows with the fault rate as
more invocations pay redirect + backoff.

Fully deterministic: the same ``seed`` (and plan) replays the identical
fault schedule, victims, and recovery trace — the JSON and span stream
are pinned byte-for-byte in ``tests/integration/test_sweep_goldens.py``.

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)`` so scenarios cross the process-pool boundary of
:func:`repro.sweep.run_sweep`; :func:`plan_scenarios` and the report
columns are registered as the ``chaos`` sweep (``repro sweep chaos``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..api import Platform, PlatformConfig
from ..containers import Image
from ..faults import FaultPlan, RecoveryOutcome, RetryPolicy
from ..interference import ResourceDemand
from ..loadgen import closed_loop
from ..memservice import DurableMemoryConfig, RemotePager
from ..rfaas.errors import DataLossError, MemoryServiceUnavailable
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = [
    "ChaosPoint",
    "default_plan",
    "scenario",
    "plan_scenarios",
    "SWEEP",
]

MiB = 1024**2
GiB = 1024**3

#: Fault events per simulated minute, the sweep's x-axis.
DEFAULT_RATES = (0.0, 4.0, 8.0, 16.0)

#: Client policy used by the sweep: a deeper budget than the default
#: plus a short backoff, so storms do not exhaust attempts instantly.
SWEEP_POLICY = RetryPolicy(
    max_attempts=6, backoff_base_s=0.05, backoff_multiplier=2.0, backoff_max_s=1.0,
)

#: A small k=2 buffer across the executor nodes, for a paging stream
#: (:func:`start_pager`): the same crash storm then also destroys chunk
#: replicas, exercising migration, repair, and read failover alongside
#: invocation recovery.
PAGED_MEMORY = DurableMemoryConfig(
    size_bytes=24 * MiB, chunk_bytes=8 * MiB, replication=2,
    repair_interval_s=0.5, hosts=("n0001", "n0002", "n0003"),
)


@dataclass(frozen=True)
class ChaosPoint:
    """Outcome of one scenario (one fault rate, or one explicit plan)."""

    label: str
    faults_injected: int
    invocations: int
    completed: int
    p50_ms: float
    p95_ms: float
    retries: int
    recovered: int
    gave_up: int
    rejected: int
    timed_out: int
    mean_recovery_ms: float

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.invocations if self.invocations else 0.0


def default_plan(rate: float, window_s: float) -> FaultPlan:
    """A deterministic plan with ``rate`` faults per simulated minute.

    Events cycle through the whole taxonomy and are spaced evenly
    across the window; crashes heal before the next one lands, so the
    pool never collapses entirely (reclamation is routine, not an
    outage).
    """
    plan = FaultPlan(name=f"rate-{rate:g}")
    count = int(round(rate * window_s / 60.0))
    for i in range(count):
        at = (i + 1) * window_s / (count + 1)
        kind = i % 5
        if kind == 0:
            plan.lease_storm(at_s=at, count=2)
        elif kind == 1:
            plan.node_crash(at_s=at, duration_s=min(3.0, window_s / (2 * count)),
                            immediate=True)
        elif kind == 2:
            plan.network_degrade(at_s=at, duration_s=1.0, latency_factor=5.0,
                                 bandwidth_factor=0.5, drop_rate=0.02)
        elif kind == 3:
            plan.straggler(at_s=at, duration_s=2.0, multiplier=20.0)
        else:
            plan.warmpool_pressure(at_s=at, fraction=0.5)
    return plan


def _paging_stream(env, pager, window_s: float):
    """A background remote-paging loop riding the same fault storm."""
    page = 0
    while env.now < window_s:
        yield env.timeout(0.05)
        try:
            yield pager.touch(page % pager.total_pages,
                              dirty=(page % 2 == 0))
        except (DataLossError, MemoryServiceUnavailable):
            pass  # durability outcomes are the memdurability sweep's job
        page += 1


def start_pager(platform, user: str, window_s: float) -> None:
    """Page through :data:`PAGED_MEMORY` from n0000 until the window ends."""
    pager = RemotePager(platform.env, platform.memory_client("n0000", user=user),
                        page_bytes=2 * MiB, resident_pages=4)
    platform.process(_paging_stream(platform.env, pager, window_s))


def noop_client(platform, image: str, runtime_s: float, policy: RetryPolicy):
    """Register executors n0001–n0003 and the noop function; n0000's client.

    Each sweep passes its own ``image`` name: image names appear in the
    pinned span streams.
    """
    for i in range(1, 4):
        platform.register_node(f"n{i:04d}", cores=4, memory_bytes=8 * GiB)
    platform.functions.register(
        "noop", Image(image, size_bytes=50 * MiB), runtime_s=runtime_s,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    return platform.client("n0000", retry_policy=policy)


def noop_streams(platform, client, streams: int, window_s: float,
                 payload_bytes: int, pause_s: float = 0.0):
    """Closed-loop noop invocation streams until the window ends, with
    ``pause_s`` between a stream's calls; returns the outcomes and
    ``[calls started]``, which feeds the conservation invariant."""
    outcomes, started = [], [0]

    def call():
        started[0] += 1
        return client.invoke_detailed("noop", payload_bytes=payload_bytes)

    for _ in range(streams):
        closed_loop(platform.env, call, outcomes.append, window_s, pause_s)
    return outcomes, started


def scenario(params: dict, seed: int) -> dict:
    """One chaos scenario as a pure function of ``(params, seed)``.

    ``params``: ``platform`` (a :class:`PlatformConfig`), ``plan`` (a
    :class:`FaultPlan`), ``window_s``, ``runtime_s``, ``payload_bytes``,
    ``streams``.  A platform with durable memory also pages through it.
    Returns the :class:`ChaosPoint` as a plain dict, ready to cross a
    process boundary.
    """
    plan: FaultPlan = params["plan"]
    window_s: float = params["window_s"]
    runtime_s: float = params["runtime_s"]
    payload_bytes: int = params["payload_bytes"]
    streams: int = params["streams"]
    platform = Platform.build(params["platform"], seed=seed, faults=plan)
    client = noop_client(platform, "chaos-noop", runtime_s, SWEEP_POLICY)
    outcomes, _ = noop_streams(platform, client, streams, window_s,
                               payload_bytes)
    if platform.durable_memory is not None:
        start_pager(platform, "chaos-pager", window_s)
    platform.run(window_s + 30.0)
    platform.run()

    latencies = [d.elapsed_s for d in outcomes if d.ok]
    p50 = float(np.median(latencies)) if latencies else float("nan")
    p95 = float(np.percentile(latencies, 95)) if latencies else float("nan")
    # Added left to right in finish order, as the recovery histogram
    # observes them, so the mean is bit-identical to its mean() (the
    # builtin sum() compensates rounding from Python 3.12 on).
    recovery_total = 0.0
    recoveries = 0
    for d in outcomes:
        if d.outcome is RecoveryOutcome.RECOVERED:
            recovery_total += d.recovery_s
            recoveries += 1
    injector = platform.injector
    return asdict(ChaosPoint(
        label=plan.name,
        faults_injected=len(injector.injected) if injector is not None else 0,
        invocations=len(outcomes),
        completed=sum(1 for d in outcomes if d.ok),
        p50_ms=p50 * 1e3,
        p95_ms=p95 * 1e3,
        retries=sum(client.retries.values()),
        recovered=recoveries,
        gave_up=sum(1 for d in outcomes if d.outcome is RecoveryOutcome.GAVE_UP),
        rejected=sum(1 for d in outcomes if d.outcome is RecoveryOutcome.REJECTED),
        timed_out=sum(1 for d in outcomes if d.outcome is RecoveryOutcome.TIMED_OUT),
        mean_recovery_ms=(recovery_total / recoveries * 1e3 if recoveries
                          else 0.0),
    ))


def plan_scenarios(
    rates=None,
    window_s: float = 30.0,
    seed: int = 0,
    runtime_s: float = 0.02,
    payload_bytes: int = 1024,
    streams: int = 2,
    plan: Optional[FaultPlan] = None,
    memservice: bool = False,
) -> SweepPlan:
    """Fix the canonical scenario order (and each scenario's seed).

    One scenario per fault rate (default :data:`DEFAULT_RATES`), or a
    single one replaying ``plan``.  ``memservice=True`` co-runs a
    remote-paging stream on a replicated (k=2) memory service, so the
    same storms also hit durable-memory chunks.
    """
    window_s = float(window_s)
    runtime_s = float(runtime_s)
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if plan is not None:
        if rates is not None:
            raise ValueError("rates and plan are mutually exclusive")
        plans = [plan]
    else:
        rates = DEFAULT_RATES if rates is None else rates
        plans = [default_plan(float(rate), window_s) for rate in rates]
    config = PlatformConfig(nodes=4,
                            durable_memory=PAGED_MEMORY if memservice else None)
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={
                "platform": config,
                "plan": scenario_plan,
                "window_s": window_s,
                "runtime_s": runtime_s,
                "payload_bytes": payload_bytes,
                "streams": streams,
            },
            seed=seed,
            label=scenario_plan.name,
        )
        for scenario_plan in plans
    )
    return SweepPlan(scenarios=scenarios,
                     meta={"window_s": window_s, "seed": seed})


SWEEP = Sweep(
    name="chaos",
    description="invocation latency under injected faults",
    plan=plan_scenarios,
    point_type=ChaosPoint,
    columns=(
        ("plan", lambda p: p.label),
        ("faults", lambda p: p.faults_injected),
        ("invocations", lambda p: p.invocations),
        ("completed", lambda p: f"{p.completion_ratio * 100:.1f}%"),
        ("p50 (ms)", lambda p: f"{p.p50_ms:.3f}"),
        ("p95 (ms)", lambda p: f"{p.p95_ms:.3f}"),
        ("retries", lambda p: p.retries),
        ("recovered", lambda p: p.recovered),
        ("failed", lambda p: p.gave_up + p.rejected + p.timed_out),
        ("recovery (ms)", lambda p: f"{p.mean_recovery_ms:.3f}"),
    ),
    title="Chaos sweep — noop latency under faults ({window_s:g}s window)",
    footer=("Reclamation is routine, not fatal: retries keep completion high"
            " while faults tax the tail."),
)
