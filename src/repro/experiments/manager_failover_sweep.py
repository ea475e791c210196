"""Control-plane HA experiment: surviving the resource manager's death.

The same fault storm — a lease storm landing at the very instant the
primary :class:`~repro.rfaas.ResourceManager` crashes, a second storm
during a primary *partition*, and an executor-node crash for good
measure — replayed against control planes with 0, 1, and 2 standby
replicas (``repro.controlplane``).  Clients run under a
:class:`~repro.faults.RetryPolicy`, so a dead manager costs backoff
latency, not failures — *if* a standby exists to take over.

Expected shape: with ``k = 0`` the crash erases all lease state and the
restarted (empty) primary rejects the storm — completion collapses.
With ``k >= 1`` the failure detector promotes a standby within 2–3
heartbeat timeouts, the fenced ex-primary cannot grant after the
partition heals, and completion recovers to >= 99 % at a tail-latency
cost.  Every scenario also replays the chaos-certification invariants
(:mod:`repro.faults.certify`) over the fenced commit log: no double
grants, one primary per epoch, monotone epochs, no silent drops.

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)``; registered as the ``manager_failover`` sweep, so
``repro sweep manager_failover --jobs N`` is byte-identical at any jobs
count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from ..api import Platform, PlatformConfig
from ..controlplane import HAConfig
from ..faults import FaultPlan, RecoveryOutcome, RetryPolicy, run_invariants
from .base import ScenarioSpec, Sweep, SweepPlan
from .chaos_sweep import noop_client, noop_streams

__all__ = [
    "FailoverPoint",
    "default_plan",
    "scenario",
    "plan_scenarios",
    "SWEEP",
]

#: Standby counts swept by default: the k=0 strawman, the paper-shaped
#: single standby, and a belt-and-braces pair.
DEFAULT_STANDBYS = (0, 1, 2)

#: Deep attempt budget: a manager outage costs several backoff rounds.
SWEEP_POLICY = RetryPolicy(
    max_attempts=7, backoff_base_s=0.05, backoff_multiplier=2.0, backoff_max_s=1.0,
)

#: Pause between a stream's invocations.  After a k=0 wipe every lease
#: attempt is rejected *instantly*, and an unpaced stream would spin
#: forever in real time.  Rejected attempts stay in the outcomes, so the
#: k=0 row shows the lost work.
PACE_S = 0.005


@dataclass(frozen=True)
class FailoverPoint:
    """Outcome of one scenario (one standby count)."""

    label: str
    standbys: int
    invocations: int
    completed: int
    p50_ms: float
    p99_ms: float
    manager_down_retries: int
    failovers: int
    epochs: int
    fenced_grants: int
    orphaned_leases: int
    recovered: int
    rejected: int
    invariants_ok: bool

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.invocations if self.invocations else 0.0


def default_plan(window_s: float) -> FaultPlan:
    """The canonical storm: clients must re-lease *into* each outage.

    A client holding a valid lease never talks to the manager, so each
    manager fault is paired with a lease storm at the *same* timestamp
    (ties keep plan order: storm first, then the fault) — the revoked
    clients then hit a dead/partitioned control plane and exercise the
    typed :class:`~repro.rfaas.ManagerUnavailableError` retry path.
    """
    return (FaultPlan(name="managerha")
            .lease_storm(at_s=0.2 * window_s, count=8)
            .manager_crash(at_s=0.2 * window_s, duration_s=0.25 * window_s)
            .lease_storm(at_s=0.55 * window_s, count=8)
            .manager_partition(at_s=0.55 * window_s, duration_s=0.12 * window_s)
            .node_crash(at_s=0.8 * window_s, duration_s=0.1 * window_s,
                        immediate=True))


def scenario(params: dict, seed: int) -> dict:
    """One standby count as a pure function of ``(params, seed)``.

    ``params["platform"]`` is the replicated :class:`PlatformConfig`.
    """
    window_s: float = params["window_s"]
    runtime_s: float = params["runtime_s"]
    payload_bytes: int = params["payload_bytes"]
    streams: int = params["streams"]
    platform = Platform.build(params["platform"], seed=seed,
                              faults=default_plan(window_s))
    standbys = platform.config.ha.standbys
    client = noop_client(platform, "managerha-noop", runtime_s, SWEEP_POLICY)
    outcomes, started = noop_streams(platform, client, streams, window_s,
                                     payload_bytes, pause_s=PACE_S)
    platform.run(window_s + 30.0)
    client.close()
    platform.run()

    ha = platform.ha
    census = Counter(d.outcome.value for d in outcomes)
    invariants_ok = not any(run_invariants(ha, started[0], census).values())
    latencies = [d.elapsed_s for d in outcomes if d.ok]
    p50 = float(np.median(latencies)) if latencies else float("nan")
    p99 = float(np.percentile(latencies, 99)) if latencies else float("nan")
    return asdict(FailoverPoint(
        label=f"k={standbys}",
        standbys=standbys,
        invocations=len(outcomes),
        completed=sum(1 for d in outcomes if d.ok),
        p50_ms=p50 * 1e3,
        p99_ms=p99 * 1e3,
        manager_down_retries=client.retries.get("manager_down", 0),
        failovers=ha.failovers,
        epochs=ha.epoch,
        fenced_grants=ha.fenced_grants,
        orphaned_leases=ha.orphaned_leases,
        recovered=sum(1 for d in outcomes
                      if d.outcome is RecoveryOutcome.RECOVERED),
        rejected=sum(1 for d in outcomes
                     if d.outcome is RecoveryOutcome.REJECTED),
        invariants_ok=invariants_ok,
    ))


def plan_scenarios(
    standbys=DEFAULT_STANDBYS,
    window_s: float = 20.0,
    seed: int = 0,
    runtime_s: float = 0.02,
    payload_bytes: int = 1024,
    streams: int = 3,
    heartbeat_interval_s: float = 0.1,
    suspect_after: int = 3,
) -> SweepPlan:
    """Fix the canonical scenario order: one scenario per standby count."""
    window_s = float(window_s)
    runtime_s = float(runtime_s)
    heartbeat_interval_s = float(heartbeat_interval_s)
    standbys = tuple(int(k) for k in standbys)
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if any(k < 0 for k in standbys):
        raise ValueError("standby counts must be >= 0")
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={
                "platform": PlatformConfig(nodes=4, ha=HAConfig(
                    standbys=k, heartbeat_interval_s=heartbeat_interval_s,
                    suspect_after=suspect_after,
                )),
                "window_s": window_s,
                "runtime_s": runtime_s,
                "payload_bytes": payload_bytes,
                "streams": streams,
            },
            seed=seed,
            label=f"k={k}",
        )
        for k in standbys
    )
    return SweepPlan(scenarios=scenarios,
                     meta={"window_s": window_s, "seed": seed})


SWEEP = Sweep(
    name="manager_failover",
    description="completion through manager crash/partition, by standby count",
    plan=plan_scenarios,
    point_type=FailoverPoint,
    columns=(
        ("standbys", lambda p: p.label),
        ("invocations", lambda p: p.invocations),
        ("completed", lambda p: f"{p.completion_ratio * 100:.1f}%"),
        ("p50 (ms)", lambda p: f"{p.p50_ms:.3f}"),
        ("p99 (ms)", lambda p: f"{p.p99_ms:.3f}"),
        ("mgr retries", lambda p: p.manager_down_retries),
        ("failovers", lambda p: p.failovers),
        ("epochs", lambda p: p.epochs),
        ("fenced", lambda p: p.fenced_grants),
        ("orphaned", lambda p: p.orphaned_leases),
        ("invariants", lambda p: "PASS" if p.invariants_ok else "FAIL"),
    ),
    title=("Manager failover — lease storms through primary "
           "crash + partition ({window_s:g}s window)"),
    footer=("With zero standbys the crash orphans every lease; one standby"
            " turns the outage into tail latency."),
)
