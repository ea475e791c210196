"""Chaos certification: control-plane invariants under random schedules.

``budget`` seeded random fault schedules (:func:`repro.faults.random_plan`
over the whole taxonomy) each replayed against a fully loaded platform:
a replicated manager with ``standbys`` standbys, durable memory (k=2),
the GPU service, three paced invocation streams and a remote-paging
stream, so a schedule always finds a target whatever taxonomy row it
draws.  Every run is then audited by :func:`repro.faults.run_invariants`
over its fenced commit log, election history and outcome census: no
silent drops, no double grants, one primary per epoch, monotone epochs.

Expected shape: every row PASS.  Zero standbys may lose work to a
manager crash, but the loss is *accounted* (conservation holds).

Sweep protocol: every schedule is drawn in the parent by
:func:`plan_scenarios` from ``default_rng((seed, i))``, and scenario
``i`` runs on seed ``seed + i``, so the same ``seed`` and ``budget``
give identical schedules and verdicts at any ``--jobs`` count.
Registered as the ``certify`` sweep; ``repro certify`` runs it and
exits 1 on any violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..api import Platform, PlatformConfig
from ..controlplane import HAConfig
from ..faults import FaultKind, FaultPlan, random_plan, run_invariants
from ..gpuservice import GpuServiceConfig
from .base import ScenarioSpec, Sweep, SweepPlan
from .chaos_sweep import PAGED_MEMORY, noop_client, noop_streams, start_pager
from .manager_failover_sweep import PACE_S, SWEEP_POLICY

__all__ = ["CertifyPoint", "scenario", "plan_scenarios", "SWEEP"]


@dataclass(frozen=True)
class CertifyPoint:
    """Verdict of one randomized schedule."""

    schedule: str
    events: int
    injected: int
    skipped: int
    invocations: int
    completed: int
    completion_ratio: float
    epochs: int
    outcomes: Dict[str, int]
    invariants: Dict[str, List[str]]

    @property
    def violations(self) -> List[str]:
        return [f"{self.schedule}: [{invariant}] {problem}"
                for invariant, problems in self.invariants.items()
                for problem in problems]


def scenario(params: dict, seed: int) -> dict:
    """One schedule as a pure function of ``(params, seed)``."""
    plan: FaultPlan = params["plan"]
    window_s: float = params["window_s"]
    platform = Platform.build(params["platform"], seed=seed, faults=plan)
    client = noop_client(platform, "certify-noop", 0.02, SWEEP_POLICY)
    outcomes, started = noop_streams(platform, client, 3, window_s,
                                     payload_bytes=256, pause_s=PACE_S)
    start_pager(platform, "certify-pager", window_s)
    platform.run(window_s + 30.0)
    client.close()
    platform.run()

    census = Counter(d.outcome.value for d in outcomes)
    completed = sum(1 for d in outcomes if d.ok)
    return asdict(CertifyPoint(
        schedule=plan.name,
        events=len(plan),
        injected=len(platform.injector.injected),
        skipped=len(platform.injector.skipped),
        invocations=len(outcomes),
        completed=completed,
        completion_ratio=completed / len(outcomes) if outcomes else 0.0,
        epochs=platform.ha.epoch,
        outcomes=dict(sorted(census.items())),
        invariants=run_invariants(platform.ha, started[0], census),
    ))


def plan_scenarios(
    budget: int = 5,
    seed: int = 0,
    standbys: int = 1,
    window_s: float = 8.0,
    events: int = 6,
    heartbeat_interval_s: float = 0.1,
    suspect_after: int = 3,
    kinds: Optional[Sequence[str]] = None,
) -> SweepPlan:
    """Draw ``budget`` schedules of ``events`` faults each over ``kinds``
    (default: the whole taxonomy)."""
    window_s = float(window_s)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if events < 1:
        raise ValueError("events must be >= 1")
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    kinds = FaultKind.ALL if kinds is None else tuple(kinds)
    if not kinds:
        raise ValueError("kinds must name at least one fault kind")
    config = PlatformConfig(
        nodes=4, jitter=0.0, durable_memory=PAGED_MEMORY,
        gpu=GpuServiceConfig(),
        ha=HAConfig(standbys=standbys,
                    heartbeat_interval_s=float(heartbeat_interval_s),
                    suspect_after=suspect_after),
    )
    plans = [random_plan(np.random.default_rng((seed, i)), window_s=window_s,
                         events=events, kinds=kinds, name=f"certify-{i}")
             for i in range(budget)]
    return SweepPlan(
        scenarios=tuple(
            ScenarioSpec(fn=scenario,
                         params={"platform": config, "plan": plan,
                                 "window_s": window_s},
                         seed=seed + i, label=plan.name)
            for i, plan in enumerate(plans)
        ),
        meta={"budget": budget, "seed": seed, "standbys": standbys,
              "window_s": window_s},
    )


SWEEP = Sweep(
    name="certify",
    description="control-plane invariants under randomized fault schedules",
    plan=plan_scenarios,
    point_type=CertifyPoint,
    columns=(
        ("schedule", lambda p: p.schedule),
        ("events", lambda p: p.events),
        ("injected", lambda p: p.injected),
        ("skipped", lambda p: p.skipped),
        ("invocations", lambda p: p.invocations),
        ("completed", lambda p: f"{p.completion_ratio * 100:.1f}%"),
        ("epochs", lambda p: p.epochs),
        ("verdict", lambda p: (f"{len(p.violations)} VIOLATION(S)"
                               if p.violations else "PASS")),
    ),
    title=("Chaos certification — {budget} randomized schedules, "
           "k={standbys} standbys"),
    footer=("Work may be lost, but never silently: every schedule must hold"
            " every invariant."),
)
