"""Chaos certification: invariants under randomized fault schedules.

Hand-written fault tests each pin one scenario; this module makes chaos
coverage *systematic*.  It has two halves:

* **Invariant checkers** — pure functions over the evidence a run
  leaves behind (the control plane's fenced commit log, its election
  history, the client-side outcome census).  Each returns a list of
  human-readable violations, empty when the invariant held:

  - :func:`check_conservation` — *no silent drops*: every invocation
    that started concluded with exactly one recovery outcome;
  - :func:`check_no_double_grant` — replaying the commit log never
    grants the same lease id twice nor over-commits a node's
    registered cores;
  - :func:`check_single_primary` — epochs elect at most one leader
    each, epochs only move forward, and at most one replica ends the
    run as primary;
  - :func:`check_epoch_monotonic` — the fenced log's epoch stamps are
    non-decreasing in commit order (a stale-epoch write that slipped
    the fence would show up here).

* **Randomized schedules** — :func:`random_plan` draws a seeded fault
  schedule over the full taxonomy (node crashes, lease storms, network
  faults, stragglers, warm-pool pressure, memservice kills, GPU device
  loss, manager crashes and partitions).  Same generator state ⇒ same
  plan.

The ``certify`` sweep (:mod:`repro.experiments.certify_sweep`, ``repro
certify`` on the CLI) runs a budget of such schedules against a fully
loaded platform and evaluates :func:`run_invariants` on every run; CI
runs a short budget on every push.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .plan import FaultKind, FaultPlan

__all__ = [
    "check_conservation",
    "check_epoch_monotonic",
    "check_no_double_grant",
    "check_single_primary",
    "random_plan",
    "run_invariants",
]


# -- invariant checkers (pure functions over run evidence) -------------------

def check_conservation(started: int, outcomes: Mapping[str, int]) -> list[str]:
    """No silent drops: every started invocation concluded exactly once."""
    concluded = sum(outcomes.values())
    if concluded != started:
        return [
            f"conservation: {started} invocations started but {concluded} "
            f"concluded ({dict(sorted(outcomes.items()))})"
        ]
    return []


def check_no_double_grant(log: Sequence) -> list[str]:
    """Replay the fenced commit log; no lease id may be granted twice and
    no node may hold more granted cores than it registered."""
    # Imported here: repro.rfaas.client imports this package.
    from ..controlplane.replica import replay

    return replay(log).problems


def check_single_primary(elections: Sequence, replicas: Iterable = ()) -> list[str]:
    """Every epoch has exactly one winner and epochs only move forward."""
    problems: list[str] = []
    seen: dict[int, int] = {}
    last_epoch = 0
    for election in elections:
        if election.epoch in seen:
            problems.append(
                f"epoch {election.epoch} elected twice "
                f"(rm-{seen[election.epoch]} and rm-{election.rank})"
            )
        seen[election.epoch] = election.rank
        if election.epoch <= last_epoch:
            problems.append(
                f"election for epoch {election.epoch} did not advance past "
                f"{last_epoch}"
            )
        last_epoch = max(last_epoch, election.epoch)
    primaries = [r for r in replicas if getattr(r.role, "value", None) == "primary"]
    if len(primaries) > 1:
        problems.append(
            "split brain: "
            + " and ".join(r.name for r in primaries)
            + " both ended the run as primary"
        )
    return problems


def check_epoch_monotonic(log: Sequence) -> list[str]:
    """Commit-log epoch stamps never go backwards."""
    problems: list[str] = []
    last = 0
    for record in log:
        if record.epoch < last:
            problems.append(
                f"log[{record.index}]: epoch went backwards "
                f"({last} -> {record.epoch}, op {record.op})"
            )
        last = max(last, record.epoch)
    return problems


def run_invariants(controlplane, started: int,
                   outcomes: Mapping[str, int]) -> dict[str, list[str]]:
    """Evaluate every invariant against one finished run's evidence."""
    return {
        "conservation": check_conservation(started, outcomes),
        "no_double_grant": check_no_double_grant(controlplane.commit_log),
        "single_primary": check_single_primary(controlplane.elections,
                                               controlplane.replicas),
        "epoch_monotonic": check_epoch_monotonic(controlplane.commit_log),
    }


# -- randomized schedules ----------------------------------------------------

def random_plan(rng: np.random.Generator, window_s: float = 8.0,
                events: int = 6, kinds: Sequence[str] = FaultKind.ALL,
                name: str = "certify") -> FaultPlan:
    """A seeded random fault schedule over (by default) the full taxonomy.

    Every draw comes from ``rng``, so the same generator state produces
    the same plan — the ``certify`` sweep's determinism rests on this.  Times land
    in the first ~85 % of the window (late faults would outlive the
    measurement), durations heal within the window's slack.
    """
    plan = FaultPlan(name=name)
    for _ in range(events):
        kind = kinds[int(rng.integers(len(kinds)))]
        at_s = float(rng.uniform(0.1, 0.85)) * window_s
        duration = float(rng.uniform(0.1, 0.3)) * window_s
        if kind == FaultKind.NODE_CRASH:
            plan.node_crash(at_s=at_s, duration_s=duration,
                            immediate=bool(rng.integers(2)))
        elif kind == FaultKind.LEASE_STORM:
            plan.lease_storm(at_s=at_s, count=1 + int(rng.integers(6)))
        elif kind == FaultKind.NETWORK_DEGRADE:
            plan.network_degrade(
                at_s=at_s, duration_s=duration,
                latency_factor=float(rng.uniform(2.0, 10.0)),
                bandwidth_factor=float(rng.uniform(0.25, 1.0)),
                drop_rate=float(rng.uniform(0.0, 0.05)),
            )
        elif kind == FaultKind.NETWORK_PARTITION:
            plan.network_partition(at_s=at_s, duration_s=duration)
        elif kind == FaultKind.STRAGGLER:
            plan.straggler(at_s=at_s, duration_s=duration,
                           multiplier=float(rng.uniform(5.0, 30.0)))
        elif kind == FaultKind.WARMPOOL_PRESSURE:
            plan.warmpool_pressure(at_s=at_s,
                                   fraction=float(rng.uniform(0.25, 1.0)))
        elif kind == FaultKind.MEMSERVICE_KILL:
            plan.memservice_kill(at_s=at_s)
        elif kind == FaultKind.GPU_DEVICE_LOSS:
            plan.gpu_device_loss(at_s=at_s, duration_s=duration)
        elif kind == FaultKind.MANAGER_CRASH:
            plan.manager_crash(at_s=at_s, duration_s=duration)
        elif kind == FaultKind.MANAGER_PARTITION:
            plan.manager_partition(at_s=at_s, duration_s=duration)
        else:  # pragma: no cover - taxonomy drift guard
            raise ValueError(f"random_plan cannot draw kind {kind!r}")
    return plan
