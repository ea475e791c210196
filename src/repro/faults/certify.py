"""Chaos certification: invariants under randomized fault schedules.

The hand-written fault tests of PRs 2–8 each pin one scenario; this
module makes chaos coverage *systematic*.  It has two halves:

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

* **A certification harness** — :func:`certify` runs ``budget`` seeded
  *randomized* schedules drawn over the full fault taxonomy (node
  crashes, lease storms, network faults, stragglers, warm-pool
  pressure, memservice kills, GPU device loss, manager crashes and
  partitions) against a fully loaded platform (replicated control
  plane + durable memory + GPU service + invocation and paging
  streams), then evaluates every invariant on every run.  Same
  ``seed`` + ``budget`` ⇒ identical schedules, identical verdicts.

Exposed as ``repro certify`` on the CLI; CI runs a short budget on
every push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .plan import FaultKind, FaultPlan

__all__ = [
    "CertifyReport",
    "certify",
    "check_conservation",
    "check_epoch_monotonic",
    "check_no_double_grant",
    "check_single_primary",
    "random_plan",
    "run_invariants",
]

MiB = 1024**2
GiB = 1024**3


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
    problems: list[str] = []
    capacity: dict[str, int] = {}
    outstanding: dict[str, int] = {}
    active: dict[int, tuple[str, int]] = {}
    for record in log:
        payload = record.payload
        if record.op == "register":
            node = payload["node"]
            if node in capacity:
                problems.append(
                    f"log[{record.index}]: node {node} registered twice"
                )
            capacity[node] = int(payload["registration"]["cores"])
            outstanding.setdefault(node, 0)
        elif record.op == "remove":
            node = payload["node"]
            capacity.pop(node, None)
            outstanding.pop(node, None)
            for lid in [lid for lid, (n, _) in active.items() if n == node]:
                del active[lid]
        elif record.op == "grant":
            lid = payload["lease_id"]
            node = payload["node"]
            cores = int(payload["cores"])
            if lid in active:
                problems.append(
                    f"log[{record.index}]: lease {lid} granted while already "
                    f"active on {active[lid][0]} (double grant)"
                )
                continue
            if node not in capacity:
                problems.append(
                    f"log[{record.index}]: lease {lid} granted on "
                    f"unregistered node {node}"
                )
                continue
            outstanding[node] = outstanding.get(node, 0) + cores
            active[lid] = (node, cores)
            if outstanding[node] > capacity[node]:
                problems.append(
                    f"log[{record.index}]: node {node} over-committed "
                    f"({outstanding[node]} cores granted > "
                    f"{capacity[node]} registered)"
                )
        elif record.op in ("revoke", "release"):
            entry = active.pop(payload["lease_id"], None)
            if entry is not None:
                node, cores = entry
                if node in outstanding:
                    outstanding[node] -= cores
    return problems


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
    the same plan — the harness's determinism rests on this.  Times land
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


# -- the certification harness -----------------------------------------------

@dataclass
class CertifyReport:
    """Verdict of one certification campaign."""

    budget: int
    seed: int
    standbys: int
    window_s: float
    rows: list[dict] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        out = []
        for row in self.rows:
            for invariant, problems in row["invariants"].items():
                out.extend(
                    f"{row['schedule']}: [{invariant}] {p}" for p in problems
                )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "standbys": self.standbys,
            "window_s": self.window_s,
            "ok": self.ok,
            "rows": self.rows,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_report(self) -> str:
        from ..analysis.tables import render_table

        rows = []
        for row in self.rows:
            bad = sum(len(v) for v in row["invariants"].values())
            rows.append([
                row["schedule"], row["events"], row["injected"],
                row["skipped"], row["invocations"],
                f"{row['completion_ratio'] * 100:.1f}%",
                row["epochs"], "PASS" if bad == 0 else f"{bad} VIOLATION(S)",
            ])
        table = render_table(
            ["schedule", "events", "injected", "skipped", "invocations",
             "completed", "epochs", "verdict"],
            rows,
            title=(f"Chaos certification — {self.budget} randomized "
                   f"schedules, k={self.standbys} standbys"),
        )
        tail = ("all invariants held" if self.ok
                else "\n".join(self.violations))
        return f"{table}\n{tail}"


def _stream(env, client, outcomes, counters, window_s: float):
    """Paced closed-loop invocations; never spins on a dead platform."""
    while env.now < window_s:
        counters["started"] += 1
        detailed = yield client.invoke_detailed("noop", payload_bytes=256)
        outcomes.append(detailed)
        yield env.timeout(0.005)


def _paging_stream(env, pager, window_s: float):
    from ..rfaas.errors import DataLossError, MemoryServiceUnavailable

    page = 0
    while env.now < window_s:
        yield env.timeout(0.05)
        try:
            yield pager.touch(page % pager.total_pages, dirty=(page % 2 == 0))
        except (DataLossError, MemoryServiceUnavailable):
            pass  # durability outcomes are the memdurability sweep's job
        page += 1


def certify(budget: int = 5, seed: int = 0, standbys: int = 1,
            window_s: float = 8.0, events_per_schedule: int = 6,
            heartbeat_interval_s: float = 0.1, suspect_after: int = 3,
            kinds: Optional[Sequence[str]] = None) -> CertifyReport:
    """Run ``budget`` randomized schedules and check every invariant.

    Each schedule gets its own derived rng (``default_rng((seed, i))``)
    and its own platform: replicated manager (``standbys`` standbys),
    durable memory (k=2), GPU service, three invocation streams, and a
    remote-paging stream — so a random schedule always finds a target
    no matter which taxonomy row it draws.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    # Imported here, not at module top: repro.api imports this package.
    from ..api import ClusterSpec, Platform
    from ..containers import Image
    from ..controlplane import HAConfig
    from ..interference import ResourceDemand
    from ..memservice import DurableMemoryConfig, RemotePager
    from .recovery import RetryPolicy

    policy = RetryPolicy(max_attempts=7, backoff_base_s=0.05,
                         backoff_multiplier=2.0, backoff_max_s=1.0)
    report = CertifyReport(budget=budget, seed=seed, standbys=standbys,
                           window_s=window_s)
    for i in range(budget):
        rng = np.random.default_rng((seed, i))
        plan = random_plan(rng, window_s=window_s, events=events_per_schedule,
                           kinds=tuple(kinds) if kinds else FaultKind.ALL,
                           name=f"certify-{i}")
        durable = DurableMemoryConfig(
            size_bytes=24 * MiB, chunk_bytes=8 * MiB, replication=2,
            repair_interval_s=0.5, hosts=("n0001", "n0002", "n0003"),
        )
        platform = Platform.build(
            ClusterSpec(nodes=4, jitter=0.0), seed=seed + i,
            faults=plan, durable_memory=durable, gpu=True,
            ha=HAConfig(standbys=standbys,
                        heartbeat_interval_s=heartbeat_interval_s,
                        suspect_after=suspect_after),
        )
        env = platform.env
        for n in range(1, 4):
            platform.register_node(f"n{n:04d}", cores=4, memory_bytes=8 * GiB)
        image = Image("certify-noop", size_bytes=50 * MiB)
        platform.functions.register(
            "noop", image, runtime_s=0.02,
            demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
            output_bytes=1,
        )
        client = platform.client("n0000", retry_policy=policy)
        outcomes: list = []
        counters = {"started": 0}
        for _ in range(3):
            platform.process(_stream(env, client, outcomes, counters, window_s))
        memory_client = platform.memory_client("n0000", user="certify-pager")
        pager = RemotePager(env, memory_client, page_bytes=2 * MiB,
                            resident_pages=4)
        platform.process(_paging_stream(env, pager, window_s))
        platform.run_until(window_s + 30.0)
        client.close()
        platform.run()

        census: dict[str, int] = {}
        for detailed in outcomes:
            census[detailed.outcome.value] = census.get(detailed.outcome.value, 0) + 1
        completed = sum(1 for d in outcomes if d.ok)
        invariants = run_invariants(platform.ha, counters["started"], census)
        report.rows.append({
            "schedule": plan.name,
            "events": len(plan),
            "injected": len(platform.injector.injected),
            "skipped": len(platform.injector.skipped),
            "invocations": len(outcomes),
            "completed": completed,
            "completion_ratio": (completed / len(outcomes)) if outcomes else 0.0,
            "epochs": platform.ha.epoch,
            "outcomes": dict(sorted(census.items())),
            "invariants": invariants,
        })
    return report
