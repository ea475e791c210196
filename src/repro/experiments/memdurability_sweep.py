"""Memory-durability experiment: remote paging through a crash+drain storm.

The paper's remote-paging use case (Sec. III-C) runs on memory-service
buffers in *ephemeral* node memory — exactly the memory a batch system
reclaims and a node crash destroys.  This sweep quantifies what the
durability layer buys: the same seeded paging workload replays against
:class:`~repro.memservice.ReplicatedMemoryService` instances with
replication factors ``k = 1, 2, 3`` while one fault storm crashes a
hosting node (immediate), reclaims another gracefully (drain-triggered
live migration), kills a third host's replicas outright
(``memservice_kill``), and partitions a fourth off the fabric.

Expected shape — the PR's acceptance bar:

* ``k = 1`` reproduces the seed service's behaviour: replicas destroyed
  by the crash and the kill are simply *gone*, so a slice of pager
  accesses surfaces :class:`~repro.rfaas.errors.DataLossError`.
* ``k >= 2`` completes >= 99 % of accesses with **zero** data loss:
  reads fail over to surviving replicas under checksum/epoch
  verification, migration moves chunks off the drained node before its
  memory disappears, and the repair loop restores the replication
  factor after each hit.  Transient unavailability (a partitioned
  replica set mid-write) is retried with a fixed backoff.

Determinism: the access trace is re-derived from ``seed + 17`` inside
every scenario (each replication factor sees the *identical* trace), the
storm is an explicit plan, the network runs with ``jitter=0.0``, and the
service itself draws no randomness — ``result.to_json()`` is
byte-identical across fresh interpreters for one seed (asserted by
``tests/memservice/test_memdurability_determinism.py``).

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)``; :func:`plan_scenarios` and the report columns are
registered as the ``memdurability`` sweep (``repro sweep memdurability
--jobs N`` fans scenarios out).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..api import ClusterSpec, Platform
from ..faults import FaultPlan
from ..memservice import DurableMemoryConfig, RemotePager
from ..rfaas.errors import DataLossError, MemoryServiceUnavailable
from .base import ScenarioSpec, Sweep, SweepPlan, register_sweep

__all__ = [
    "MemDurabilityPoint",
    "default_storm",
    "scenario",
    "plan_scenarios",
    "SWEEP",
]

MiB = 1024**2
GiB = 1024**3

#: Replication factors swept (k=1 is the undurable seed service).
DEFAULT_FACTORS = (1, 2, 3)

#: Nodes hosting chunk replicas (n0000 stays the pager's client node).
HOSTS = ("n0001", "n0002", "n0003", "n0004", "n0005")

#: Retries per access on transient unavailability (partition windows).
ACCESS_RETRIES = 8
RETRY_BACKOFF_S = 0.25


@dataclass(frozen=True)
class MemDurabilityPoint:
    """Outcome of one replication factor under the storm."""

    label: str
    replication: int
    accesses: int
    completed: int
    completion_ratio: float
    data_loss_accesses: int
    retried_accesses: int
    failovers: int
    checksum_failures: int
    stale_reads_averted: int
    degraded_writes: int
    replicas_lost: int
    migrations: int
    repairs: int
    resyncs: int
    moved_mib: float
    faults_injected: int


def default_storm(window_s: float) -> FaultPlan:
    """The crash+drain storm every replication factor replays.

    Explicit victims (stable across factors): one immediate crash of
    ``n0001`` — the group-interleaved layout puts chunk replicas there
    for every factor, so the crash always destroys data — one fabric
    partition (transient unavailability: write fencing, read failover,
    access retries; no data destroyed), one graceful reclaim (the drain
    path — migration runs before memory disappears), and one
    ``memservice_kill`` with a seeded victim.
    """
    return (
        FaultPlan(name="memdurability-storm")
        .node_crash(at_s=0.15 * window_s, node="n0001", immediate=True,
                    duration_s=0.2 * window_s)
        .network_partition(at_s=0.35 * window_s, duration_s=0.08 * window_s,
                           node="n0004")
        .node_crash(at_s=0.55 * window_s, node="n0003", immediate=False,
                    duration_s=0.2 * window_s)
        .memservice_kill(at_s=0.75 * window_s)
    )


def _access_trace(seed: int, accesses: int, size_bytes: int):
    """The pre-generated paging trace (pages, dirty flags).

    Derived from ``seed + 17`` so it is *independent* of the per-factor
    scenario and identical for every replication factor: the workloads
    are the same, only the durability layer differs.
    """
    trace_rng = np.random.default_rng(seed + 17)
    total_pages = size_bytes // (2 * MiB)
    pages = trace_rng.integers(0, total_pages, size=accesses)
    dirty = trace_rng.random(accesses) < 0.5
    return pages, dirty


def _paging_workload(env, pager, pages, dirty, gap: float, counters: dict):
    """Replay the access trace with fixed-backoff retries.

    Module-level (not a ``scenario``-local closure) so scenario
    functions stay picklable; tallies land in ``counters``.
    """
    for i in range(len(pages)):
        yield env.timeout(gap)
        attempt = 0
        while True:
            try:
                yield pager.touch(int(pages[i]), dirty=bool(dirty[i]))
                counters["completed"] += 1
                break
            except DataLossError:
                counters["losses"] += 1
                break
            except MemoryServiceUnavailable:
                attempt += 1
                if attempt > ACCESS_RETRIES:
                    break
                counters["retried"] += 1
                yield env.timeout(RETRY_BACKOFF_S)


def scenario(params: dict, seed: int) -> dict:
    """One durability scenario as a pure function of ``(params, seed)``.

    ``params``: ``replication``, ``window_s``, ``accesses``,
    ``size_bytes``, ``chunk_bytes``.  Returns the
    :class:`MemDurabilityPoint` as a plain dict.
    """
    replication: int = params["replication"]
    window_s: float = params["window_s"]
    accesses: int = params["accesses"]
    size_bytes: int = params["size_bytes"]
    chunk_bytes: int = params["chunk_bytes"]
    pages, dirty = _access_trace(seed, accesses, size_bytes)
    config = DurableMemoryConfig(
        size_bytes=size_bytes, chunk_bytes=chunk_bytes,
        replication=replication, repair_interval_s=0.25, hosts=HOSTS,
    )
    platform = Platform.build(
        ClusterSpec(nodes=6, jitter=0.0), seed=seed,
        faults=default_storm(window_s), durable_memory=config,
    )
    env = platform.env
    # Register the hosts as executors too, so node_crash events find
    # victims and the graceful reclaim exercises the drain-migration path.
    for name in HOSTS:
        platform.register_node(name, cores=2, memory_bytes=4 * GiB)
    client = platform.memory_client("n0000", user="pager")
    pager = RemotePager(env, client, page_bytes=2 * MiB, resident_pages=4)

    counters = {"completed": 0, "losses": 0, "retried": 0}
    gap = window_s / (accesses + 1)

    platform.process(_paging_workload(env, pager, pages, dirty, gap, counters))
    platform.run_until(window_s + 10.0)
    platform.run()

    stats = platform.durable_memory.stats()
    completed = counters["completed"]
    return asdict(MemDurabilityPoint(
        label=f"k={replication}",
        replication=replication,
        accesses=accesses,
        completed=completed,
        completion_ratio=round(completed / accesses, 6) if accesses else 0.0,
        data_loss_accesses=counters["losses"],
        retried_accesses=counters["retried"],
        failovers=client.failovers,
        checksum_failures=client.checksum_failures,
        stale_reads_averted=client.stale_reads_averted,
        degraded_writes=stats["degraded_writes"],
        replicas_lost=stats["replicas_lost"],
        migrations=stats["migrations"],
        repairs=stats["repairs"],
        resyncs=stats["resyncs"],
        moved_mib=round(stats["moved_bytes"] / MiB, 6),
        faults_injected=len(platform.injector.injected),
    ))


def plan_scenarios(
    factors=DEFAULT_FACTORS,
    window_s: float = 20.0,
    seed: int = 0,
    accesses: int = 400,
    size_bytes: int = 64 * MiB,
    chunk_bytes: int = 16 * MiB,
) -> SweepPlan:
    """Fix the canonical scenario order: one scenario per factor, each
    replaying the same storm and access trace."""
    window_s = float(window_s)
    factors = tuple(int(k) for k in factors)
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if any(k < 1 for k in factors):
        raise ValueError("replication factors must be >= 1")
    if accesses < 1:
        raise ValueError("need at least one access")
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={
                "replication": k,
                "window_s": window_s,
                "accesses": accesses,
                "size_bytes": size_bytes,
                "chunk_bytes": chunk_bytes,
            },
            seed=seed,
            label=f"k={k}",
        )
        for k in factors
    )
    return SweepPlan(scenarios=scenarios,
                     meta={"window_s": window_s, "seed": seed})


SWEEP = register_sweep(Sweep(
    name="memdurability",
    description="replicated memory service under a crash+drain storm",
    plan=plan_scenarios,
    point_type=MemDurabilityPoint,
    columns=(
        ("factor", lambda p: p.label),
        ("accesses", lambda p: p.accesses),
        ("completed", lambda p: f"{p.completion_ratio * 100:.1f}%"),
        ("lost", lambda p: p.data_loss_accesses),
        ("retried", lambda p: p.retried_accesses),
        ("failovers", lambda p: p.failovers),
        ("stale averted", lambda p: p.stale_reads_averted),
        ("replicas lost", lambda p: p.replicas_lost),
        ("migrated", lambda p: p.migrations),
        ("repaired", lambda p: p.repairs + p.resyncs),
        ("moved (MiB)", lambda p: f"{p.moved_mib:.1f}"),
    ),
    title=("Memory durability — paging through a crash+drain storm "
           "({window_s:g}s window)"),
    footer=("k=1 is the seed service: destroyed replicas are gone for good."
            " Replication turns the same storm into failovers and repairs."),
))
