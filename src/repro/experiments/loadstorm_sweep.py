"""The load storm: a million-client lease churn vs control-plane shards.

One seeded :class:`~repro.loadgen.WorkloadTrace` — open-loop arrivals
from a 1.2M-tenant Zipf population — is replayed against
:class:`~repro.shard.ShardedControlPlane` instances of increasing shard
count.  Every arrival runs the full multi-tenant path: per-tenant
admission control (:mod:`repro.capacity`), a batched grant on the
tenant's home shard, a service-time hold, and a batched release, with
bounded deterministic retries when the shard is saturated or down.

Because the driver is open loop, a saturated single shard cannot slow
the offered load down — the excess shows up where it belongs, as grant
tail latency (and, past the retry budget, as *degraded* requests).
Expected shape: one shard runs at or past its serialization ceiling
(``max_batch / (batch_overhead_s + per_op_s * max_batch)`` ops/s), so
p99 grant latency collapses as shards double and throughput recovers to
the admitted rate.

The no-silent-drops invariant is enforced globally at every point:

* **request conservation** — every arrival ends in exactly one of
  ``completed`` / ``rejected`` (admission backpressure) / ``degraded``
  (retry budget exhausted): ``admitted == completed + rejected +
  degraded``;
* **plane conservation** — every batched op is applied or failed, and
  every lease ever granted ends released or revoked
  (:meth:`~repro.shard.ShardedControlPlane.conservation_ok`).

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)``; all points share one seed so the trace is identical
at every shard count, and ``repro sweep loadstorm --jobs N`` is
byte-identical to the serial run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..capacity.admission import AdmissionConfig, AdmissionController, TenantQuota
from ..cluster.machine import Cluster
from ..cluster.specs import DAINT_MC
from ..cluster.topology import DragonflyTopology
from ..faults import FaultPlan, Injector
from ..loadgen import LoadSpec, MmppArrivals, PoissonArrivals, TenantMix, synthesize
from ..rfaas.errors import (
    AdmissionRejected,
    ManagerUnavailableError,
    NoCapacityError,
    StaleEpochError,
)
from ..shard import ShardConfig, ShardedControlPlane
from ..sim.engine import Environment
from .base import ScenarioSpec, Sweep, SweepPlan, register_sweep

__all__ = [
    "LoadstormPoint",
    "scenario",
    "plan_scenarios",
    "SWEEP",
]

GiB = 1024**3

#: Shard counts swept by default: the serialization-point strawman up
#: to a comfortably horizontal plane.
DEFAULT_SHARDS = (1, 2, 4, 8)

#: Deterministic retry ladder for grants against a saturated/down shard
#: (no jitter — byte-identity across workers requires it).
RETRY_ATTEMPTS = 6
RETRY_BACKOFF_S = 0.02
RETRY_BACKOFF_CAP_S = 0.64

#: Shard serialization cost model: one flush pays
#: ``BATCH_OVERHEAD_S + PER_OP_S * ops``, so a full batch caps one
#: shard at ~2300 ops/s — two control-plane ops per request puts the
#: default storm past a single shard's ceiling by design.
BATCH_OVERHEAD_S = 1e-3
PER_OP_S = 4e-4


@dataclass(frozen=True)
class LoadstormPoint:
    """Outcome of one shard count against the shared trace."""

    label: str
    shards: int
    population: int
    admitted: int          # arrivals that entered the system (the trace)
    completed: int
    rejected: int          # admission backpressure (explicit, counted)
    degraded: int          # grant retry budget exhausted
    throughput_rps: float  # completions per offered-window second
    p50_ms: float          # arrival -> grant, completed requests
    p99_ms: float
    batches: int
    mean_batch_ops: float
    migrations: int
    crashes: int
    conservation_ok: bool

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.admitted if self.admitted else 0.0


def _arrival_handler(env, plane, admission, tenant: str, at_s: float,
                     service_s: float, census: dict, latencies: list):
    """One open-loop request: admit -> grant (with retries) -> hold -> release."""
    try:
        yield from admission.admit(tenant)
    except AdmissionRejected:
        census["rejected"] += 1
        return
    lease = None
    for attempt in range(RETRY_ATTEMPTS):
        try:
            lease, _executor = yield plane.request_grant(tenant, cores=1)
            break
        except (NoCapacityError, ManagerUnavailableError, StaleEpochError):
            if attempt == RETRY_ATTEMPTS - 1:
                break
            yield env.timeout(
                min(RETRY_BACKOFF_S * 2**attempt, RETRY_BACKOFF_CAP_S)
            )
    if lease is None:
        census["degraded"] += 1
        return
    latencies.append(env.now - at_s)
    yield env.timeout(service_s)
    if lease.active:
        try:
            yield plane.request_release(lease)
        except (ManagerUnavailableError, StaleEpochError):
            pass  # shard died holding our release; crash fencing revokes
    # A lease revoked under us (shard crash fencing) still did its
    # work — the hold finished — so the request counts completed, and
    # the plane ledger records the lease as revoked, not dropped.
    census["completed"] += 1


def _replay(env, plane, admission, trace, mix: TenantMix, census, latencies):
    """Walk the trace in arrival order, spawning one handler per arrival."""
    for at_s, tenant_index in zip(trace.times, trace.tenants):
        delay = at_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        env.process(_arrival_handler(
            env, plane, admission, mix.name(tenant_index), at_s,
            trace.service_s, census, latencies,
        ))


def scenario(params: dict, seed: int) -> dict:
    """One shard count as a pure function of ``(params, seed)``."""
    shards: int = params["shards"]
    window_s: float = params["window_s"]
    rate_per_s: float = params["rate_per_s"]
    population: int = params["population"]
    zipf_s: float = params["zipf_s"]
    service_s: float = params["service_s"]
    arrival: str = params["arrival"]
    nodes: int = params["nodes"]
    cores_per_node: int = params["cores_per_node"]
    max_batch: int = params["max_batch"]
    crash_at_frac: float = params["crash_at_frac"]

    if arrival == "mmpp":
        arrivals = MmppArrivals(
            rates_per_s=(0.2 * rate_per_s, 2.0 * rate_per_s), mean_dwell_s=1.0,
        )
    elif arrival == "poisson":
        arrivals = PoissonArrivals(rate_per_s=rate_per_s)
    else:
        raise ValueError(f"unknown arrival kind {arrival!r} ('poisson' or 'mmpp')")
    mix = TenantMix(population=population, zipf_s=zipf_s)
    trace = synthesize(LoadSpec(
        arrivals=arrivals, mix=mix, window_s=window_s,
        service_s=service_s, seed=seed,
    ))

    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", nodes, DAINT_MC)
    plane = ShardedControlPlane(
        env, cluster,
        ShardConfig(shards=shards, max_batch=max_batch,
                    batch_overhead_s=BATCH_OVERHEAD_S, per_op_s=PER_OP_S,
                    rebalance_interval_s=0.25),
        rng=np.random.default_rng(seed + 1),
    )
    for i in range(nodes):
        plane.register_node(f"n{i:04d}", cores=cores_per_node,
                            memory_bytes=4 * GiB)
    admission = AdmissionController(env, AdmissionConfig(
        max_queue_depth=512,
        max_queue_wait_s=0.5,
        # The quota clips the Zipf head to roughly what one shard's
        # nodes can hold: the heaviest tenants feel admission control,
        # everyone else passes, and hot-shard capacity stays bounded so
        # the shard-saturation signal dominates the curve.
        default_quota=TenantQuota(rate_per_s=0.08 * rate_per_s,
                                  burst=max(1.0, 0.02 * rate_per_s)),
    ))

    injector = None
    if crash_at_frac > 0:
        # Shard-targeted crash through the fault layer: kill the highest
        # shard mid-storm, restarting after 10% of the window.
        plan = FaultPlan(name="loadstorm").manager_crash(
            at_s=crash_at_frac * window_s, duration_s=0.1 * window_s,
            shard=shards - 1,
        )
        injector = Injector(env, plan, manager=plane, seed=seed + 2)
        injector.start()

    census = {"completed": 0, "rejected": 0, "degraded": 0}
    latencies: list[float] = []
    env.process(_replay(env, plane, admission, trace, mix, census, latencies),
                name="loadstorm-replay")
    # Under deep 1-shard saturation the batch backlog can take tens of
    # sim-seconds to clear; the run ends when the last handler does
    # (the rebalance loop is a daemon and keeps nothing alive).
    env.run()

    ledger = plane.conservation()
    admitted = len(trace)
    conserved = (
        admitted == census["completed"] + census["rejected"] + census["degraded"]
        and plane.conservation_ok(drained=True)
    )
    p50 = float(np.median(latencies)) if latencies else float("nan")
    p99 = float(np.percentile(latencies, 99)) if latencies else float("nan")
    batches = sum(s.batcher.batches for s in plane.shards)
    applied = ledger["ops_applied"] + ledger["ops_failed"]
    return asdict(LoadstormPoint(
        label=f"shards={shards}",
        shards=shards,
        population=population,
        admitted=admitted,
        completed=census["completed"],
        rejected=census["rejected"],
        degraded=census["degraded"],
        throughput_rps=census["completed"] / window_s,
        p50_ms=p50 * 1e3,
        p99_ms=p99 * 1e3,
        batches=batches,
        mean_batch_ops=(applied / batches) if batches else 0.0,
        migrations=ledger["migrations"],
        crashes=len(injector.injected) if injector is not None else 0,
        conservation_ok=conserved,
    ))


def plan_scenarios(
    shards=DEFAULT_SHARDS,
    window_s: float = 8.0,
    rate_per_s: float = 3000.0,
    population: int = 1_200_000,
    zipf_s: float = 1.1,
    service_s: float = 0.05,
    arrival: str = "poisson",
    nodes: int = 16,
    cores_per_node: int = 24,
    max_batch: int = 32,
    crash_at_frac: float = 0.0,
    seed: int = 0,
) -> SweepPlan:
    """Fix the canonical scenario order; one seed -> one shared trace."""
    window_s = float(window_s)
    rate_per_s = float(rate_per_s)
    zipf_s = float(zipf_s)
    service_s = float(service_s)
    crash_at_frac = float(crash_at_frac)
    shards = tuple(int(n) for n in shards)
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if any(n < 1 for n in shards):
        raise ValueError("shard counts must be >= 1")
    if arrival not in ("poisson", "mmpp"):
        raise ValueError("arrival must be 'poisson' or 'mmpp'")
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={
                "shards": n,
                "window_s": window_s,
                "rate_per_s": rate_per_s,
                "population": population,
                "zipf_s": zipf_s,
                "service_s": service_s,
                "arrival": arrival,
                "nodes": nodes,
                "cores_per_node": cores_per_node,
                "max_batch": max_batch,
                "crash_at_frac": crash_at_frac,
            },
            seed=seed,
            label=f"shards={n}",
        )
        for n in shards
    )
    return SweepPlan(scenarios=scenarios, meta={
        "window_s": window_s, "rate_per_s": rate_per_s,
        "population": population, "seed": seed,
    })


SWEEP = register_sweep(Sweep(
    name="loadstorm",
    description="open-loop million-client lease churn vs control-plane shards",
    plan=plan_scenarios,
    point_type=LoadstormPoint,
    columns=(
        ("shards", lambda p: p.label),
        ("admitted", lambda p: p.admitted),
        ("completed", lambda p: p.completed),
        ("rejected", lambda p: p.rejected),
        ("degraded", lambda p: p.degraded),
        ("thr (req/s)", lambda p: f"{p.throughput_rps:.0f}"),
        ("p50 (ms)", lambda p: f"{p.p50_ms:.2f}"),
        ("p99 (ms)", lambda p: f"{p.p99_ms:.2f}"),
        ("batches", lambda p: p.batches),
        ("ops/batch", lambda p: f"{p.mean_batch_ops:.1f}"),
        ("migrations", lambda p: p.migrations),
        ("conserved", lambda p: "PASS" if p.conservation_ok else "FAIL"),
    ),
    title=("Load storm — {population:,} clients, {rate_per_s:g} req/s open "
           "loop over {window_s:g}s, vs control-plane shards"),
    footer=("One shard is a serialization point: the open-loop storm piles"
            " up in its batch queue as tail latency.  Sharding the plane"
            " spreads tenants by consistent hash; p99 collapses while the"
            " conservation ledger (admitted = completed + rejected +"
            " degraded, every op applied or failed) holds at every point."),
))
