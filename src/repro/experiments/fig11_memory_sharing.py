"""Experiment Fig. 11: batch jobs sharing a node with remote-memory traffic.

An rFaaS memory-service function pins 1 GB on the batch job's node;
a remote client issues 10 MB RDMA reads/writes with varying pauses
between operations, injecting up to ~10 GB/s.  Measured: the batch job's
slowdown as a function of the injected traffic rate.

Paper reference: LULESH (27 and 125 ranks) is insensitive regardless of
problem size; MILC (32 ranks) is perturbed, more at larger problem sizes
— it is memory-bandwidth-bound, and the service traffic consumes both
NIC and DRAM bandwidth.

Sweep protocol: one scenario per (configuration, op pause).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..cluster import AULT
from ..interference import InterferenceModel
from ..network import IBVERBS
from ..workloads import lulesh_model, milc_model
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig11Point", "scenario", "plan_scenarios", "SWEEP"]

MiB = 1024**2

#: Pause between consecutive 10 MB operations (seconds); 0 = back-to-back.
DEFAULT_INTERVALS = (0.0, 0.001, 0.01, 0.1)
DEFAULT_OP_BYTES = 10 * MiB

#: The Ault runs: (app, ranks on the node, problem size).
CONFIGS = (
    ("lulesh", 27, 30),
    ("lulesh", 32, 45),   # the 125-rank run: 32 ranks/node
    ("milc", 32, 16),
    ("milc", 32, 24),
)

BATCH_MODELS = {"lulesh": lulesh_model, "milc": milc_model}


@dataclass(frozen=True)
class Fig11Point:
    app: str
    ranks: int
    problem_size: int
    interval_s: float
    traffic_bw: float          # injected bytes/s
    slowdown: float


def _traffic_bandwidth(op_bytes: int, interval_s: float) -> float:
    """Offered RMA load: one op of ``op_bytes`` per (interval + op time)."""
    op_time = IBVERBS.params.rdma_read(op_bytes)
    return op_bytes / (interval_s + op_time)


def scenario(params: dict, seed: int) -> dict:
    """One batch job under one rate of remote-memory traffic."""
    app_name: str = params["app"]
    ranks: int = params["ranks"]
    size: int = params["problem_size"]
    interval: float = params["interval_s"]
    model = InterferenceModel()
    demand = BATCH_MODELS[app_name](size, gpu=False).demand(ranks)
    # Exclusive baseline: the job alone on the node, no service traffic.
    alone = model.slowdowns(AULT, [demand])[0]
    bw = _traffic_bandwidth(params["op_bytes"], interval)
    slowdown = model.slowdowns(
        AULT, [demand], extra_netbw=bw, extra_membw=bw
    )[0] / alone
    return asdict(Fig11Point(
        app=app_name, ranks=ranks, problem_size=size,
        interval_s=interval, traffic_bw=bw, slowdown=slowdown,
    ))


def plan_scenarios(intervals=DEFAULT_INTERVALS,
                   op_bytes: int = DEFAULT_OP_BYTES,
                   seed: int = 0) -> SweepPlan:
    """The Ault configurations, each under every op pause."""
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={"app": app, "ranks": ranks, "problem_size": size,
                    "interval_s": float(interval), "op_bytes": op_bytes},
            seed=seed, label=f"{app}-{size}x{ranks} pause={interval:g}s",
        )
        for app, ranks, size in CONFIGS for interval in intervals
    )
    return SweepPlan(scenarios=scenarios, meta={"op_bytes": op_bytes})


SWEEP = Sweep(
    name="fig11",
    description="remote-memory traffic perturbation",
    plan=plan_scenarios,
    point_type=Fig11Point,
    columns=(
        ("app", lambda p: p.app),
        ("ranks/node", lambda p: p.ranks),
        ("size", lambda p: p.problem_size),
        ("op pause", lambda p: f"{p.interval_s * 1e3:.0f} ms"),
        ("injected traffic", lambda p: f"{p.traffic_bw / 1e9:.2f} GB/s"),
        ("slowdown", lambda p: f"{(p.slowdown - 1) * 100:.2f}%"),
    ),
    title=("Fig. 11 — remote-memory traffic ({op_bytes:,} B ops,"
           " 1 GB pinned buffer)"),
    footer=("Paper: LULESH unaffected at any rate (up to ~10 GB/s); MILC more"
            " sensitive at larger problem sizes."),
)
