"""Experiment Fig. 1: cluster utilization and idle-period structure.

Reproduces the three panels of the paper's motivation figure on a
synthetic Piz-Daint-like trace:

* 1a — allocated/idle node counts sampled on a two-minute interval;
* 1b — memory utilization (used vs. allocated by batch jobs);
* 1c — distribution of idle-period durations (estimated from sampling,
  exactly as the paper does, plus the exact event-driven ground truth).

Paper reference points: median 252 idle of 7517 nodes (~3.4 %), median
idle period 5–6.5 minutes, 70–80 % of idle periods under 10 minutes.

Sweep protocol: one scenario per run; its point spreads the sampled and
exact idle-period statistics into ``sampled_*`` and ``exact_*`` fields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..analysis.utilization import (
    idle_duration_stats,
    sampled_idle_durations,
    utilization_summary,
)
from ..cluster import Cluster, DAINT_MC
from ..sim import Environment
from ..sim.trace import TimeSeries
from ..slurm import (
    BatchScheduler,
    NodeStateTracker,
    UtilizationSampler,
    WorkloadConfig,
    WorkloadGenerator,
    drive_workload,
)
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig01Point", "scenario", "plan_scenarios", "SWEEP"]


@dataclass(frozen=True)
class Fig01Point:
    completed_jobs: int
    # Fig. 1a aggregates
    median_idle_nodes: float
    mean_idle_nodes: float
    median_allocated_fraction: float
    # Fig. 1b
    memory_used_fraction_mean: float
    memory_allocated_fraction_mean: float
    # Fig. 1c, sampled every ``sample_interval_s`` (the paper's method)
    sampled_count: int
    sampled_median_s: float
    sampled_mean_s: float
    sampled_fraction_under_10min: float
    sampled_p90_s: float
    # Fig. 1c, exact event-driven ground truth
    exact_count: int
    exact_median_s: float
    exact_mean_s: float
    exact_fraction_under_10min: float
    exact_p90_s: float


def scenario(params: dict, seed: int) -> dict:
    """Simulate the trace and compute the Fig. 1 statistics."""
    nodes: int = params["nodes"]
    hours: float = params["hours"]
    sample_interval_s: float = params["sample_interval_s"]
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", nodes, DAINT_MC)
    scheduler = BatchScheduler(env, cluster)
    config = WorkloadConfig(
        target_utilization=params["target_utilization"],
        runtime_median_s=420.0,
        max_runtime_s=2 * 3600.0,
        max_nodes=max(2, nodes // 4),
    )
    generator = WorkloadGenerator(np.random.default_rng(seed), nodes, config)
    sampler = UtilizationSampler(env, scheduler, interval=sample_interval_s)
    tracker = NodeStateTracker(env, scheduler)
    drive_workload(env, scheduler, generator, duration=hours * 3600.0)
    env.run(until=hours * 3600.0)

    # Discard the fill-up warmup: first 10% of the horizon.
    warmup = hours * 360.0
    idle_series = sampler.idle_nodes
    steady_idle = TimeSeries("idle-steady")
    for t, v in zip(idle_series.times, idle_series.values):
        if t >= warmup:
            steady_idle.record(t, v)

    sampled = []
    for series in tracker.series.values():
        polled = series.sample(warmup, hours * 3600.0, sample_interval_s)
        sampled.extend(sampled_idle_durations(polled, sample_interval_s))
    exact = [d for d in tracker.all_idle_durations() if d > 0]

    mem_used = sampler.used_memory_fraction
    mem_used_steady = np.mean([v for t, v in zip(mem_used.times, mem_used.values) if t >= warmup])
    alloc = sampler.allocated_node_fraction
    alloc_steady = np.mean([v for t, v in zip(alloc.times, alloc.values) if t >= warmup])
    summary = utilization_summary(steady_idle, nodes)
    idle = {f"{prefix}_{key}": value
            for prefix, durations in (("sampled", sampled), ("exact", exact))
            for key, value in asdict(idle_duration_stats(durations)).items()}
    return asdict(Fig01Point(
        completed_jobs=len(scheduler.completed),
        median_idle_nodes=summary["median_idle_nodes"],
        mean_idle_nodes=summary["mean_idle_nodes"],
        median_allocated_fraction=summary["median_allocated_fraction"],
        memory_used_fraction_mean=float(mem_used_steady),
        memory_allocated_fraction_mean=float(alloc_steady),
        **idle,
    ))


def plan_scenarios(
    nodes: int = 64,
    hours: float = 12.0,
    seed: int = 0,
    target_utilization: float = 0.96,
    sample_interval_s: float = 120.0,
) -> SweepPlan:
    """One run of the synthetic trace."""
    params = {"nodes": nodes, "hours": float(hours),
              "target_utilization": float(target_utilization),
              "sample_interval_s": float(sample_interval_s)}
    spec = ScenarioSpec(fn=scenario, params=params, seed=seed, label="trace")
    return SweepPlan(scenarios=(spec,), meta={**params, "seed": seed})


SWEEP = Sweep(
    name="fig01",
    description="Piz Daint utilization: idle nodes, memory, idle periods",
    plan=plan_scenarios,
    point_type=Fig01Point,
    columns=(
        ("jobs", lambda p: p.completed_jobs),
        ("median idle nodes", lambda p: p.median_idle_nodes),
        ("median alloc frac", lambda p: p.median_allocated_fraction),
        ("mem used frac", lambda p: p.memory_used_fraction_mean),
        ("mem alloc frac", lambda p: p.memory_allocated_fraction_mean),
        ("idle periods (sampled/exact)",
         lambda p: f"{p.sampled_count}/{p.exact_count}"),
        ("median idle min (sampled/exact)",
         lambda p: f"{p.sampled_median_s / 60:.1f}/{p.exact_median_s / 60:.1f}"),
        ("frac < 10 min (sampled/exact)",
         lambda p: (f"{p.sampled_fraction_under_10min:.2f}/"
                    f"{p.exact_fraction_under_10min:.2f}")),
    ),
    title=("Fig. 1 — synthetic Piz-Daint trace: {nodes} nodes, {hours:g} h,"
           " seed {seed}"),
    footer=("Sampled: periodic polling, the paper's method; exact: event-driven"
            " ground truth.\nPaper: median idle ~3.4% of nodes; median idle"
            " period 5-6.5 min; 70-80% of idle periods < 10 min."),
)
