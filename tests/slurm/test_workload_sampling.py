"""Workload generator statistics and utilization sampling."""

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC
from repro.sim import Environment
from repro.slurm import (
    BatchScheduler,
    NodeStateTracker,
    UtilizationSampler,
    WorkloadConfig,
    WorkloadGenerator,
    drive_workload,
)

GiB = 1024**3


def test_specs_are_valid_and_bounded():
    gen = WorkloadGenerator(np.random.default_rng(0), cluster_nodes=64)
    for _ in range(300):
        s = gen.draw_spec()
        assert 1 <= s.nodes <= 64
        assert 1 <= s.cores_per_node <= 36
        assert 0 <= s.memory_per_node <= 128 * GiB
        assert 0 < s.runtime <= s.walltime


def test_memory_fraction_centered_near_quarter():
    gen = WorkloadGenerator(np.random.default_rng(1), cluster_nodes=64)
    fracs = [gen.draw_spec().memory_per_node / (128 * GiB) for _ in range(2000)]
    assert 0.18 < np.mean(fracs) < 0.33  # paper: avg node memory usage ~24%


def test_many_jobs_leave_cores_idle():
    # The LULESH-style constraint: core counts often mismatch 36.
    gen = WorkloadGenerator(np.random.default_rng(2), cluster_nodes=64)
    partial = sum(1 for _ in range(1000) if gen.draw_spec().cores_per_node < 36)
    assert partial > 200


def test_arrival_rate_matches_target_utilization():
    gen = WorkloadGenerator(np.random.default_rng(3), cluster_nodes=100)
    # offered load = lambda * E[nodes*runtime] ~= util * N
    offered = gen.arrival_rate * gen._mean_node_count() * gen._mean_runtime()
    assert offered == pytest.approx(0.93 * 100, rel=0.01)


def test_generator_deterministic_per_seed():
    a = WorkloadGenerator(np.random.default_rng(7), 32).draw_spec()
    b = WorkloadGenerator(np.random.default_rng(7), 32).draw_spec()
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(target_utilization=0.0)
    with pytest.raises(ValueError):
        WorkloadGenerator(np.random.default_rng(0), cluster_nodes=0)


def small_sim(hours=2.0, nodes=16, seed=0, util=0.9):
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", nodes, DAINT_MC)
    sched = BatchScheduler(env, cluster)
    cfg = WorkloadConfig(
        target_utilization=util,
        runtime_median_s=300.0,
        max_runtime_s=1800.0,
        max_nodes=nodes // 2,
    )
    gen = WorkloadGenerator(np.random.default_rng(seed), nodes, cfg)
    sampler = UtilizationSampler(env, sched, interval=120.0)
    tracker = NodeStateTracker(env, sched)
    drive_workload(env, sched, gen, duration=hours * 3600)
    env.run(until=hours * 3600)
    return env, sched, sampler, tracker


def test_end_to_end_workload_keeps_cluster_busy():
    env, sched, sampler, tracker = small_sim()
    # After warmup the cluster should be mostly allocated.
    alloc = sampler.allocated_node_fraction
    later = [v for t, v in zip(alloc.times, alloc.values) if t > 1800]
    assert np.mean(later) > 0.5
    assert len(sched.completed) > 10


def test_sampler_series_aligned_on_interval():
    _, _, sampler, _ = small_sim(hours=0.5)
    times = sampler.idle_nodes.times
    assert times[0] == 0
    assert np.allclose(np.diff(times), 120.0)


def test_tracker_idle_durations_positive_and_finite():
    _, _, _, tracker = small_sim()
    durations = tracker.all_idle_durations()
    assert durations, "expected some idle periods"
    assert all(d > 0 for d in durations)


def test_tracker_matches_scheduler_counts():
    env, sched, _, tracker = small_sim(hours=1.0)
    # At end time: nodes whose series ends at 0 == scheduler's free nodes.
    idle_from_tracker = sum(
        1 for name, ts in tracker.series.items() if ts.values[-1] == 0.0
    )
    assert idle_from_tracker == sched.idle_node_count()


def test_sampler_interval_validation():
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", 1, DAINT_MC)
    sched = BatchScheduler(env, cluster)
    with pytest.raises(ValueError):
        UtilizationSampler(env, sched, interval=0)
