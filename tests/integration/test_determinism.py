"""Whole-system determinism: identical seeds replay identical histories."""

import numpy as np

from repro.cluster import Cluster, DAINT_MC
from repro.sim import Environment
from repro.slurm import (
    BatchScheduler,
    UtilizationSampler,
    WorkloadConfig,
    WorkloadGenerator,
    drive_workload,
)

from ..manager_ops import record_manager_ops
from .test_full_loop import FullRig


def trace_signature(seed):
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", 8, DAINT_MC)
    sched = BatchScheduler(env, cluster)
    gen = WorkloadGenerator(
        np.random.default_rng(seed), 8,
        WorkloadConfig(target_utilization=0.85, runtime_median_s=120.0,
                       max_runtime_s=500.0, max_nodes=4),
    )
    sampler = UtilizationSampler(env, sched, interval=60.0)
    drive_workload(env, sched, gen, duration=1800.0)
    env.run(until=1800.0)
    return (
        tuple((r.time, r.kind) for r in sched.log),
        tuple(sampler.idle_nodes.values),
        len(sched.completed),
    )


def test_batch_trace_bit_identical_per_seed():
    assert trace_signature(11) == trace_signature(11)
    assert trace_signature(11) != trace_signature(12)


def full_loop_signature(seed):
    rig = FullRig(nodes=4, seed=seed)
    ops = record_manager_ops(rig.manager, [])
    rig.function_stream("n0000", horizon=120.0)
    rig.function_stream("n0001", horizon=120.0)
    rig.env.run(until=120.0)
    return (
        rig.stats["ok"],
        rig.stats["rejected"],
        tuple(ops),
        rig.fabric.stats.messages,
        rig.fabric.stats.bytes,
    )


def test_full_platform_deterministic():
    a = full_loop_signature(21)
    b = full_loop_signature(21)
    assert a == b
    assert a[0] > 0  # and it did real work
