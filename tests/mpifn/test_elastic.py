"""Elastic MPI group: leasing, growing, shrinking, BSP execution."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.mpifn import ElasticMpiGroup
from repro.network import DrcManager, IBVERBS, NetworkFabric
from repro.rfaas import NodeLoadRegistry, ResourceManager
from repro.sim import Environment
from repro.slurm import BatchScheduler, JobSpec

GiB = 1024**3


def make_rig(nodes=4, cores_per_node=4):
    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", nodes, DAINT_MC)
    provider = replace(IBVERBS, params=IBVERBS.params.with_jitter(0.0))
    drc = DrcManager()
    fabric = NetworkFabric(env, cluster, provider, rng=np.random.default_rng(0), drc=drc)
    manager = ResourceManager(env, cluster, loads=NodeLoadRegistry(cluster), drc=drc,
                              rng=np.random.default_rng(1))
    for i in range(nodes):
        manager.register_node(f"n{i:04d}", cores=cores_per_node, memory_bytes=8 * GiB)
    return env, cluster, manager, fabric


def test_spawn_builds_communicator():
    env, cluster, manager, fabric = make_rig()
    group = ElasticMpiGroup(env, manager, fabric)
    done = {}

    def prog():
        comm = yield group.spawn(4)
        done["size"] = comm.size

    env.process(prog())
    env.run()
    assert done["size"] == 4
    assert group.size == 4
    # Ranks really hold leases: node core accounting reflects them.
    leased = sum(36 - cluster.node(f"n{i:04d}").free_cores for i in range(4))
    assert leased == 4


def test_double_spawn_rejected():
    env, _, manager, fabric = make_rig()
    group = ElasticMpiGroup(env, manager, fabric)

    def prog():
        yield group.spawn(2)
        with pytest.raises(RuntimeError):
            group.spawn(2)

    env.process(prog())
    env.run()


def test_grow_and_shrink():
    env, _, manager, fabric = make_rig(nodes=4, cores_per_node=4)
    group = ElasticMpiGroup(env, manager, fabric)
    sizes = []

    def prog():
        yield group.spawn(2)
        sizes.append(group.size)
        new_size, latency = yield group.grow(3)
        sizes.append(new_size)
        assert latency >= 0
        group.shrink(4)
        sizes.append(group.size)

    env.process(prog())
    env.run()
    assert sizes == [2, 5, 1]


def test_grow_partial_on_capacity_exhaustion():
    env, _, manager, fabric = make_rig(nodes=1, cores_per_node=2)
    group = ElasticMpiGroup(env, manager, fabric)
    result = {}

    def prog():
        yield group.spawn(1)
        size, _ = yield group.grow(5)  # only 1 more core exists
        result["size"] = size

    env.process(prog())
    env.run()
    assert result["size"] == 2


def test_shrink_validation_and_shutdown():
    env, _, manager, fabric = make_rig()
    group = ElasticMpiGroup(env, manager, fabric)

    def prog():
        yield group.spawn(2)
        with pytest.raises(ValueError):
            group.shrink(2)  # must leave >= 1
        group.shutdown()
        assert group.size == 0

    env.process(prog())
    env.run()
    assert manager.total_free_cores() == manager.total_registered_cores()


def test_bsp_epochs_with_allreduce():
    env, _, manager, fabric = make_rig()
    group = ElasticMpiGroup(env, manager, fabric)
    outcome = {}

    def epoch_fn(comm, rank, epoch, state):
        state.setdefault("sum", 0)
        total = yield comm.allreduce(rank, 8, value=rank)
        state["sum"] += total

    def prog():
        yield group.spawn(4)
        report = yield group.run_bsp(epoch_fn, epochs=3)
        outcome["report"] = report

    env.process(prog())
    env.run()
    report = outcome["report"]
    assert report.epochs == 3
    assert report.sizes == [4, 4, 4]
    assert all(t > 0 for t in report.epoch_times)


def test_bsp_with_dynamic_resize():
    env, _, manager, fabric = make_rig(nodes=4, cores_per_node=4)
    group = ElasticMpiGroup(env, manager, fabric)
    outcome = {}

    def epoch_fn(comm, rank, epoch, state):
        yield comm.barrier(rank)

    def resize(epoch, grp):
        return {1: 6, 2: 3}.get(epoch)

    def prog():
        yield group.spawn(2)
        report = yield group.run_bsp(epoch_fn, epochs=3, resize=resize)
        outcome["report"] = report

    env.process(prog())
    env.run()
    report = outcome["report"]
    assert report.sizes == [2, 6, 3]
    assert len(report.grow_latencies) == 1


def test_grow_beats_the_batch_queue_on_a_loaded_cluster():
    """Sec. IV-F: MPI functions come with lower provisioning latency than a
    batch allocation. With three of four nodes busy for 10 minutes, leasing
    4 more ranks is instant; a 2-node batch job waits for the running set."""
    env, cluster, manager, fabric = make_rig(nodes=4, cores_per_node=4)
    scheduler = BatchScheduler(env, cluster)
    for _ in range(3):
        scheduler.submit(JobSpec(
            user="u", app="busy", nodes=1, cores_per_node=32,
            memory_per_node=16 * GiB, walltime=600.0, runtime=600.0, shared=True,
        ))
    group = ElasticMpiGroup(env, manager, fabric)
    out = {}

    def prog():
        yield env.timeout(1.0)
        yield group.spawn(2)
        t0 = env.now
        out["size"], _ = yield group.grow(4)
        out["grow_s"] = env.now - t0
        group.shutdown()
        out["job"] = scheduler.submit(JobSpec(
            user="u", app="grow-attempt", nodes=2, cores_per_node=4,
            memory_per_node=1 * GiB, walltime=60.0, runtime=60.0,
        ))

    env.process(prog())
    env.run()
    job = out["job"]
    batch_wait_s = job.start_time - job.submit_time
    assert out["size"] == 6
    assert out["grow_s"] < 1.0
    assert batch_wait_s > 60.0
    assert batch_wait_s > 100 * max(out["grow_s"], 1e-3)


def test_bsp_requires_spawn():
    env, _, manager, fabric = make_rig()
    group = ElasticMpiGroup(env, manager, fabric)
    with pytest.raises(RuntimeError):
        group.run_bsp(lambda *a: None, epochs=1)
    with pytest.raises(ValueError):
        ElasticMpiGroup(env, manager, fabric, cores_per_rank=0)
