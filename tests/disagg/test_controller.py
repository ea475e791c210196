"""Disaggregation controller integration tests (scheduler <-> manager)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.disagg import ControllerConfig, DisaggregationController
from repro.network import IBVERBS, DrcManager, NetworkFabric
from repro.rfaas import NodeLoadRegistry, ResourceManager
from repro.sim import Environment
from repro.slurm import BatchScheduler, JobSpec

GiB = 1024**3


class Rig:
    def __init__(self, nodes=4, config=None):
        self.env = Environment()
        self.cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
        self.cluster.add_nodes("n", nodes, DAINT_MC)
        self.scheduler = BatchScheduler(self.env, self.cluster)
        self.loads = NodeLoadRegistry(self.cluster)
        self.manager = ResourceManager(
            self.env, self.cluster, loads=self.loads, drc=DrcManager(),
            rng=np.random.default_rng(0),
        )
        self.controller = DisaggregationController(
            self.scheduler, self.manager, config=config
        )

    def spec(self, nodes=1, cores=32, walltime=100.0, shared=True, mem=8 * GiB):
        return JobSpec(
            user="u", app="lulesh", nodes=nodes, cores_per_node=cores,
            memory_per_node=mem, walltime=walltime, runtime=walltime, shared=shared,
        )


def test_idle_nodes_registered_at_startup():
    rig = Rig(nodes=4)
    assert set(rig.manager.registered_nodes()) == {"n0000", "n0001", "n0002", "n0003"}
    assert rig.controller.idle_registrations == 4


def test_batch_job_reclaims_idle_registration():
    rig = Rig(nodes=2)
    job = rig.scheduler.submit(rig.spec(nodes=1, shared=False))
    rig.env.run(until=1)
    # Claimed node pulled from pool; non-consenting job adds nothing back.
    assert job.node_names[0] not in rig.manager.registered_nodes()
    assert rig.controller.reclaims == 1
    rig.env.run()
    # After the job ends the node returns as idle.
    assert len(rig.manager.registered_nodes()) == 2


def test_shared_job_leftovers_registered():
    rig = Rig(nodes=2)
    job = rig.scheduler.submit(rig.spec(nodes=1, cores=32, shared=True))
    rig.env.run(until=1)
    name = job.node_names[0]
    assert rig.manager.is_registered(name)
    info = rig.manager.node_info(name)
    assert info.cores_total == 4  # 36 - 32 leftover
    assert rig.controller.coloc_registrations == 1


def test_job_demand_published_and_withdrawn():
    rig = Rig(nodes=2)
    job = rig.scheduler.submit(rig.spec(nodes=2, shared=True))
    rig.env.run(until=1)
    for name in job.node_names:
        demands = rig.loads.demands(name)
        assert f"job-{job.job_id}" in demands
        assert demands[f"job-{job.job_id}"].label == "lulesh"
    rig.env.run()
    for name in job.node_names:
        assert f"job-{job.job_id}" not in rig.loads.demands(name)


def test_full_node_job_registers_nothing():
    rig = Rig(nodes=2)
    job = rig.scheduler.submit(rig.spec(nodes=1, cores=36, shared=True, mem=120 * GiB))
    rig.env.run(until=1)
    # No leftover cores -> no co-location registration.
    assert not rig.manager.is_registered(job.node_names[0])


def test_reserve_cores_respected():
    rig = Rig(nodes=2, config=ControllerConfig(reserve_cores=2))
    job = rig.scheduler.submit(rig.spec(nodes=1, cores=32, shared=True))
    rig.env.run(until=1)
    info = rig.manager.node_info(job.node_names[0])
    assert info.cores_total == 2  # 36 - 32 - 2 reserved


def test_harvest_can_be_disabled():
    rig = Rig(nodes=2, config=ControllerConfig(harvest_idle_nodes=False,
                                               harvest_shared_jobs=False))
    assert rig.manager.registered_nodes() == []
    rig.scheduler.submit(rig.spec(nodes=1, shared=True))
    rig.env.run(until=1)
    assert rig.manager.registered_nodes() == []


def test_node_churn_through_job_sequence():
    rig = Rig(nodes=2)
    # Two sequential non-shared jobs needing both nodes.
    for _ in range(2):
        rig.scheduler.submit(rig.spec(nodes=2, shared=False, walltime=50.0))
    rig.env.run()
    # All jobs done; everything registered as idle again.
    assert len(rig.manager.registered_nodes()) == 2
    assert rig.controller.reclaims >= 2
    # Registrations: initial 2 idle + re-registrations after each job.
    assert rig.controller.idle_registrations >= 4


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(reserve_cores=-1)
    with pytest.raises(ValueError):
        ControllerConfig(min_cores=0)
    with pytest.raises(ValueError):
        ControllerConfig(memory_headroom=0.0)
