"""End-to-end integration: batch trace + controller + live invocations.

These tests exercise the complete software-disaggregation loop the paper
describes — scheduler, controller, manager, executors, clients, fabric,
containers, interference — in one simulation, and assert the global
invariants that make the system trustworthy: conservation of resources,
clean reclamation, and useful work actually done on harvested capacity.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.containers import Image
from repro.disagg import ControllerConfig, DisaggregationController
from repro.interference import ResourceDemand
from repro.network import DrcManager, IBVERBS, NetworkFabric
from repro.rfaas import (
    FunctionRegistry,
    NodeLoadRegistry,
    NoCapacityError,
    ResourceManager,
    RFaaSClient,
)
from repro.sim import Environment
from repro.slurm import (
    BatchScheduler,
    JobSpec,
    JobState,
    WorkloadConfig,
    WorkloadGenerator,
    drive_workload,
)

GiB = 1024**3
MiB = 1024**2


class FullRig:
    def __init__(self, nodes=8, seed=0, reserve_cores=1):
        self.env = Environment()
        self.cluster = Cluster(topology=DragonflyTopology(nodes_per_group=4))
        self.cluster.add_nodes("n", nodes, DAINT_MC)
        self.scheduler = BatchScheduler(self.env, self.cluster)
        self.drc = DrcManager()
        provider = replace(IBVERBS, params=IBVERBS.params.with_jitter(0.0))
        self.fabric = NetworkFabric(self.env, self.cluster, provider,
                                    rng=np.random.default_rng(seed), drc=self.drc)
        self.loads = NodeLoadRegistry(self.cluster)
        self.manager = ResourceManager(self.env, self.cluster, loads=self.loads,
                                       drc=self.drc, rng=np.random.default_rng(seed))
        self.controller = DisaggregationController(
            self.scheduler, self.manager,
            config=ControllerConfig(reserve_cores=reserve_cores),
        )
        self.functions = FunctionRegistry()
        self.image = Image("fn", size_bytes=150 * MiB)
        self.functions.register(
            "work", self.image, runtime_s=2.0,
            demand=ResourceDemand(cores=1, membw=0.3e9, llc_bytes=1 * MiB, frac_membw=0.05),
        )
        self.stats = {"ok": 0, "rejected": 0}

    def function_stream(self, client_node, horizon):
        client = RFaaSClient(self.env, self.manager, self.fabric, self.functions,
                             client_node=client_node)

        def proc():
            while self.env.now < horizon:
                try:
                    result = yield client.invoke("work", payload_bytes=32 * 1024)
                except NoCapacityError:
                    yield self.env.timeout(10.0)
                    continue
                if result.ok:
                    self.stats["ok"] += 1
                else:
                    self.stats["rejected"] += 1
                    yield self.env.timeout(10.0)

        return self.env.process(proc())


def test_functions_run_on_harvested_capacity_during_batch_trace():
    rig = FullRig(nodes=8, seed=1)
    gen = WorkloadGenerator(
        np.random.default_rng(2), 8,
        WorkloadConfig(target_utilization=0.85, runtime_median_s=200.0,
                       max_runtime_s=600.0, max_nodes=4, shared_fraction=0.8),
    )
    horizon = 3600.0
    drive_workload(rig.env, rig.scheduler, gen, duration=horizon)
    for i in range(4):
        rig.function_stream(f"n{i:04d}", horizon)
    rig.env.run(until=horizon)

    # Functions did real work while batch ran.
    assert rig.stats["ok"] > 100
    assert len(rig.scheduler.completed) > 5
    # Reclamation happened and never broke anything.
    assert rig.controller.reclaims > 0


def test_resources_fully_conserved_after_trace():
    rig = FullRig(nodes=6, seed=3)
    gen = WorkloadGenerator(
        np.random.default_rng(4), 6,
        WorkloadConfig(target_utilization=0.8, runtime_median_s=120.0,
                       max_runtime_s=400.0, max_nodes=3),
    )
    drive_workload(rig.env, rig.scheduler, gen, duration=1800.0)
    for i in range(2):
        rig.function_stream(f"n{i:04d}", 1800.0)
    # Run far past the horizon so everything drains.
    rig.env.run()

    # Every batch job finished; every node's batch state is clean.
    assert not rig.scheduler.running
    assert not rig.scheduler.queue
    for node in rig.cluster:
        assert node.allocations_of_kind("batch") == ()
        # Only controller-registered serverless state may remain (warm
        # containers, function leases from streams that ended mid-wait).
        assert node.allocated_cores <= DAINT_MC.cores

    # Load registry holds no stale batch entries.
    for node in rig.cluster:
        for key in rig.loads.demands(node.name):
            assert not key.startswith("job-"), f"stale {key} on {node.name}"


def test_invocations_dilated_by_real_batch_neighbours():
    """A function co-located with a memory-hungry batch job runs slower
    than one on an idle node — through the full platform stack."""
    rig = FullRig(nodes=2, seed=5, reserve_cores=1)
    rig.functions.register(
        "membound", rig.image, runtime_s=1.0,
        demand=ResourceDemand(cores=1, membw=8e9, llc_bytes=20 * MiB, frac_membw=0.7),
    )
    # A shared MILC-like job occupies node 0 heavily.
    rig.scheduler.submit(JobSpec(
        user="u", app="milc", nodes=1, cores_per_node=30,
        memory_per_node=32 * GiB, walltime=10_000.0, runtime=10_000.0, shared=True,
    ))
    results = {}

    def probe():
        yield rig.env.timeout(1.0)
        # Invoke against whichever node the manager picks: node 0 has the
        # batch job (few leftover cores), node 1 is idle.
        client = RFaaSClient(rig.env, rig.manager, rig.fabric, rig.functions,
                             client_node="n0001")
        busy_node = rig.scheduler.completed or list(rig.scheduler.running.values())
        job_node = list(rig.scheduler.running.values())[0].node_names[0]
        idle_node = "n0001" if job_node == "n0000" else "n0000"
        # Force placement by excluding the other node.
        lease_busy, exec_busy = rig.manager.lease(client="p1", cores=1, exclude=(idle_node,))
        lease_idle, exec_idle = rig.manager.lease(client="p2", cores=1, exclude=(job_node,))
        from repro.rfaas import InvocationRequest

        fdef = rig.functions.lookup("membound")
        r_busy = yield exec_busy.execute(fdef, InvocationRequest("membound", 0, 1))
        r_idle = yield exec_idle.execute(fdef, InvocationRequest("membound", 0, 2))
        results["busy"] = r_busy.timings.execution
        results["idle"] = r_idle.timings.execution

    rig.env.process(probe())
    rig.env.run(until=5000.0)
    assert results["busy"] > results["idle"] * 1.02
