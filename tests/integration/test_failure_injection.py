"""Failure injection: node death under batch jobs and function executors."""

import pytest

from repro.cluster import Cluster, DAINT_MC
from repro.sim import Environment
from repro.slurm import BatchScheduler, JobSpec, JobState

from .test_full_loop import FullRig

GiB = 1024**3


def spec(nodes=1, walltime=100.0, cores=36):
    return JobSpec(user="u", app="a", nodes=nodes, cores_per_node=cores,
                   memory_per_node=4 * GiB, walltime=walltime, runtime=walltime)


def test_failed_node_not_rescheduled_until_restore():
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", 2, DAINT_MC)
    sched = BatchScheduler(env, cluster)
    cluster.node("n0000").draining = True  # the node failed
    job = sched.submit(spec(nodes=1, walltime=5.0))
    env.run(until=1)
    assert job.node_names == ("n0001",)
    # A 2-node job cannot start while one node is down.
    wide = sched.submit(spec(nodes=2, walltime=5.0))
    env.run(until=20)
    assert wide.state == JobState.PENDING
    sched.restore_node("n0000")
    env.run()
    assert wide.state == JobState.COMPLETED


def test_function_clients_survive_node_failure():
    """The platform side of a failure: executor node dies mid-invocation,
    the client redirects, work completes elsewhere."""
    rig = FullRig(nodes=3, seed=9)
    results = []

    def invoker():
        client_stream = rig.function_stream("n0002", horizon=100.0)
        yield client_stream

    def killer():
        yield rig.env.timeout(5.0)
        # Find a node serving functions and fail its serverless side.
        for name in list(rig.manager.registered_nodes()):
            executor = rig.manager.node_info(name).executor
            if len(executor._active):
                rig.manager.remove_node(name, immediate=True)
                results.append(name)
                return

    rig.env.process(invoker())
    rig.env.process(killer())
    rig.env.run(until=100.0)
    assert results, "expected to fail an active executor node"
    failed = results[0]
    # Invocations continued on the surviving nodes.
    assert rig.stats["ok"] > 10
    assert failed not in rig.manager.registered_nodes()
    # The failed node carries no serverless leftovers.
    node = rig.scheduler.cluster.node(failed)
    assert node.allocations_of_kind("function") == ()
