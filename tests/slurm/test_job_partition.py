"""Job spec validation and partition admission tests."""

import pytest

from repro.cluster import DAINT_GPU, Cluster, Node
from repro.sim import Environment
from repro.slurm import (
    BatchScheduler,
    Job,
    JobSpec,
    JobState,
    Partition,
    gres_available_gpus,
)

GiB = 1024**3


def spec(**kw):
    defaults = dict(
        user="u", app="a", nodes=2, cores_per_node=36,
        memory_per_node=32 * GiB, walltime=3600, runtime=1800,
    )
    defaults.update(kw)
    return JobSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(nodes=0)
    with pytest.raises(ValueError):
        spec(cores_per_node=0)
    with pytest.raises(ValueError):
        spec(walltime=0)
    with pytest.raises(ValueError):
        spec(runtime=4000)  # > walltime
    with pytest.raises(ValueError):
        spec(memory_per_node=-1)


def test_spec_totals():
    s = spec(nodes=4, cores_per_node=32)
    assert s.total_cores == 128


def test_job_lifecycle_fields():
    job = Job(spec(), submit_time=10.0, job_id=1)
    assert job.state == JobState.PENDING
    assert job.wait_time is None
    with pytest.raises(ValueError):
        _ = job.expected_end
    job.start_time = 25.0
    assert job.wait_time == 15.0
    assert job.expected_end == 25.0 + 3600


def test_job_slowdown_extends_runtime():
    job = Job(spec(), job_id=1)
    assert job.actual_runtime == 1800
    job.slowdown = 1.05
    assert job.actual_runtime == pytest.approx(1890)


def test_job_ids_unique():
    """Ids come from the scheduler's environment: unique within one
    simulation, and every new environment numbers from 1 again."""
    def submitted_ids():
        env = Environment()
        cluster = Cluster()
        cluster.add_nodes("n", 2, DAINT_GPU)
        sched = BatchScheduler(env, cluster)
        return [sched.submit(spec(nodes=1)).job_id for _ in range(3)]

    assert submitted_ids() == [1, 2, 3]
    assert submitted_ids() == [1, 2, 3]


def test_partition_admission():
    part = Partition(name="normal", node_names=["a", "b", "c"], max_walltime=7200)
    assert part.admits(spec(nodes=3, walltime=7200, runtime=100))
    assert not part.admits(spec(nodes=4))
    assert not part.admits(spec(walltime=7201, runtime=100))
    assert not part.admits(spec(partition="debug"))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(name="x", node_names=[])
    with pytest.raises(ValueError):
        Partition(name="x", node_names=["a", "a"])
    with pytest.raises(ValueError):
        Partition(name="x", node_names=["a"], max_walltime=0)


def test_sharing_consent_flag_or_partition():
    part = Partition(name="normal", node_names=["a"])
    shared_part = Partition(name="coloc", node_names=["a"], shared_by_default=True)
    assert part.job_allows_sharing(spec(shared=True))
    assert not part.job_allows_sharing(spec(shared=False))
    assert shared_part.job_allows_sharing(spec(shared=False, partition="coloc"))


def test_gres_reports_free_gpus():
    node = Node("g", DAINT_GPU)
    assert gres_available_gpus(node) == 1
    alloc = node.allocate("fn", cores=1, gpus=1)
    assert gres_available_gpus(node) == 0
    node.release(alloc)
    assert gres_available_gpus(node) == 1
