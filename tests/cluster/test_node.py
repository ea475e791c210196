"""Node allocation bookkeeping tests."""

import pytest

from repro.cluster import AllocationError, DAINT_GPU, DAINT_MC, Node

GiB = 1024**3


def make_node(spec=DAINT_MC):
    return Node("n0", spec)


def test_fresh_node_is_idle():
    node = make_node()
    assert node.is_idle
    assert node.free_cores == 36
    assert node.free_memory == 128 * GiB
    assert node.total_gpus == 0


def test_allocate_and_release_roundtrip():
    node = make_node()
    alloc = node.allocate("job1", cores=32, memory_bytes=64 * GiB)
    assert node.allocated_cores == 32
    assert node.free_cores == 4
    assert not node.is_idle
    node.release(alloc)
    assert node.is_idle
    assert node.free_cores == 36
    assert node.free_memory == 128 * GiB


def test_memory_only_allocation():
    """Software disaggregation allocates memory without cores (Sec. III-C)."""
    node = make_node()
    alloc = node.allocate("memsvc", memory_bytes=1 * GiB, kind="memservice")
    assert node.allocated_cores == 0
    assert node.allocated_memory == 1 * GiB
    assert alloc.kind == "memservice"


def test_over_allocation_rejected():
    node = make_node()
    node.allocate("job1", cores=36)
    with pytest.raises(AllocationError):
        node.allocate("job2", cores=1)
    with pytest.raises(AllocationError):
        node.allocate("job2", memory_bytes=129 * GiB)


def test_gpu_allocation_assigns_device_ids():
    node = Node("g0", DAINT_GPU)
    alloc = node.allocate("fn", cores=1, gpus=1, kind="function")
    assert alloc.gpu_ids == (0,)
    assert node.free_gpu_ids == frozenset()
    with pytest.raises(AllocationError):
        node.allocate("fn2", cores=1, gpus=1)
    node.release(alloc)
    assert node.free_gpu_ids == {0}


def test_empty_and_negative_allocations_rejected():
    node = make_node()
    with pytest.raises(ValueError):
        node.allocate("x")
    with pytest.raises(ValueError):
        node.allocate("x", cores=-1)


def test_draining_node_rejects_allocations():
    node = make_node()
    node.draining = True
    assert not node.can_allocate(memory_bytes=1)
    with pytest.raises(AllocationError):
        node.allocate("x", cores=1)


def test_release_unknown_allocation_raises():
    node = make_node()
    other = Node("n1", DAINT_MC)
    alloc = other.allocate("x", cores=1)
    with pytest.raises(KeyError):
        node.release(alloc)


def test_utilization_fractions():
    node = make_node()
    node.allocate("job", cores=18, memory_bytes=32 * GiB)
    assert node.core_utilization() == pytest.approx(0.5)


def test_allocations_of_kind():
    node = make_node()
    node.allocate("j", cores=4, kind="batch")
    node.allocate("f", cores=1, kind="function")
    assert len(node.allocations_of_kind("batch")) == 1
    assert len(node.allocations_of_kind("function")) == 1
    assert len(node.allocations) == 2
