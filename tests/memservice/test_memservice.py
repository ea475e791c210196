"""Memory service buffers and remote paging tests."""

import pytest

from repro.api import Platform, PlatformConfig
from repro.memservice import DurableMemoryConfig, RemotePager
from repro.rfaas.errors import MemoryServiceUnavailable

MiB = 1024**2
GiB = 1024**3


class Setup:
    """A 1 GiB durable buffer on n0001, one replica, paged from n0000."""

    def __init__(self):
        self.platform = Platform.build(
            PlatformConfig(nodes=2, jitter=0.0, durable_memory=DurableMemoryConfig(
                size_bytes=1 * GiB, chunk_bytes=256 * MiB, replication=1,
                hosts=("n0001",),
            )),
            seed=0,
        )
        self.env = self.platform.env
        self.service = self.platform.durable_memory
        self.client = self.platform.memory_client("n0000")

    def run(self, generator):
        self.env.process(generator)
        self.env.run()


def test_service_allocates_node_memory():
    s = Setup()
    node = s.platform.cluster.node("n0001")
    assert node.allocated_memory == 1 * GiB
    assert len(node.allocations_of_kind("memservice")) == 4  # one per chunk
    s.service.stop()
    assert node.allocated_memory == 0


def test_double_start_rejected():
    s = Setup()
    with pytest.raises(RuntimeError):
        s.service.start()


def test_read_write_counts_and_bounds():
    s = Setup()

    def proc():
        yield s.client.read(0, 10 * MiB)
        yield s.client.write(512 * MiB, 10 * MiB)

    s.run(proc())
    stats = s.service.stats()
    assert stats["bytes_read"] == 10 * MiB
    assert stats["bytes_written"] == 10 * MiB
    with pytest.raises(ValueError):
        s.client.read(1 * GiB - 1, 2)  # crosses the end
    with pytest.raises(ValueError):
        s.client.read(-1, 10)


def test_access_requires_active_service():
    s = Setup()
    s.service.validate_access(0, 1024)
    s.service.stop()
    with pytest.raises(MemoryServiceUnavailable):
        s.service.validate_access(0, 1024)


def test_pager_faults_then_hits():
    s = Setup()
    pager = RemotePager(s.env, s.client, page_bytes=2 * MiB, resident_pages=4)
    outcomes = []

    def proc():
        for page in (0, 1, 0, 1):
            hit = yield pager.touch(page)
            outcomes.append(hit)

    s.run(proc())
    assert outcomes == [False, False, True, True]
    assert pager.faults == 2 and pager.hits == 2


def test_pager_lru_eviction_and_writeback():
    s = Setup()
    pager = RemotePager(s.env, s.client, page_bytes=2 * MiB, resident_pages=2)

    def proc():
        yield pager.touch(0, dirty=True)
        yield pager.touch(1)
        yield pager.touch(2)   # evicts page 0 (dirty -> writeback)
        hit = yield pager.touch(0)
        assert not hit

    s.run(proc())
    assert pager.writebacks == 1
    assert pager.resident_count == 2
    assert s.service.stats()["bytes_written"] == 2 * MiB


def test_pager_flush_writes_dirty_pages():
    s = Setup()
    pager = RemotePager(s.env, s.client, page_bytes=2 * MiB, resident_pages=8)

    def proc():
        yield pager.touch(0, dirty=True)
        yield pager.touch(1, dirty=True)
        yield pager.touch(2, dirty=False)
        flushed = yield pager.flush()
        assert flushed == 2

    s.run(proc())
    assert s.service.stats()["bytes_written"] == 2 * 2 * MiB


def test_pager_validation():
    s = Setup()
    with pytest.raises(ValueError):
        RemotePager(s.env, s.client, page_bytes=0)
    with pytest.raises(ValueError):
        RemotePager(s.env, s.client, page_bytes=2 * GiB)  # bigger than buffer
    pager = RemotePager(s.env, s.client, page_bytes=2 * MiB)
    with pytest.raises(ValueError):
        pager.touch(10**9)


def test_service_validation():
    with pytest.raises(ValueError):
        DurableMemoryConfig(size_bytes=0)
