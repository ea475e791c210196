"""Memory service function and remote paging tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.interference import InterferenceModel, ResourceDemand
from repro.memservice import (
    MemoryClient,
    MemoryServiceFunction,
    RemotePager,
    TrafficPattern,
)
from repro.network import IBVERBS, NetworkFabric
from repro.rfaas import NodeLoadRegistry
from repro.sim import Environment

MiB = 1024**2
GiB = 1024**3


class Setup:
    def __init__(self):
        self.env = Environment()
        self.cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
        self.cluster.add_nodes("n", 2, DAINT_MC)
        provider = replace(IBVERBS, params=IBVERBS.params.with_jitter(0.0))
        self.fabric = NetworkFabric(self.env, self.cluster, provider,
                                    rng=np.random.default_rng(0))
        self.loads = NodeLoadRegistry(self.cluster)
        self.service = MemoryServiceFunction(
            self.env, self.cluster.node("n0001"), size_bytes=1 * GiB, loads=self.loads
        )

    def connect_client(self):
        holder = {}

        def proc():
            yield self.service.start()
            conn = yield self.fabric.connect("n0000", "n0001", user="app")
            holder["client"] = MemoryClient(self.env, self.fabric, self.service, conn)

        self.env.process(proc())
        self.env.run()
        return holder["client"]


def test_service_allocates_node_memory():
    s = Setup()
    s.connect_client()
    node = s.cluster.node("n0001")
    assert node.allocated_memory == 1 * GiB
    assert node.allocations_of_kind("memservice")
    s.service.stop()
    assert node.allocated_memory == 0


def test_double_start_rejected():
    s = Setup()
    s.connect_client()
    with pytest.raises(RuntimeError):
        s.service.start()


def test_read_write_counts_and_bounds():
    s = Setup()
    client = s.connect_client()

    def proc():
        yield client.read(0, 10 * MiB)
        yield client.write(512 * MiB, 10 * MiB)

    s.env.process(proc())
    s.env.run()
    assert s.service.bytes_read == 10 * MiB
    assert s.service.bytes_written == 10 * MiB
    with pytest.raises(ValueError):
        client.read(1 * GiB - 1, 2)  # crosses the end
    with pytest.raises(ValueError):
        client.read(-1, 10)


def test_access_requires_active_service():
    s = Setup()
    client = s.connect_client()
    s.service.stop()
    with pytest.raises(RuntimeError):
        client.read(0, 1024)


def test_stream_registers_background_traffic():
    s = Setup()
    client = s.connect_client()
    pattern = TrafficPattern(op_bytes=10 * MiB, interval_s=0.01)
    observed = {}

    def watcher():
        yield s.env.timeout(0.05)
        observed["netbw"] = s.loads._extra_netbw.get("n0001", 0.0)

    def proc():
        ops = yield client.stream(pattern, duration_s=0.2)
        observed["ops"] = ops

    s.env.process(proc())
    s.env.process(watcher())
    s.env.run()
    assert observed["ops"] > 5
    assert observed["netbw"] > 100 * MiB  # hundreds of MB/s offered
    # Cleared after the stream finished.
    assert s.loads._extra_netbw.get("n0001", 0.0) == 0.0


def test_overlapping_streams_remove_only_their_own_traffic():
    s = Setup()
    client = s.connect_client()
    pattern = TrafficPattern(op_bytes=10 * MiB, interval_s=0.01)
    observed = {}

    def watcher():
        yield s.env.timeout(0.2)  # the short stream is over, the long one is not
        observed["netbw"] = s.loads._extra_netbw.get("n0001", 0.0)
        observed["membw"] = s.loads._extra_membw.get("n0001", 0.0)

    s.env.process(watcher())
    short = client.stream(pattern, duration_s=0.1)
    long = client.stream(pattern, duration_s=0.4)
    s.env.run()
    assert short.value > 0 and long.value > 0
    assert observed["netbw"] > 100 * MiB
    assert observed["membw"] == observed["netbw"]
    # The last stream leaves exactly nothing behind: no float residue
    # that would switch on the model's sharing noise.
    assert s.loads._extra_netbw.get("n0001", 0.0) == 0.0
    assert s.loads._extra_membw.get("n0001", 0.0) == 0.0
    solo = ResourceDemand(cores=4, membw=20e9, frac_membw=0.5)
    s.loads.add("n0001", "job", solo)
    assert s.loads.slowdown_of("n0001", "job") == InterferenceModel().slowdowns(DAINT_MC, [solo])[0]


def test_traffic_pattern_validation():
    with pytest.raises(ValueError):
        TrafficPattern(op_bytes=0, interval_s=0.1)
    with pytest.raises(ValueError):
        TrafficPattern(op_bytes=1, interval_s=-1)
    p = TrafficPattern(op_bytes=10 * MiB, interval_s=0.0)
    assert p.mean_bandwidth(0.01) == pytest.approx(10 * MiB / 0.01)


def test_pager_faults_then_hits():
    s = Setup()
    client = s.connect_client()
    pager = RemotePager(s.env, client, page_bytes=2 * MiB, resident_pages=4)
    outcomes = []

    def proc():
        for page in (0, 1, 0, 1):
            hit = yield pager.touch(page)
            outcomes.append(hit)

    s.env.process(proc())
    s.env.run()
    assert outcomes == [False, False, True, True]
    assert pager.faults == 2 and pager.hits == 2


def test_pager_lru_eviction_and_writeback():
    s = Setup()
    client = s.connect_client()
    pager = RemotePager(s.env, client, page_bytes=2 * MiB, resident_pages=2)

    def proc():
        yield pager.touch(0, dirty=True)
        yield pager.touch(1)
        yield pager.touch(2)   # evicts page 0 (dirty -> writeback)
        hit = yield pager.touch(0)
        assert not hit

    s.env.process(proc())
    s.env.run()
    assert pager.writebacks == 1
    assert pager.resident_count == 2


def test_pager_flush_writes_dirty_pages():
    s = Setup()
    client = s.connect_client()
    pager = RemotePager(s.env, client, page_bytes=2 * MiB, resident_pages=8)

    def proc():
        yield pager.touch(0, dirty=True)
        yield pager.touch(1, dirty=True)
        yield pager.touch(2, dirty=False)
        flushed = yield pager.flush()
        assert flushed == 2

    s.env.process(proc())
    s.env.run()
    assert s.service.bytes_written == 2 * 2 * MiB


def test_pager_validation():
    s = Setup()
    client = s.connect_client()
    with pytest.raises(ValueError):
        RemotePager(s.env, client, page_bytes=0)
    with pytest.raises(ValueError):
        RemotePager(s.env, client, page_bytes=2 * GiB)  # bigger than buffer
    pager = RemotePager(s.env, client, page_bytes=2 * MiB)
    with pytest.raises(ValueError):
        pager.touch(10**9)


def test_service_validation():
    s = Setup()
    with pytest.raises(ValueError):
        MemoryServiceFunction(s.env, s.cluster.node("n0000"), size_bytes=0)
