"""Cluster aggregate state and dragonfly topology tests."""

import pytest

from repro.cluster import (
    Cluster,
    DAINT_MC,
    DragonflyTopology,
    Node,
)

GiB = 1024**3


def small_cluster(n=4):
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", n, DAINT_MC)
    return cluster


def test_add_and_lookup_nodes():
    cluster = small_cluster(3)
    assert len(cluster) == 3
    assert "n0001" in cluster
    assert cluster.node("n0002").name == "n0002"
    assert cluster.node_index("n0000") == 0


def test_duplicate_node_rejected():
    cluster = Cluster()
    cluster.add_node(Node("a", DAINT_MC))
    with pytest.raises(ValueError):
        cluster.add_node(Node("a", DAINT_MC))


def test_idle_node_tracking():
    cluster = small_cluster(4)
    assert cluster.idle_node_count() == 4
    cluster.node("n0000").allocate("job", cores=36)
    assert cluster.idle_node_count() == 3
    cluster.node("n0001").draining = True
    assert cluster.idle_node_count() == 2


def test_utilization_aggregates():
    cluster = small_cluster(2)
    cluster.node("n0000").allocate("job", cores=36, memory_bytes=64 * GiB)
    assert cluster.core_utilization() == pytest.approx(0.5)


def test_hop_latency_levels():
    topo = DragonflyTopology(nodes_per_group=4, intra_group_hops=2, inter_group_hops=5, hop_latency_s=100e-9)
    assert topo.hops(0, 0) == 0
    assert topo.hops(0, 3) == 2
    assert topo.hops(0, 4) == 5
    assert topo.latency(0, 4) == pytest.approx(500e-9)


def test_topology_validation():
    with pytest.raises(ValueError):
        DragonflyTopology(nodes_per_group=0)
    with pytest.raises(ValueError):
        DragonflyTopology(intra_group_hops=6, inter_group_hops=5)
    topo = DragonflyTopology()
    with pytest.raises(ValueError):
        topo.group_of(-1)


def test_cluster_hop_latency_by_name():
    cluster = small_cluster(4)  # groups of 2
    assert cluster.hop_latency("n0000", "n0000") == 0
    assert cluster.hop_latency("n0000", "n0001") > 0
    assert cluster.hop_latency("n0000", "n0002") > cluster.hop_latency("n0000", "n0001")
