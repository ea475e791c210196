"""ReplicaPlacement: deterministic, group-aware, drain-aware spreading."""

import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.memservice import ReplicaPlacement

MiB = 1024**2


def make_cluster(nodes=8, nodes_per_group=2):
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=nodes_per_group))
    cluster.add_nodes("n", nodes, DAINT_MC)
    return cluster


def names(n):
    return tuple(f"n{i:04d}" for i in range(n))


def test_rejects_empty_unknown_and_duplicate_hosts():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        ReplicaPlacement(cluster, ())
    with pytest.raises(KeyError):
        ReplicaPlacement(cluster, ("n9999",))
    with pytest.raises(ValueError):
        ReplicaPlacement(cluster, ("n0001", "n0001"))


def test_replicas_land_on_distinct_nodes_and_groups():
    cluster = make_cluster(nodes=8, nodes_per_group=2)
    placement = ReplicaPlacement(cluster, names(8))
    topology = cluster.topology
    for chunk in range(16):
        chosen = placement.replica_nodes(chunk, 3)
        assert len(chosen) == 3 and len(set(chosen)) == 3
        groups = {topology.group_of(cluster.node_index(n)) for n in chosen}
        assert len(groups) == 3  # 4 groups available: never two in one


def test_rotation_spreads_primaries_across_chunks():
    cluster = make_cluster(nodes=8, nodes_per_group=2)
    placement = ReplicaPlacement(cluster, names(8))
    primaries = [placement.replica_nodes(i, 1)[0] for i in range(8)]
    # Consecutive chunks do not hammer one node.
    assert len(set(primaries)) > 1
    # And the layout is a pure function of the chunk index.
    assert primaries == [placement.replica_nodes(i, 1)[0] for i in range(8)]


def test_under_placement_is_reported_not_raised():
    cluster = make_cluster(nodes=4)
    placement = ReplicaPlacement(cluster, ("n0001", "n0002"))
    assert len(placement.replica_nodes(0, 3)) == 2
    with pytest.raises(ValueError):
        placement.replica_nodes(0, 0)


def test_exclude_and_draining_nodes_are_skipped():
    cluster = make_cluster(nodes=6, nodes_per_group=2)
    hosts = names(6)
    placement = ReplicaPlacement(cluster, hosts)
    first = placement.pick_target((), 1 * MiB)
    assert placement.pick_target((first,), 1 * MiB) not in (first, None)
    cluster.node("n0003").draining = True
    for chunk in range(6):
        assert "n0003" not in placement.replica_nodes(chunk, 5)
    assert placement.pick_target((), 1 * MiB) != "n0003"
    cluster.node("n0003").draining = False


def test_pick_target_respects_free_memory():
    cluster = make_cluster(nodes=4, nodes_per_group=2)
    placement = ReplicaPlacement(cluster, ("n0001", "n0002"))
    target = placement.pick_target((), 1 * MiB)
    assert target in ("n0001", "n0002")
    huge = cluster.node("n0001").free_memory + cluster.node("n0002").free_memory
    assert placement.pick_target((), huge) is None
    assert placement.pick_target(("n0001", "n0002"), 1) is None
