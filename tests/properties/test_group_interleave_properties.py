"""Property tests of the topology spread, ``group_interleave``.

Warm-pool prewarming and replica placement both order their candidate
slots with this one function.  The tests check it against two
brute-force references: a round-by-round simulation that scans every
group for the first slot with budget left, and the replica-placement
rotation it replaced, which only knows unit budgets.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import DAINT_MC, Cluster, DragonflyTopology, group_interleave

NODES = 12


def make_cluster(nodes_per_group: int) -> Cluster:
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=nodes_per_group))
    cluster.add_nodes("n", NODES, DAINT_MC)
    return cluster


def group_of(cluster: Cluster, node: str) -> int:
    return cluster.topology.group_of(cluster.node_index(node))


def rounds_reference(cluster, candidates, start):
    """Each round visits the groups in order and takes, from each, the
    first slot (in rotated sorted order) that still has budget."""
    groups: dict[int, list[str]] = {}
    budget = {}
    for slot, node, room in candidates:
        if room > 0:
            groups.setdefault(group_of(cluster, node), []).append(slot)
            budget[slot] = room
    rotations = []
    for _, slots in sorted(groups.items()):
        slots = sorted(slots)
        k = start % len(slots)
        rotations.append(slots[k:] + slots[:k])
    if rotations:
        k = start % len(rotations)
        rotations = rotations[k:] + rotations[:k]
    order = []
    while any(budget[s] for rotation in rotations for s in rotation):
        for rotation in rotations:
            for slot in rotation:
                if budget[slot]:
                    order.append(slot)
                    budget[slot] -= 1
                    break
    return order


def replica_reference(cluster, hosts, start):
    """Replica placement's original rotation, unit budgets only."""
    groups: dict[int, list[str]] = {}
    for name in hosts:
        groups.setdefault(group_of(cluster, name), []).append(name)
    rotations = [sorted(names) for _, names in sorted(groups.items())]
    if not rotations:
        return []
    rotations = [r[start % len(r):] + r[: start % len(r)] for r in rotations]
    first = start % len(rotations)
    rotations = rotations[first:] + rotations[:first]
    out = []
    i = 0
    while rotations:
        rotation = rotations[i]
        out.append(rotation.pop(0))
        if not rotation:
            rotations.pop(i)
            if not rotations:
                break
            i %= len(rotations)
        else:
            i = (i + 1) % len(rotations)
    return out


slot_sets = st.dictionaries(
    st.integers(min_value=0, max_value=NODES - 1),      # node index
    st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3),
    max_size=NODES,
)


def candidates_of(slots):
    """``(slot, node, budget)`` triples, a node hosting 1-3 slots."""
    return [(f"n{node:04d}/s{i}", f"n{node:04d}", room)
            for node, rooms in slots.items() for i, room in enumerate(rooms)]


@settings(max_examples=200, deadline=None)
@given(slots=slot_sets, nodes_per_group=st.integers(min_value=1, max_value=5),
       start=st.integers(min_value=0, max_value=50))
def test_matches_the_round_by_round_reference(slots, nodes_per_group, start):
    cluster = make_cluster(nodes_per_group)
    candidates = candidates_of(slots)
    order = group_interleave(cluster, candidates, start)
    assert order == rounds_reference(cluster, candidates, start)
    # Every slot is placed exactly up to its budget, never past it.
    for slot, _, room in candidates:
        assert order.count(slot) == max(0, room)
    # Groups cycle before slots within a group: while two groups still
    # have budget left, no group is picked twice in a row.
    left = {}
    for slot, node, room in candidates:
        gid = group_of(cluster, node)
        left[gid] = left.get(gid, 0) + max(0, room)
    previous = None
    for slot in order:
        gid = group_of(cluster, slot.split("/")[0])
        if sum(1 for n in left.values() if n) > 1:
            assert gid != previous
        left[gid] -= 1
        previous = gid


@settings(max_examples=200, deadline=None)
@given(hosts=st.sets(st.integers(min_value=0, max_value=NODES - 1)),
       nodes_per_group=st.integers(min_value=1, max_value=5),
       start=st.integers(min_value=0, max_value=50))
def test_unit_budgets_reproduce_replica_placement(hosts, nodes_per_group, start):
    cluster = make_cluster(nodes_per_group)
    names = [f"n{i:04d}" for i in sorted(hosts)]
    order = group_interleave(cluster, [(n, n, 1) for n in names], start)
    assert order == replica_reference(cluster, names, start)
