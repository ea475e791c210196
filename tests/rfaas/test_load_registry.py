"""The load registry's memoized slowdowns belong to one registry."""

from repro.cluster import DAINT_MC, Cluster
from repro.interference import InterferenceModel, ResourceDemand
from repro.rfaas import NodeLoadRegistry

GBs = 1e9


def test_memo_is_per_registry():
    cluster = Cluster()
    cluster.add_nodes("n", 1, DAINT_MC)
    mix = [
        ResourceDemand(cores=12, membw=20 * GBs, frac_membw=0.3),
        ResourceDemand(cores=8, netbw=2 * GBs, frac_netbw=0.2),
    ]
    first, second = NodeLoadRegistry(cluster), NodeLoadRegistry(cluster)
    for i, demand in enumerate(mix):
        first.add("n0000", f"t{i}", demand)
    value = first.slowdown_of("n0000", "t0")
    assert value == InterferenceModel().slowdowns(DAINT_MC, mix)[0]
    # A repeat query is answered from the memo with the same value.
    assert first.slowdown_of("n0000", "t0") == value
    # The memo belongs to the registry that filled it.
    assert first._memo and not second._memo
