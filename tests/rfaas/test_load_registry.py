"""The load registry's memoized slowdowns belong to one registry and its model."""

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
    models = [InterferenceModel(), InterferenceModel(turbo_drop=0.3)]
    registries = [NodeLoadRegistry(cluster, model) for model in models]
    for loads in registries:
        for i, demand in enumerate(mix):
            loads.add("n0000", f"t{i}", demand)
    values = [loads.slowdown_of("n0000", "t0") for loads in registries]
    assert values[0] != values[1]
    for loads, model, value in zip(registries, models, values):
        assert value == model.slowdowns(DAINT_MC, mix)[0]
        # A repeat query is answered from the memo with the same value.
        assert loads.slowdown_of("n0000", "t0") == value
