"""A state-machine test of the load registry's memoized slowdowns.

Hypothesis interleaves ``add`` and ``remove`` calls over one or two
nodes of different shapes, drawing demands from a small pool so that
tenant mixes recur.  After every step each query the registry answers
(``slowdowns``, every ``slowdown_of`` and ``preview_slowdown`` of every
candidate) must equal a fresh
``InterferenceModel.slowdowns`` call on the same ordered tenant list.
An over-subscribed mix must raise ``PlacementError`` on every query,
ahead of the ``KeyError`` of an unknown key.
"""

from dataclasses import replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cluster import DAINT_MC, Cluster, Node
from repro.interference import PlacementError, ResourceDemand
from repro.rfaas import NodeLoadRegistry

GBs = 1e9
MiB = 1024**2

SPECS = [DAINT_MC, replace(DAINT_MC, name="small", cores=12, sockets=2)]
NODES = ["n0000", "n0001"]
KEYS = ["a", "b", "c", "d"]
DEMANDS = [
    ResourceDemand(cores=1, membw=0.2 * GBs, llc_bytes=1 * MiB, frac_membw=0.02),
    ResourceDemand(cores=4, membw=12 * GBs, llc_bytes=26 * MiB, frac_membw=0.88),
    ResourceDemand(cores=8, netbw=3 * GBs, frac_netbw=0.4, frac_membw=0.1),
    ResourceDemand(cores=16, membw=40 * GBs, llc_bytes=60 * MiB, frac_membw=0.5),
]


class LoadMemoMachine(RuleBasedStateMachine):

    @initialize(nodes=st.integers(min_value=1, max_value=2))
    def build(self, nodes):
        cluster = Cluster()
        for name, spec in zip(NODES[:nodes], SPECS):
            cluster.add_node(Node(name, spec))
        self.loads = NodeLoadRegistry(cluster)
        self.nodes = NODES[:nodes]
        self.mix: dict[str, dict[str, ResourceDemand]] = {n: {} for n in self.nodes}

    def node(self, data):
        return data.draw(st.sampled_from(self.nodes))

    # -- mutations ------------------------------------------------------------------
    @rule(data=st.data(), key=st.sampled_from(KEYS), demand=st.sampled_from(DEMANDS))
    def add(self, data, key, demand):
        node = self.node(data)
        if key in self.mix[node]:
            with pytest.raises(ValueError):
                self.loads.add(node, key, demand)
        else:
            self.loads.add(node, key, demand)
            self.mix[node][key] = demand

    @rule(data=st.data(), key=st.sampled_from(KEYS))
    def remove(self, data, key):
        node = self.node(data)
        if key in self.mix[node]:
            self.loads.remove(node, key)
            del self.mix[node][key]
        else:
            with pytest.raises(KeyError):
                self.loads.remove(node, key)

    # -- the check ------------------------------------------------------------------
    def fresh(self, node, demands):
        """A fresh model evaluation, or the ``PlacementError`` it raises."""
        spec = self.loads.cluster.node(node).spec
        try:
            return self.loads.model.slowdowns(spec, demands)
        except PlacementError as exc:
            return exc

    @invariant()
    def queries_match_a_fresh_model(self):
        for node in self.nodes:
            mix = self.mix[node]
            expected = self.fresh(node, list(mix.values()))
            if isinstance(expected, PlacementError):
                # Every query raises, every time: the error is never cached,
                # and it takes precedence over an unknown key.
                for _ in range(2):
                    with pytest.raises(PlacementError):
                        self.loads.slowdowns(node)
                    for key in KEYS:
                        with pytest.raises(PlacementError):
                            self.loads.slowdown_of(node, key)
            else:
                assert self.loads.slowdowns(node) == dict(zip(mix, expected))
                for key in KEYS:
                    if key in mix:
                        assert self.loads.slowdown_of(node, key) == expected[list(mix).index(key)]
                    else:
                        with pytest.raises(KeyError):
                            self.loads.slowdown_of(node, key)
            for candidate in DEMANDS:
                preview = self.fresh(node, list(mix.values()) + [candidate])
                if isinstance(preview, PlacementError):
                    with pytest.raises(PlacementError):
                        self.loads.preview_slowdown(node, candidate)
                else:
                    keys = list(mix) + ["<candidate>"]
                    assert self.loads.preview_slowdown(node, candidate) == dict(zip(keys, preview))


LoadMemoMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestLoadMemo = LoadMemoMachine.TestCase
