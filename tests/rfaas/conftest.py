"""Shared fixtures for rFaaS platform tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.containers import Image
from repro.interference import ResourceDemand
from repro.network import IBVERBS, UGNI, DrcManager, NetworkFabric
from repro.rfaas import (
    ExecutorMode,
    FunctionRegistry,
    NodeLoadRegistry,
    ResourceManager,
    RFaaSClient,
)
from repro.sim import Environment

MiB = 1024**2
GiB = 1024**3


def jitterless(provider):
    return replace(provider, params=provider.params.with_jitter(0.0))


class Harness:
    """A small cluster with a fabric, manager, registry, and client."""

    def __init__(self, nodes=4, provider=None, mode=ExecutorMode.HOT, seed=0):
        self.env = Environment()
        self.cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
        self.cluster.add_nodes("n", nodes, DAINT_MC)
        self.drc = DrcManager()
        provider = provider or jitterless(IBVERBS)
        self.fabric = NetworkFabric(
            self.env, self.cluster, provider,
            rng=np.random.default_rng(seed), drc=self.drc,
        )
        self.loads = NodeLoadRegistry(self.cluster)
        self.manager = ResourceManager(
            self.env, self.cluster, loads=self.loads, drc=self.drc,
            rng=np.random.default_rng(seed),
        )
        self.functions = FunctionRegistry()
        self.image = Image(name="fn-image", size_bytes=300 * MiB)
        self.mode = mode

    def register_node(self, name, cores=4, memory=8 * GiB):
        return self.manager.register_node(
            name, cores=cores, memory_bytes=memory, mode=self.mode
        )

    def register_function(self, name="noop", runtime_s=0.0, **kw):
        demand = kw.pop(
            "demand",
            ResourceDemand(cores=1, membw=0.2e9, llc_bytes=1 * MiB, frac_membw=0.02),
        )
        return self.functions.register(
            name, self.image, runtime_s=runtime_s, demand=demand, **kw
        )

    def client(self, client_node="n0000", **kw):
        return RFaaSClient(
            self.env, self.manager, self.fabric, self.functions,
            client_node=client_node, **kw,
        )


@pytest.fixture
def harness():
    return Harness()
