"""A state-machine test of the replicated resource manager.

Hypothesis interleaves front-door mutations (register, lease, release,
revoke, remove), control-plane faults (crash or partition the primary)
and the passage of sim time, and after every step compares the manager
with a small reference model: the nodes that should be registered and
a dict of the leases that should be active.

Every node starts registered, and every crash and partition heals after
a while, so runs keep coming back to a serving manager.  The model
tracks reachability itself: a crash or a partition takes the primary
out of reach at once, and only the failure detector (that is, time) can
bring a primary back.  While no primary is in reach, every fenced
mutation must raise :class:`ManagerUnavailableError` and leave the
manager untouched; a release is buffered instead.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import DAINT_MC, Cluster
from repro.controlplane import HAConfig, ReplicaRole, ReplicatedResourceManager
from repro.faults import (
    check_epoch_monotonic,
    check_no_double_grant,
    check_single_primary,
)
from repro.rfaas import ManagerUnavailableError, NoCapacityError
from repro.sim import Environment
from repro.telemetry import Telemetry

GiB = 1024**3
NODES = [f"n{i:04d}" for i in range(4)]


class ReplicatedManagerMachine(RuleBasedStateMachine):

    @initialize(standbys=st.integers(min_value=0, max_value=2),
                cores=st.lists(st.integers(min_value=1, max_value=8),
                               min_size=len(NODES), max_size=len(NODES)))
    def build(self, standbys, cores):
        self.env = Environment()
        Telemetry(env=self.env).install(self.env)
        cluster = Cluster()
        cluster.add_nodes("n", len(NODES), DAINT_MC)
        self.ha = ReplicatedResourceManager(
            self.env, cluster, config=HAConfig(standbys=standbys),
            rng=np.random.default_rng(0),
        )
        self.ha.start()
        self.nodes: dict[str, int] = {}   # node -> registered cores
        self.leases: dict = {}            # lease id -> lease that should be active
        self.granted: list = []           # every lease ever granted
        self.reachable = True
        for node, count in zip(NODES, cores):
            self.register(node, count)

    # -- front-door mutations, with a primary in reach ---------------------------
    @precondition(lambda self: self.reachable and len(self.nodes) < len(NODES))
    @rule(node=st.sampled_from(NODES), cores=st.integers(min_value=1, max_value=8))
    def register(self, node, cores):
        if node not in self.nodes:
            self.ha.register_node(node, cores=cores, memory_bytes=4 * GiB)
            self.nodes[node] = cores

    @precondition(lambda self: self.reachable and self.nodes)
    @rule(cores=st.integers(min_value=1, max_value=6))
    def lease(self, cores):
        fits = any(self.ha.node_info(n).cores_free >= cores for n in self.nodes)
        try:
            lease, _ = self.ha.lease("c", cores=cores)
        except NoCapacityError:
            assert not fits
        else:
            assert fits
            assert lease.epoch == self.ha.epoch
            self.leases[lease.lease_id] = lease
            self.granted.append(lease)

    @precondition(lambda self: self.reachable and self.granted)
    @rule(index=st.integers(min_value=0, max_value=63))
    def revoke(self, index):
        lease = self.granted[index % len(self.granted)]
        revoked = self.ha.revoke_lease(lease, reason="test")
        if self.leases.pop(lease.lease_id, None) is not None:
            assert revoked

    @precondition(lambda self: self.reachable and self.nodes)
    @rule(node=st.sampled_from(NODES), immediate=st.booleans())
    def remove(self, node, immediate):
        assert self.ha.remove_node(node, immediate=immediate) == (node in self.nodes)
        self.nodes.pop(node, None)
        self.leases = {lid: lease for lid, lease in self.leases.items()
                       if lease.node_name != node}

    @precondition(lambda self: self.granted)
    @rule(index=st.integers(min_value=0, max_value=63))
    def release(self, index):
        lease = self.granted[index % len(self.granted)]
        self.ha.release_lease(lease)   # buffered when no primary is in reach
        self.leases.pop(lease.lease_id, None)

    # -- front-door mutations, with no primary in reach --------------------------
    @precondition(lambda self: not self.reachable)
    @rule(node=st.sampled_from(NODES), index=st.integers(min_value=0, max_value=63))
    def refused(self, node, index):
        """Every fenced mutation raises and leaves the manager untouched.

        Then a heartbeat interval passes, so that a run of refusals also
        reaches the takeover (Hypothesis may disable ``advance_time``
        for a whole run).
        """
        mutations = [
            lambda: self.ha.register_node(node, cores=1, memory_bytes=GiB),
            lambda: self.ha.remove_node(node),
            lambda: self.ha.lease("c"),
        ]
        if self.granted:
            lease = self.granted[index % len(self.granted)]
            mutations.append(lambda: self.ha.revoke_lease(lease))
        for mutation in mutations:
            before = self._state()
            with pytest.raises(ManagerUnavailableError):
                mutation()
            assert self._state() == before
        self.advance_time(0.1)

    def _state(self):
        return (
            [(lease.lease_id, node) for lease, node in self.ha.active_leases()],
            self.ha.registered_nodes(),
            self.ha.total_free_cores(),
            len(self.ha.commit_log),
        )

    # -- control-plane faults and time -----------------------------------------
    @precondition(lambda self: self.ha.primary is not None)
    @rule(outage=st.sampled_from([0.5, 1.0]))
    def crash_primary(self, outage):
        standby_left = any(r.role is ReplicaRole.STANDBY for r in self.ha.replicas)
        assert self.ha.crash_primary(outage_s=outage) is not None
        self.reachable = False
        if not standby_left:
            # Total control-plane loss orphans the whole data plane.
            self.nodes.clear()
            self.leases.clear()

    @precondition(lambda self: self.reachable)
    @rule(heal=st.sampled_from([0.2, 1.0]))
    def partition_primary(self, heal):
        assert self.ha.partition_primary(heal_after_s=heal) is not None
        self.reachable = False

    @rule(dt=st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    def advance_time(self, dt):
        self.env.run(until=self.env.now + dt)
        self.reachable = self.ha.available

    # -- invariants --------------------------------------------------------------
    @invariant()
    def data_plane_matches_the_model(self):
        assert self.ha.available == self.reachable
        assert self.ha.registered_nodes() == sorted(self.nodes)
        assert {l.lease_id: l for l, _ in self.ha.active_leases()} == self.leases
        scan = sum(self.ha.node_info(n).cores_free
                   for n in self.ha.registered_nodes())
        assert self.ha.total_free_cores() == scan

    @invariant()
    def certification_invariants_hold(self):
        assert check_no_double_grant(self.ha.commit_log) == []
        assert check_epoch_monotonic(self.ha.commit_log) == []
        assert check_single_primary(self.ha.elections, self.ha.replicas) == []


ReplicatedManagerMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None,
)
TestReplicatedManager = ReplicatedManagerMachine.TestCase
