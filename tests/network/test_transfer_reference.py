"""The fabric's two-event transfers against a process-per-message model.

``ReferenceFabric`` keeps the transfer as a process that holds the
source's egress ``FifoLock``, then the destination's ingress
``FifoLock``, for the serialization time, and lands one latency later.
The fabric spends two events on a transfer: its serialization timer,
and its done event, which it schedules to land one latency after that.
Both fabrics draw jitter and loss through the same ``_timing``.

The two agree on every schedule in which no link is handed over at the
same instant as another handover or a new transfer.  Such a race has no
physical order; the process model broke it by how many zero-delay hops
each contender was from its request, while the fabric grants in request
order (``test_a_same_instant_race_grants_in_request_order``).  Jittered
latencies make the race a measure-zero event in every sweep.
"""

from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.network import IBVERBS, Connection, NetworkFabric, TransferDropped
from repro.sim import Environment

NODES = [f"n{i:04d}" for i in range(4)]
OPS = ("send", "recv_response", "rdma_read", "rdma_write")


class FifoLock:
    """One link held by one transfer at a time, granted in request order.

    A free lock's grant is an already-triggered event, so the requester
    resumes one zero-delay hop later; a release succeeds the head
    waiter's grant; a waiter that leaves before its grant is dropped.
    """

    def __init__(self, env):
        self.env = env
        self.holder = None
        self.waiters = deque()

    @contextmanager
    def request(self):
        grant = self.env.event()
        if self.holder is None and not self.waiters:
            self.holder = grant
            grant.succeed()
        else:
            self.waiters.append(grant)
        try:
            yield grant
        finally:
            if self.holder is not grant:
                self.waiters.remove(grant)
            elif self.waiters:
                self.holder = self.waiters.popleft()
                self.holder.succeed()
            else:
                self.holder = None


class ReferenceFabric(NetworkFabric):
    """A transfer is a process nesting an egress and an ingress FifoLock."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.links = {}
        self.handovers = []  # instants at which a transfer frees its links

    def link(self, key):
        if key not in self.links:
            self.links[key] = FifoLock(self.env)
        return self.links[key]

    def _transfer(self, conn, src, dst, size_bytes, one_sided):
        serialization, latency, dropped = self._timing(src, dst, size_bytes, one_sided)
        egress, ingress = self.link(("out", src)), self.link(("in", dst))

        def run():
            if dropped:
                yield self.env.timeout(latency)
                raise TransferDropped("dropped", src=src, dst=dst)
            with egress.request() as ereq:
                yield ereq
                with ingress.request() as ireq:
                    yield ireq
                    yield self.env.timeout(serialization)
                    self.handovers.append(self.env.now)
            yield self.env.timeout(latency)
            self.stats.record(size_bytes)
            return size_bytes

        return self.env.process(run(), name="xfer")


def simulate(fabric_cls, transfers, partitions=(), drop_rate=0.0,
             latency_factor=1.0, bandwidth_factor=1.0):
    """Issue every ``(at, src, dst, size, op)``; each partition is
    ``(at, duration, nodes)``.  Returns the fabric and each transfer's
    outcome: ``("landed", time, value)`` or ``("dropped", time, src, dst)``."""
    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", len(NODES), DAINT_MC)
    fabric = fabric_cls(env, cluster, IBVERBS, rng=np.random.default_rng(7))
    fabric.conditioner.degrade(latency_factor, bandwidth_factor)
    fabric.conditioner.set_loss(drop_rate, rng=np.random.default_rng(11))
    outcomes = {}

    def partition(at, duration, nodes):
        yield env.timeout(at)
        fabric.conditioner.partition(nodes)
        yield env.timeout(duration)
        fabric.conditioner.heal(nodes)

    def issue(index, at, src, dst, size, op):
        yield env.timeout(at)
        conn = Connection(fabric, src, dst, "alice", None)
        try:
            value = yield getattr(conn, op)(size)
            outcomes[index] = ("landed", env.now, value)
        except TransferDropped as exc:
            outcomes[index] = ("dropped", env.now, exc.src, exc.dst)

    for spec in partitions:
        env.process(partition(*spec))
    for index, spec in enumerate(transfers):
        env.process(issue(index, *spec))
    env.run()
    return fabric, outcomes


# Issue instants on a coarse grid, so transfers start together and queue
# on shared links; sizes span the g-bound small message (one shared
# serialization time) to bandwidth-bound ones.
instants = st.integers(min_value=0, max_value=40).map(lambda k: k * 2e-6)
transfer = st.tuples(
    instants,
    st.sampled_from(NODES),
    st.sampled_from(NODES),
    st.one_of(st.just(0), st.integers(min_value=0, max_value=1 << 20)),
    st.sampled_from(OPS),
)
partition = st.tuples(
    instants,
    instants,
    st.sets(st.sampled_from(NODES), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    transfers=st.lists(transfer, min_size=1, max_size=40),
    partitions=st.lists(partition, max_size=3),
    drop_rate=st.sampled_from([0.0, 0.0, 0.2, 0.7]),
    latency_factor=st.sampled_from([1.0, 0.5, 3.0]),
    bandwidth_factor=st.sampled_from([1.0, 0.25, 2.0]),
)
def test_fabric_matches_the_process_reference(transfers, partitions, drop_rate,
                                              latency_factor, bandwidth_factor):
    args = (transfers, partitions, drop_rate, latency_factor, bandwidth_factor)
    reference, expected = simulate(ReferenceFabric, *args)
    handovers = reference.handovers
    assume(len(set(handovers)) == len(handovers))
    assume(not set(handovers) & {spec[0] for spec in transfers})
    fabric, got = simulate(NetworkFabric, *args)
    assert got == expected
    assert len(got) == len(transfers)
    assert (fabric.stats.messages, fabric.stats.bytes) == (
        reference.stats.messages, reference.stats.bytes)


def test_a_same_instant_race_grants_in_request_order():
    """A (n2->n0) ends its serialization at 1.5e-7, the instant C
    (n0->n3) is issued.  C asks for n3's ingress at once; B (n2->n3),
    queued on n2's egress behind A, asks only when A hands that over.
    The process model let B win: C's request was two hops away."""
    g = IBVERBS.params.g
    n = NODES
    transfers = [(2 * g, n[2], n[0], 0, "send"), (2 * g, n[2], n[3], 0, "send"),
                 (3 * g, n[0], n[3], 0, "send")]
    _, got = simulate(NetworkFabric, transfers)
    _, reference = simulate(ReferenceFabric, transfers)
    # C serializes first, B right behind it: each moves by one slot g.
    assert reference[2][1] - got[2][1] == pytest.approx(g)
    assert got[1][1] - reference[1][1] == pytest.approx(g)


def test_a_daemon_issued_transfer_keeps_run_alive():
    """A daemon here is a loop that waits on ticks.  The transfer's
    timers are live entries: run() returns only once it lands."""
    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", 2, DAINT_MC)
    fabric = NetworkFabric(env, cluster, IBVERBS, rng=np.random.default_rng(7))
    landed = []

    def background():
        conn = Connection(fabric, "n0000", "n0001", "alice", None)
        size = yield conn.rdma_write(1 << 20)
        landed.append((env.now, size))
        while True:  # the loop's own ticks never keep run() alive
            yield env.tick(1.0)

    env.process(background())
    env.run()
    assert [size for _, size in landed] == [1 << 20]
    assert landed[0][0] > (1 << 20) * IBVERBS.params.G
    assert fabric.stats.messages == 1
