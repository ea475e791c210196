"""MPI-functions communicator: point-to-point and collectives."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.mpifn import Communicator
from repro.network import IBVERBS, NetworkFabric
from repro.sim import Environment


def make_comm(ranks=4, nodes=None):
    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    n_nodes = nodes or ranks
    cluster.add_nodes("n", n_nodes, DAINT_MC)
    provider = replace(IBVERBS, params=IBVERBS.params.with_jitter(0.0))
    fabric = NetworkFabric(env, cluster, provider, rng=np.random.default_rng(0))
    rank_nodes = [f"n{(i % n_nodes):04d}" for i in range(ranks)]
    comm = Communicator(env, fabric, rank_nodes)
    return env, comm


def test_send_recv_roundtrip():
    env, comm = make_comm(2)
    got = {}

    def sender():
        yield comm.send(0, 1, 1024, tag=7, payload="hello")

    def receiver():
        msg = yield comm.recv(1, source=0, tag=7)
        got["msg"] = msg
        got["t"] = env.now

    env.process(sender())
    env.process(receiver())
    env.run()
    assert got["msg"].payload == "hello"
    assert got["msg"].size_bytes == 1024
    assert got["t"] > 0  # network time elapsed


def test_recv_matches_source_and_tag():
    env, comm = make_comm(3)
    received = []

    def sender(src, tag, payload):
        yield comm.send(src, 2, 64, tag=tag, payload=payload)

    def receiver():
        # Posted for rank 1/tag 5 even though rank 0's message lands first.
        msg = yield comm.recv(2, source=1, tag=5)
        received.append(msg.payload)
        msg = yield comm.recv(2)  # wildcard picks up the remaining one
        received.append(msg.payload)

    env.process(sender(0, 9, "wrong"))

    def delayed():
        yield env.timeout(1.0)
        yield comm.send(1, 2, 64, tag=5, payload="right")

    env.process(delayed())
    env.process(receiver())
    env.run()
    assert received == ["right", "wrong"]


def test_self_send_is_instant():
    env, comm = make_comm(2)
    done = {}

    def proc():
        yield comm.send(0, 0, 10**9, payload="self")
        msg = yield comm.recv(0, source=0)
        done["t"] = env.now
        done["payload"] = msg.payload

    env.process(proc())
    env.run()
    assert done["payload"] == "self"
    assert done["t"] == 0.0  # no fabric involved


def test_rank_validation():
    env, comm = make_comm(2)
    with pytest.raises(ValueError):
        comm.send(0, 5, 10)
    with pytest.raises(ValueError):
        comm.recv(9)
    with pytest.raises(ValueError):
        comm.send(0, 1, -1)
    with pytest.raises(ValueError):
        Communicator(env, comm.fabric, [])


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8])
def test_binomial_tree_consistent(size):
    env, comm = make_comm(size)
    # Every non-root rank's parent lists it as a child.
    for root in range(size):
        for rank in range(size):
            parent, children = comm._binomial_peers(rank, root)
            if rank == root:
                assert parent is None
            else:
                assert parent is not None
                _, parent_children = comm._binomial_peers(parent, root)
                assert rank in parent_children


@pytest.mark.parametrize("size,root", [(1, 0), (2, 0), (4, 1), (5, 3), (8, 0)])
def test_bcast_delivers_to_all(size, root):
    env, comm = make_comm(size)
    results = {}

    def rank_prog(rank):
        value = yield comm.bcast(rank, root, 4096, value="data" if rank == root else None)
        results[rank] = value

    for rank in range(size):
        env.process(rank_prog(rank))
    env.run()
    assert results == {rank: "data" for rank in range(size)}


@pytest.mark.parametrize("size", [1, 2, 3, 4, 6, 8])
def test_allreduce_sums_everywhere(size):
    env, comm = make_comm(size)
    results = {}

    def rank_prog(rank):
        total = yield comm.allreduce(rank, 8, value=rank + 1)
        results[rank] = total

    for rank in range(size):
        env.process(rank_prog(rank))
    env.run()
    expected = sum(range(1, size + 1))
    assert results == {rank: expected for rank in range(size)}


def test_reduce_root_only_gets_result():
    env, comm = make_comm(4)
    results = {}

    def rank_prog(rank):
        out = yield comm.reduce(rank, 2, 8, value=10 * (rank + 1))
        results[rank] = out

    for rank in range(4):
        env.process(rank_prog(rank))
    env.run()
    assert results[2] == 100
    assert all(results[r] is None for r in (0, 1, 3))


def test_message_accounting():
    env, comm = make_comm(2)

    def prog():
        yield comm.send(0, 1, 500)
        yield comm.send(0, 1, 700)

    env.process(prog())
    env.run()
    assert comm.messages_sent == 2
    assert comm.bytes_sent == 1200


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=9),
    root=st.integers(min_value=0, max_value=8),
    values=st.lists(st.integers(min_value=-100, max_value=100), min_size=9, max_size=9),
)
def test_allreduce_matches_serial_sum(size, root, values):
    root = root % size
    env, comm = make_comm(size)
    results = {}

    def rank_prog(rank):
        out = yield comm.allreduce(rank, 8, value=values[rank])
        results[rank] = out

    for rank in range(size):
        env.process(rank_prog(rank))
    env.run()
    expected = sum(values[:size])
    assert all(v == expected for v in results.values())
