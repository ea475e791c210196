"""Simulated transport and DRC credential tests."""

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.network import (
    DrcError,
    DrcManager,
    IBVERBS,
    NetworkFabric,
    PROVIDERS,
    TCP,
    UGNI,
)
from repro.sim import Environment


def make_fabric(provider=IBVERBS, nodes=4, drc=None, jitterless=True):
    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", nodes, DAINT_MC)
    if jitterless:
        from dataclasses import replace

        provider = replace(provider, params=provider.params.with_jitter(0.0))
    fabric = NetworkFabric(env, cluster, provider, rng=np.random.default_rng(1), drc=drc)
    return env, cluster, fabric


def run_transfer(env, fabric, src, dst, size, op="send"):
    result = {}

    def proc():
        conn = yield fabric.connect(src, dst, user="alice")
        ev = getattr(conn, op)(size)
        yield ev
        result["t"] = env.now
        result["bytes"] = ev.value

    env.process(proc())
    env.run()
    return result


def test_send_time_matches_loggp():
    env, cluster, fabric = make_fabric()
    size = 1 << 20
    res = run_transfer(env, fabric, "n0000", "n0001", size)
    # LogGP, two-sided: max(kG, g) serialization + 2o + L + topology hop.
    p = IBVERBS.params
    expected = (IBVERBS.connect_s + max(size * p.G, p.g) + 2 * p.o + p.L
                + cluster.hop_latency("n0000", "n0001"))
    assert res["t"] == pytest.approx(expected, rel=1e-9)
    assert res["bytes"] == size


def test_inter_group_slower_than_intra_group():
    env1, _, f1 = make_fabric()
    r1 = run_transfer(env1, f1, "n0000", "n0001", 1024)  # same group (size 2)
    env2, _, f2 = make_fabric()
    r2 = run_transfer(env2, f2, "n0000", "n0002", 1024)  # other group
    assert r2["t"] > r1["t"]


def test_concurrent_transfers_share_egress_bandwidth():
    env, _, fabric = make_fabric()
    done = []
    size = 100 << 20  # 100 MiB -> serialization dominates

    def proc(dst):
        conn = yield fabric.connect("n0000", dst, user="alice")
        yield conn.send(size)
        done.append(env.now)

    env.process(proc("n0001"))
    env.process(proc("n0002"))
    env.run()
    serialization = size * IBVERBS.params.G
    # The second flow must queue behind the first at n0000's egress.
    assert max(done) >= 2 * serialization
    assert min(done) < max(done)


def test_transfers_to_distinct_nodes_from_distinct_sources_overlap():
    env, _, fabric = make_fabric()
    done = []
    size = 100 << 20

    def proc(src, dst):
        conn = yield fabric.connect(src, dst, user="alice")
        yield conn.send(size)
        done.append(env.now)

    env.process(proc("n0000", "n0001"))
    env.process(proc("n0002", "n0003"))
    env.run()
    # Disjoint node pairs share nothing: both finish at the same time.
    assert done[0] == pytest.approx(done[1])


def test_rdma_read_returns_payload_from_target():
    env, _, fabric = make_fabric()
    res = run_transfer(env, fabric, "n0000", "n0001", 10 << 20, op="rdma_read")
    assert res["bytes"] == 10 << 20


def test_closed_connection_rejects_ops():
    env, _, fabric = make_fabric()

    def proc():
        conn = yield fabric.connect("n0000", "n0001", user="alice")
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send(10)

    env.process(proc())
    env.run()


def test_unknown_node_rejected():
    env, _, fabric = make_fabric()
    with pytest.raises(KeyError):
        fabric.connect("n0000", "nope", user="alice")


def test_ugni_requires_credential():
    drc = DrcManager()
    env, _, fabric = make_fabric(provider=UGNI, drc=drc)
    with pytest.raises(PermissionError):
        fabric.connect("n0000", "n0001", user="alice")


def test_ugni_with_granted_credential_connects():
    drc = DrcManager()
    cred = drc.acquire("executor-job")
    drc.grant(cred.cred_id, "executor-job", "alice")
    env, _, fabric = make_fabric(provider=UGNI, drc=drc)
    ok = {}

    def proc():
        conn = yield fabric.connect("n0000", "n0001", user="alice", cred_id=cred.cred_id)
        ok["conn"] = conn

    env.process(proc())
    env.run()
    assert ok["conn"].cred_id == cred.cred_id


def test_ugni_revoked_credential_denied():
    drc = DrcManager()
    cred = drc.acquire("job")
    drc.grant(cred.cred_id, "job", "alice")
    drc.release(cred.cred_id, "job")
    env, _, fabric = make_fabric(provider=UGNI, drc=drc)
    with pytest.raises(DrcError):
        fabric.connect("n0000", "n0001", user="alice", cred_id=cred.cred_id)


def test_drc_grant_requires_owner():
    drc = DrcManager()
    cred = drc.acquire("job")
    with pytest.raises(DrcError):
        drc.grant(cred.cred_id, "mallory", "mallory")
    with pytest.raises(DrcError):
        drc.authorize(999999, "alice")


def test_provider_registry_and_capabilities():
    assert set(PROVIDERS) == {"ugni", "ibverbs", "efa", "tcp"}
    assert UGNI.rdma_capable and UGNI.kernel_bypass
    assert not TCP.rdma_capable
    # The HPC fabrics must beat TCP on small-message latency by >10x.
    assert TCP.params.one_way(64) > 10 * UGNI.params.one_way(64)


def test_stats_accumulate():
    env, _, fabric = make_fabric()
    run_transfer(env, fabric, "n0000", "n0001", 1000)
    assert fabric.stats.messages == 1
    assert fabric.stats.bytes == 1000
