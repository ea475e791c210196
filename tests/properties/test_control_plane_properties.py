"""Property tests of the control plane's live counters.

The admission controller keeps a running queue depth and the resource
manager a running free-core total instead of rescanning their state on
every request.  These tests drive random operation sequences and check
each counter, and the gauge that exports it, against what the test can
see for itself after every step: the requests still blocked, or a
brute-force scan of the registered nodes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.capacity import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    TenantQuota,
)
from repro.cluster import DAINT_MC, Cluster
from repro.rfaas import NoCapacityError, ResourceManager
from repro.sim import Environment
from repro.telemetry import TelemetryCollector, telemetry_of

GiB = 1024**3
INF = float("inf")


@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),          # tenant
            st.integers(min_value=0, max_value=2),      # priority
            st.integers(min_value=0, max_value=8),      # gap before it, in 1/8 s
        ),
        min_size=1, max_size=40,
    ),
    max_depth=st.integers(min_value=0, max_value=4),
    max_wait=st.sampled_from([0.25, 0.5, 1.5]),
    rate=st.sampled_from([1.0, 2.0, 4.0]),
    burst=st.sampled_from([1.0, 2.5]),
)
def test_admission_depth_counts_the_blocked_waiters(arrivals, max_depth, max_wait,
                                                    rate, burst):
    env = Environment()
    with TelemetryCollector():
        controller = AdmissionController(env, AdmissionConfig(
            max_queue_depth=max_depth, max_queue_wait_s=max_wait,
            quota=TenantQuota(rate_per_s=rate, burst=burst),
        ))
    gauge = telemetry_of(env).metrics.get("repro_capacity_queue_depth_count")
    blocked = set()
    outcomes = {}

    def request(i, tenant, priority):
        blocked.add(i)
        try:
            yield from controller.admit(tenant, priority=priority)
        except AdmissionRejected as err:
            outcomes[i] = err.reason
        else:
            outcomes[i] = "admitted"
        blocked.discard(i)

    def advance(until=INF):
        # One event time at a time: once every event at an instant has
        # run, a request is either finished or parked in the queue.
        while True:
            t_next = env.peek()
            if t_next == INF or t_next > until:
                return
            env.run(until=t_next)
            assert controller.queue_depth() == len(blocked)
            assert gauge.value == controller.queue_depth()

    t = 0.0
    for i, (tenant, priority, gap) in enumerate(arrivals):
        t += gap / 8
        advance(t)
        env.run(until=t)
        env.process(request(i, tenant, priority))
    advance()

    assert not blocked and controller.queue_depth() == 0 and gauge.value == 0
    assert len(outcomes) == len(arrivals)
    reasons = [o for o in outcomes.values() if o != "admitted"]
    assert controller.admitted + len(reasons) == len(arrivals)
    assert controller.rejected == {r: reasons.count(r) for r in set(reasons)}
    assert set(reasons) <= {"queue_full", "timeout"}


NODES = [f"n{i:04d}" for i in range(4)]

manager_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.sampled_from(NODES),
                  st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("lease"), st.integers(min_value=1, max_value=12),
                  st.sampled_from([None] + NODES)),              # excluded node
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=31)),
        st.tuples(st.just("revoke"), st.integers(min_value=0, max_value=31)),
        st.tuples(st.just("remove"), st.sampled_from(NODES), st.booleans()),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=manager_ops)
def test_manager_free_cores_match_a_scan_of_the_nodes(ops):
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", len(NODES), DAINT_MC)
    with TelemetryCollector():
        manager = ResourceManager(env, cluster, rng=np.random.default_rng(0))
    gauge = telemetry_of(env).metrics.get("repro_manager_free_cores_count")
    leases = []      # every lease granted, stale ones included

    def registered():
        return [manager.node_info(n) for n in manager.registered_nodes()]

    for op in ops:
        kind = op[0]
        if kind == "register":
            _, name, cores = op
            if not manager.is_registered(name):
                manager.register_node(name, cores=cores, memory_bytes=4 * GiB)
        elif kind == "lease":
            _, cores, excluded = op
            exclude = () if excluded is None else (excluded,)
            fits = any(
                info.node_name not in exclude and info.cores_free >= cores
                for info in registered()
            )
            try:
                lease, _ = manager.lease("c", cores=cores, exclude=exclude)
            except NoCapacityError:
                assert not fits
            else:
                assert fits
                leases.append(lease)
        elif kind in ("release", "revoke"):
            if leases:
                lease = leases[op[1] % len(leases)]
                if kind == "release":
                    manager.release_lease(lease)
                else:
                    manager.revoke_lease(lease)
        else:
            _, name, immediate = op
            manager.remove_node(name, immediate=immediate)
        free = sum(info.cores_free for info in registered())
        assert manager.total_free_cores() == free
        assert gauge.value == free

    for lease in leases:
        manager.release_lease(lease)
    assert manager.total_free_cores() == manager.total_registered_cores()
