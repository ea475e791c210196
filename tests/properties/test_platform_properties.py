"""Property-based tests of warm pools, leases, billing and node accounting."""

from hypothesis import given, settings, strategies as st

from repro.cluster import DAINT_MC, Node
from repro.containers import ContainerState, Image, SARUS, WarmPool
from repro.disagg import JobBill
from repro.interference import InterferenceModel, ResourceDemand
from repro.sim import Environment

MiB = 1024**2
GiB = 1024**3


@settings(max_examples=40)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["acquire", "release", "reclaim", "drain"]),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=40,
    )
)
def test_warm_pool_memory_accounting_never_leaks(ops):
    """Node memory allocated by the pool always equals resident containers."""
    env = Environment()
    node = Node("n0", DAINT_MC)
    pool = WarmPool(env, node, SARUS)
    images = [Image(f"img{i}", size_bytes=100 * MiB, runtime_memory_bytes=256 * MiB)
              for i in range(4)]
    in_use = []
    for op, idx in ops:
        if op == "acquire":
            result = pool.acquire(images[idx])
            in_use.append(result.container)
        elif op == "release" and in_use:
            pool.release(in_use.pop())
        elif op == "reclaim":
            pool.reclaim(idx * 300 * MiB, swap=bool(idx % 2))
        elif op == "drain":
            pool.drain()
        # Invariant: allocated container memory == warm + in-use footprint.
        expected = pool.resident_bytes() + sum(
            c.image.runtime_memory_bytes for c in in_use
        )
        assert node.allocated_memory == expected
    # Cleanup path: discard everything, memory returns to zero.
    pool.drain()
    for container in in_use:
        pool.discard(container)
    assert node.allocated_memory == 0


@settings(max_examples=40)
@given(
    cores=st.integers(min_value=1, max_value=36),
    nodes=st.integers(min_value=1, max_value=64),
    runtime=st.floats(min_value=1.0, max_value=1e6),
    slowdown=st.floats(min_value=1.0, max_value=1.2),
)
def test_billing_saving_matches_discount_minus_overhead(cores, nodes, runtime, slowdown):
    bill = JobBill(nodes=nodes, node_cores=36, requested_cores_per_node=cores,
                   runtime_s=runtime, slowdown=slowdown)
    # shared/exclusive == (cores/36) * slowdown exactly.
    ratio = bill.shared_cost() / bill.exclusive_cost()
    assert abs(ratio - (cores / 36) * slowdown) < 1e-9
    # Full-node request with any slowdown is never worth it.
    if cores == 36 and slowdown > 1.0:
        assert bill.saving_fraction() <= 0.0


@settings(max_examples=40)
@given(
    n_instances=st.integers(min_value=1, max_value=36),
    membw=st.floats(min_value=0.0, max_value=15e9),
    frac=st.floats(min_value=0.0, max_value=0.95),
)
def test_interference_efficiency_bounded(n_instances, membw, frac):
    model = InterferenceModel()
    demand = ResourceDemand(cores=1, membw=membw, llc_bytes=4 * MiB, frac_membw=frac)
    eff = model.relative_throughput(DAINT_MC, demand, n_instances) / n_instances
    assert 0.0 < eff <= 1.0 + 1e-9


@settings(max_examples=40)
@given(
    demands=st.lists(
        st.tuples(st.integers(min_value=1, max_value=6),
                  st.floats(min_value=0, max_value=12e9),
                  st.floats(min_value=0, max_value=0.9)),
        min_size=1, max_size=6,
    )
)
def test_interference_monotone_in_tenants(demands):
    """Adding a tenant never speeds up the existing ones."""
    model = InterferenceModel()
    vec = [ResourceDemand(cores=c, membw=m, llc_bytes=8 * MiB, frac_membw=f)
           for c, m, f in demands]
    if sum(d.cores for d in vec) + 1 > DAINT_MC.cores:
        return  # would not fit
    before = model.slowdowns(DAINT_MC, vec)
    extra = ResourceDemand(cores=1, membw=8e9, llc_bytes=16 * MiB, frac_membw=0.6)
    after = model.slowdowns(DAINT_MC, vec + [extra])
    for b, a in zip(before, after):
        assert a >= b - 1e-9


@settings(max_examples=30)
@given(
    lease_plan=st.lists(st.integers(min_value=1, max_value=4),
                        min_size=1, max_size=10)
)
def test_manager_lease_accounting_conserves_resources(lease_plan):
    import numpy as np

    from repro.cluster import Cluster
    from repro.network import DrcManager
    from repro.rfaas import NoCapacityError, ResourceManager

    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", 1, DAINT_MC)
    manager = ResourceManager(env, cluster, drc=DrcManager(),
                              rng=np.random.default_rng(0))
    registered = manager.register_node("n0000", cores=16, memory_bytes=8 * GiB)
    leases = []
    for cores in lease_plan:
        try:
            lease, _ = manager.lease(client="c", cores=cores)
            leases.append(lease)
        except NoCapacityError:
            pass
        # Invariant: free + leased == registered totals.
        leased_cores = sum(l.cores for l in leases)
        assert registered.cores_free + leased_cores == 16
        # Node-level allocation matches too.
        node = cluster.node("n0000")
        assert node.allocated_cores == leased_cores
    for lease in leases:
        manager.release_lease(lease)
    assert registered.cores_free == 16
    assert cluster.node("n0000").is_idle
