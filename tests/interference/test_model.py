"""Interference model: contention mechanics and paper-shape checks."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import DAINT_MC
from repro.interference import InterferenceModel, PlacementError, ResourceDemand
from repro.workloads import nas_model

GBs = 1e9
MiB = 1024**2


MODEL = InterferenceModel()


def cpu_demand(cores=1):
    return ResourceDemand(cores=cores, membw=0.2 * GBs, llc_bytes=1 * MiB, frac_membw=0.02)


def mem_demand(cores=1, membw=12 * GBs):
    return ResourceDemand(cores=cores, membw=membw, llc_bytes=26 * MiB, frac_membw=0.88)


def test_demand_validation():
    with pytest.raises(ValueError):
        ResourceDemand(cores=-1)
    with pytest.raises(ValueError):
        ResourceDemand(cores=1, membw=-1)
    with pytest.raises(ValueError):
        ResourceDemand(cores=1, frac_membw=0.7, frac_netbw=0.4)
    d = ResourceDemand(cores=1, frac_membw=0.3, frac_netbw=0.2)
    assert d.frac_cpu == pytest.approx(0.5)


def test_single_workload_no_contention():
    s = MODEL.slowdowns(DAINT_MC, [cpu_demand()])
    assert s == [pytest.approx(1.0)]


def test_sharing_noise_applied_to_multitenant():
    s = MODEL.slowdowns(DAINT_MC, [cpu_demand(), cpu_demand()])
    assert all(v >= 1.0 + MODEL.sharing_noise * 0.99 for v in s)


def test_oversubscription_rejected():
    with pytest.raises(PlacementError):
        MODEL.slowdowns(DAINT_MC, [cpu_demand(cores=37)])


def test_membw_saturation_dilates_memory_bound():
    # 12 memory-hogs on one socket exceed 68 GB/s: clear slowdown.
    s = MODEL.slowdowns(DAINT_MC, [mem_demand()] * 12)
    assert all(v > 1.5 for v in s)
    # The same count of compute-bound instances barely suffers.
    s_cpu = MODEL.slowdowns(DAINT_MC, [cpu_demand()] * 12)
    assert all(v < 1.15 for v in s_cpu)


def test_compute_bound_insensitive_to_memory_hog_on_other_socket():
    # 18 cores of compute on socket 0, then memory hogs land on socket 1.
    compute = ResourceDemand(cores=18, membw=3 * GBs, llc_bytes=8 * MiB, frac_membw=0.1)
    hogs = [mem_demand() for _ in range(10)]
    slow = MODEL.slowdowns(DAINT_MC, [compute] + hogs)
    # Compute job suffers only noise + frequency penalty, not the
    # socket-1 bandwidth crunch.
    assert slow[0] < 1.2
    assert all(h > slow[0] for h in slow[1:])


def test_extra_net_traffic_hits_network_bound_only():
    netty = ResourceDemand(cores=4, membw=1 * GBs, netbw=4 * GBs, frac_membw=0.1, frac_netbw=0.5)
    compute = cpu_demand(cores=4)
    # Inject 9 GB/s of background RDMA traffic (node NIC is 10.2 GB/s).
    slow = MODEL.slowdowns(DAINT_MC, [netty, compute], extra_netbw=9 * GBs)
    assert slow[0] > 1.1
    assert slow[1] < 1.1
    assert slow[0] > slow[1]


def test_extra_membw_models_memory_service():
    milc_like = ResourceDemand(cores=16, membw=55 * GBs, llc_bytes=30 * MiB, frac_membw=0.55)
    base = MODEL.slowdowns(DAINT_MC, [milc_like])[0]
    perturbed = MODEL.slowdowns(DAINT_MC, [milc_like], extra_membw=40 * GBs)[0]
    assert perturbed > base


def test_frequency_penalty_monotone():
    f1 = MODEL.frequency_penalty(1, 36)
    f18 = MODEL.frequency_penalty(18, 36)
    f36 = MODEL.frequency_penalty(36, 36)
    assert f1 == 1.0
    assert f1 < f18 < f36
    assert f36 == pytest.approx(1.0 / 0.85)


def test_relative_throughput_single_is_one():
    assert MODEL.relative_throughput(DAINT_MC, cpu_demand(), 1) == pytest.approx(1.0)


# ---- Table III shape checks -------------------------------------------------

def test_table3_ep_near_linear():
    """EP at 32 functions: ~27x (paper: 27.2)."""
    demand = nas_model("ep.W").demand(1)
    thr = MODEL.relative_throughput(DAINT_MC, demand, 32)
    assert 24 < thr < 31


def test_table3_cg_saturates():
    """CG throughput saturates: ~6x at 16 (paper: 6), < EP everywhere."""
    cg = nas_model("cg.A").demand(1)
    ep = nas_model("ep.W").demand(1)
    thr16 = MODEL.relative_throughput(DAINT_MC, cg, 16)
    assert 4 < thr16 < 9
    for n in (8, 16, 24, 32):
        assert MODEL.relative_throughput(DAINT_MC, cg, n) < MODEL.relative_throughput(
            DAINT_MC, ep, n
        )


def test_table3_second_socket_helps_cg():
    """CG jumps when instances spill to socket 1 (paper: 6 -> 8.5 -> 11.4)."""
    cg = nas_model("cg.A").demand(1)
    thr16 = MODEL.relative_throughput(DAINT_MC, cg, 16)
    thr32 = MODEL.relative_throughput(DAINT_MC, cg, 32)
    assert thr32 > 1.4 * thr16


def test_table3_bt_lu_efficiency_band():
    """BT/LU land at roughly 70-85% efficiency at high counts."""
    for key in ("bt.W", "lu.W"):
        demand = nas_model(key).demand(1)
        eff = MODEL.relative_throughput(DAINT_MC, demand, 24) / 24
        assert 0.55 < eff < 0.95, f"{key}: {eff}"


@given(n=st.integers(min_value=1, max_value=36))
def test_throughput_never_exceeds_instance_count(n):
    demand = nas_model("ep.W").demand(1)
    thr = MODEL.relative_throughput(DAINT_MC, demand, n)
    assert 0 < thr <= n + 1e-9


@given(n=st.integers(min_value=2, max_value=36))
def test_slowdowns_at_least_one(n):
    demands = [nas_model("mg.W").demand(1)] * n
    for s in MODEL.slowdowns(DAINT_MC, demands):
        assert s >= 1.0
