"""History DB, requirement models, and admission policy tests."""

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_GPU, DAINT_MC, Node
from repro.colocation import (
    CoLocationPolicy,
    CoLocationRecord,
    Decision,
    HistoryDB,
    PolicyConfig,
    RequirementModel,
    fit_performance_model,
)
from repro.interference import InterferenceModel, ResourceDemand, sample_counters
from repro.rfaas import NodeLoadRegistry
from repro.workloads import milc_model, nas_model

GBs = 1e9
MiB = 1024**2
GiB = 1024**3


# ---- history -----------------------------------------------------------------

def test_history_record_and_means():
    db = HistoryDB()
    db.record(CoLocationRecord("lulesh", "cg.A", 1.02, 1.30))
    db.record(CoLocationRecord("lulesh", "cg.A", 1.04, 1.40))
    assert db.has("lulesh", "cg.A")
    assert not db.has("lulesh", "ep.W")
    assert db.expected_batch_slowdown("lulesh", "cg.A") == pytest.approx(1.03)
    assert db.expected_function_slowdown("lulesh", "cg.A") == pytest.approx(1.35)
    assert db.expected_batch_slowdown("milc", "cg.A") is None
    assert len(db) == 2


def test_history_worst_partners():
    db = HistoryDB()
    db.record(CoLocationRecord("milc", "cg.A", 1.20, 1.5))
    db.record(CoLocationRecord("milc", "ep.W", 1.01, 1.0))
    worst = db.worst_partners("milc")
    assert worst[0][0] == "cg.A"
    assert db.worst_partners("unknown") == []


def test_record_validation():
    with pytest.raises(ValueError):
        CoLocationRecord("a", "b", 0.5, 1.0)


# ---- requirement models ------------------------------------------------------------

def test_fit_recovers_linear_model():
    p = np.array([1, 2, 4, 8, 16], dtype=float)
    y = 3.0 * p
    model = fit_performance_model(p, y)
    assert model.exponent == pytest.approx(1.0)
    assert model.log_power == 0
    assert model(32) == pytest.approx(96.0, rel=1e-6)


def test_fit_recovers_nlogn_model():
    p = np.array([2, 4, 8, 16, 32], dtype=float)
    y = 2.0 * p * np.log2(p)
    model = fit_performance_model(p, y)
    assert model.exponent == pytest.approx(1.0)
    assert model.log_power == 1


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_performance_model([1.0], [1.0])
    with pytest.raises(ValueError):
        fit_performance_model([0.0, 1.0], [1.0, 2.0])


def test_requirement_model_stress_factors():
    rng = np.random.default_rng(0)
    model = RequirementModel("cg")
    params = [1.0, 2.0, 4.0, 8.0]
    groups = []
    for p in params:
        demand = ResourceDemand(
            cores=1, membw=3 * GBs * p, netbw=0.1 * GBs * p, frac_membw=0.5
        )
        groups.append(sample_counters(demand, rng, windows=20))
    model.fit(params, groups)
    assert model.fitted
    stress = model.stress_factors(16.0, dram_capacity=136 * GBs,
                                  net_capacity=10 * GBs, flops_capacity=1e12)
    # Extrapolation: 16x the base 3 GB/s ~= 48 GB/s -> ~0.35 of capacity.
    assert stress["dram"] == pytest.approx(48 * GBs / (136 * GBs), rel=0.2)
    assert model.dominant_resource(16.0, 136 * GBs, 10 * GBs, 1e12) in ("dram", "net", "flops")


def test_requirement_model_validation():
    model = RequirementModel("x")
    with pytest.raises(ValueError):
        model.fit([1.0], [[], []])
    with pytest.raises(KeyError):
        model.predict("dram", 2.0)


# ---- policy ----------------------------------------------------------------------

def make_policy(config=None):
    cluster = Cluster()
    cluster.add_nodes("n", 1, DAINT_MC)
    loads = NodeLoadRegistry(cluster)
    policy = CoLocationPolicy(loads, config=config)
    return cluster.node("n0000"), loads, policy


def light_fn(label="ep.W"):
    return ResourceDemand(cores=1, membw=0.25 * GBs, llc_bytes=1 * MiB,
                          frac_membw=0.02, label=label)


def heavy_fn(label="cg.A"):
    return ResourceDemand(cores=8, membw=90 * GBs, llc_bytes=200 * MiB,
                          frac_membw=0.9, label=label)


def test_policy_requires_consent():
    node, loads, policy = make_policy()
    d = policy.decide(node, light_fn(), "lulesh", consent=False)
    assert d == Decision.NO_CONSENT
    assert not d.admitted


def test_policy_checks_resources():
    node, loads, policy = make_policy()
    node.allocate("job", cores=36)
    assert policy.decide(node, light_fn(), "lulesh") == Decision.NO_RESOURCES


def test_policy_reserve_cores():
    node, loads, policy = make_policy(PolicyConfig(reserve_cores=2))
    node.allocate("job", cores=34)
    assert policy.decide(node, light_fn(), "lulesh") == Decision.NO_RESOURCES


def test_policy_hero_job_exempt():
    node, loads, policy = make_policy()
    d = policy.decide(node, light_fn(), "hero-app", batch_nodes=512)
    assert d == Decision.HERO_JOB


def test_policy_history_admit_and_reject():
    node, loads, policy = make_policy()
    policy.observe("lulesh", "ep.W", batch_slowdown=1.01, function_slowdown=1.05)
    assert policy.decide(node, light_fn("ep.W"), "lulesh").admitted
    policy.observe("milc", "cg.A", batch_slowdown=1.30, function_slowdown=1.5)
    assert policy.decide(node, heavy_fn("cg.A"), "milc") == Decision.HISTORY_REJECT


def test_policy_heuristic_rejects_bandwidth_storm():
    node, loads, policy = make_policy()
    # A memory-bound batch job occupies the node...
    batch = ResourceDemand(cores=16, membw=60 * GBs, llc_bytes=40 * MiB,
                           frac_membw=0.6, label="milc")
    loads.add(node.name, "batch", batch)
    node.allocate("job", cores=16)
    # ...a bandwidth-hungry function would push it past the threshold.
    d = policy.decide(node, heavy_fn(), "milc")
    assert d == Decision.HEURISTIC_REJECT
    # A compute-bound function is fine.
    assert policy.decide(node, light_fn(), "milc").admitted


def test_policy_bounds_batch_slowdown_that_naive_admission_breaks():
    """Sec. III-E: co-locating every NAS function that fits next to a MILC
    job slows it by over 20%; the policy holds it under the 5% threshold
    and still admits the compatible functions."""

    def batch_slowdown(use_policy):
        node, loads, policy = make_policy(PolicyConfig(max_batch_slowdown=1.05))
        batch = milc_model(16).demand(16)
        loads.add(node.name, "batch", batch)
        node.allocate("job", cores=16)
        admitted = 0
        for key in ("cg.A", "mg.W", "ep.W", "bt.W"):
            demand = nas_model(key).demand(4)
            if use_policy and not policy.decide(node, demand, "milc").admitted:
                continue
            loads.add(node.name, key, demand)
            node.allocate(key, cores=demand.cores, kind="function")
            admitted += 1
        alone = InterferenceModel().slowdowns(DAINT_MC, [batch])[0]
        return loads.slowdowns(node.name)["batch"] / alone, admitted

    naive, _ = batch_slowdown(use_policy=False)
    guarded, admitted = batch_slowdown(use_policy=True)
    assert guarded < naive
    assert guarded < 1.06  # the 5% threshold held
    assert admitted >= 1


def test_policy_gpu_availability_via_gres():
    cluster = Cluster()
    cluster.add_node(Node("g0", DAINT_GPU))
    loads = NodeLoadRegistry(cluster)
    policy = CoLocationPolicy(loads)
    node = cluster.node("g0")
    assert policy.decide(node, light_fn(), None, needs_gpus=1).admitted
    node.allocate("job", cores=1, gpus=1)
    assert policy.decide(node, light_fn(), None, needs_gpus=1) == Decision.NO_RESOURCES


def test_policy_decision_accounting():
    node, loads, policy = make_policy()
    policy.decide(node, light_fn(), "lulesh")
    policy.decide(node, light_fn(), "lulesh", consent=False)
    assert policy.decisions[Decision.ADMIT] == 1
    assert policy.decisions[Decision.NO_CONSENT] == 1


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(max_batch_slowdown=0.9)
    with pytest.raises(ValueError):
        PolicyConfig(hero_job_nodes=0)
