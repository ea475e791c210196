"""Billing arithmetic and Fig. 10 utilization scenarios."""

import pytest

from repro.disagg import (
    FunctionBill,
    JobBill,
    ScenarioUtilization,
    colocation_scenarios,
    core_hour_discount,
)

GiB = 1024**3


def test_paper_discount_numbers():
    """Sec. V-C: 32/36 cores -> ~11%, 9/12 cores -> 25%."""
    assert core_hour_discount(32, 36) == pytest.approx(0.111, abs=0.001)
    assert core_hour_discount(9, 12) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        core_hour_discount(0, 36)
    with pytest.raises(ValueError):
        core_hour_discount(37, 36)


def test_job_bill_exclusive_vs_shared():
    bill = JobBill(nodes=2, node_cores=36, requested_cores_per_node=32,
                   runtime_s=3600.0)
    assert bill.exclusive_cost() == pytest.approx(72.0)
    assert bill.shared_cost() == pytest.approx(64.0)
    assert bill.saving_fraction() == pytest.approx(core_hour_discount(32, 36))
    assert bill.saving_fraction() > 0.0


def test_job_bill_slowdown_erodes_saving():
    # 2% co-location slowdown still leaves the 11% discount clearly ahead.
    bill = JobBill(nodes=2, node_cores=36, requested_cores_per_node=32,
                   runtime_s=3600.0, slowdown=1.02)
    assert 0.0 < bill.saving_fraction() < core_hour_discount(32, 36)
    assert bill.saving_fraction() > 0.0
    # A pathological 15% slowdown would not be worth it.
    bad = JobBill(nodes=2, node_cores=36, requested_cores_per_node=32,
                  runtime_s=3600.0, slowdown=1.15)
    assert bad.saving_fraction() <= 0.0


def test_job_bill_validation():
    with pytest.raises(ValueError):
        JobBill(nodes=0, node_cores=36, requested_cores_per_node=1, runtime_s=1)
    with pytest.raises(ValueError):
        JobBill(nodes=1, node_cores=36, requested_cores_per_node=40, runtime_s=1)
    with pytest.raises(ValueError):
        JobBill(nodes=1, node_cores=36, requested_cores_per_node=36, runtime_s=1,
                slowdown=0.9)


def test_function_bill_components():
    bill = FunctionBill(cores=1, memory_bytes=2 * GiB, duration_s=3600.0,
                        core_hour_price=1.0, gib_hour_price=0.05)
    assert bill.cost() == pytest.approx(1.0 + 2 * 0.05)
    gpu = FunctionBill(cores=1, memory_bytes=0, duration_s=1800.0, gpus=1,
                       gpu_hour_price=10.0)
    assert gpu.cost() == pytest.approx(0.5 * (1 + 10))
    with pytest.raises(ValueError):
        FunctionBill(cores=-1, memory_bytes=0, duration_s=1)


def test_scenario_utilization_basics():
    s = ScenarioUtilization("x", used_core_time=50, allocated_core_time=100)
    assert s.utilization == 0.5
    with pytest.raises(ValueError):
        ScenarioUtilization("x", used_core_time=101, allocated_core_time=100)
    with pytest.raises(ValueError):
        ScenarioUtilization("x", used_core_time=1, allocated_core_time=0)


def test_fig10_ordering_and_magnitude():
    """Co-located > partial > exclusive; improvement in the tens of %."""
    scenarios = colocation_scenarios(
        node_cores=36, batch_nodes=2, batch_cores_per_node=32,
        batch_runtime_s=100.0, function_cores_per_node=4,
        batch_slowdown=1.01,
    )
    exclusive = scenarios["exclusive"]
    partial = scenarios["partial"]
    coloc = scenarios["colocated"]
    assert coloc.utilization > partial.utilization > exclusive.utilization
    improvement = coloc.improvement_over(exclusive)
    assert improvement > 0.3  # paper: up to ~52%
    assert coloc.utilization <= 1.0


def test_fig10_slowdown_reduces_coloc_utilization():
    base = colocation_scenarios(36, 2, 32, 100.0, 4, batch_slowdown=1.0)
    slowed = colocation_scenarios(36, 2, 32, 100.0, 4, batch_slowdown=1.10)
    assert slowed["colocated"].utilization < base["colocated"].utilization


def test_scenario_validation():
    with pytest.raises(ValueError):
        colocation_scenarios(36, 1, 40, 100, 0)
    with pytest.raises(ValueError):
        colocation_scenarios(36, 1, 32, 100, 10)  # 32+10 > 36
    with pytest.raises(ValueError):
        colocation_scenarios(36, 1, 32, 100, 4, function_busy_fraction=2.0)


def test_colocated_scenario_counts_both_workloads_core_time():
    """Regression: the colocated scenario dropped fn_used from its
    used_core_time (a tuple artifact), understating utilization."""
    scenarios = colocation_scenarios(
        node_cores=36, batch_nodes=2, batch_cores_per_node=32,
        batch_runtime_s=100.0, function_cores_per_node=4,
        batch_slowdown=1.0,
    )
    coloc = scenarios["colocated"]
    batch_used = 2 * 32 * 100.0
    fn_used = 2 * 4 * 100.0
    assert coloc.used_core_time == pytest.approx(batch_used + fn_used)
    # With all leftover cores serving functions, colocated utilization is 100%.
    assert coloc.utilization == pytest.approx(1.0)
