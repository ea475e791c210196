"""Fair pricing (ref [40]) tests."""

import pytest

from repro.disagg import JobBill


def test_fair_pricing_removes_interference_cost():
    bill = JobBill(nodes=2, node_cores=36, requested_cores_per_node=32,
                   runtime_s=3600.0, slowdown=1.04)
    # Naive shared billing charges the inflated wall clock...
    assert bill.shared_cost() > bill.fair_shared_cost()
    # ...fair billing charges the exclusive-equivalent time.
    assert bill.fair_shared_cost() == pytest.approx(2 * 32 * 1.0)
    # The operator refunds the interference share of the naive bill.
    assert bill.shared_cost() - bill.fair_shared_cost() == pytest.approx(2 * 32 * 0.04)


def test_fair_pricing_neutral_without_interference():
    bill = JobBill(nodes=1, node_cores=36, requested_cores_per_node=36,
                   runtime_s=100.0, slowdown=1.0)
    assert bill.shared_cost() - bill.fair_shared_cost() == pytest.approx(0.0)
    assert bill.fair_shared_cost() == pytest.approx(bill.shared_cost())
