"""Eq. 1 offloading model: threshold, splitting, properties."""

import pytest
from hypothesis import given, strategies as st

from repro.offload import OffloadModel


def model(**kw):
    defaults = dict(t_local=0.01, t_inv=0.012, latency=0.002, bandwidth=1e9,
                    data_per_task=100_000)
    defaults.update(kw)
    return OffloadModel(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        model(t_local=0)
    with pytest.raises(ValueError):
        model(latency=-1)
    with pytest.raises(ValueError):
        model(bandwidth=0)
    with pytest.raises(ValueError):
        model(data_per_task=0)


def test_eq1_threshold():
    m = model(t_local=0.01, t_inv=0.012, latency=0.002)
    # (0.012 + 0.002) / 0.01 = 1.4 -> ceil = 2
    assert m.n_local_min == 2
    assert not m.should_offload(2)
    assert m.should_offload(3)


def test_remote_rate_is_min_of_link_and_executor():
    slow_link = model(bandwidth=1e6, data_per_task=1_000_000)  # 1 task/s link
    assert slow_link.remote_rate == pytest.approx(1.0)
    fast_link = model(bandwidth=1e12)
    assert fast_link.remote_rate == pytest.approx(1 / 0.012)


def test_small_batches_stay_local():
    m = model()
    plan = m.split(2, local_workers=4)
    assert plan.n_remote == 0
    assert plan.n_local == 2


def test_split_conserves_tasks_and_balances():
    m = model()
    plan = m.split(1000, local_workers=4, remote_workers=4)
    assert plan.total == 1000
    assert plan.n_remote > 0
    # Local side keeps at least the Eq.-1 minimum.
    assert plan.n_local >= m.n_local_min
    # Streams finish within ~20% of each other (discretization slack).
    local_rate = 4 / m.t_local
    remote_rate = min(4 / m.t_inv, m.bandwidth / m.data_per_task)
    local_time = plan.n_local / local_rate
    remote_time = m.latency + plan.n_remote / remote_rate
    assert local_time == pytest.approx(remote_time, rel=0.2)


def test_bandwidth_saturation_limits_offload():
    fat = model(bandwidth=1e10)
    thin = model(bandwidth=1e7)   # 100 tasks/s max
    plan_fat = fat.split(10_000, local_workers=2, remote_workers=64)
    plan_thin = thin.split(10_000, local_workers=2, remote_workers=64)
    assert plan_thin.n_remote < plan_fat.n_remote


def test_speedup_grows_with_batch_until_saturation():
    m = model()
    s_small = m.speedup(2)
    s_large = m.speedup(1000, local_workers=1, remote_workers=8)
    assert s_small == pytest.approx(1.0)
    assert s_large > 1.5


def test_zero_tasks():
    plan = model().split(0)
    assert plan.total == 0 and plan.estimated_time_s == 0.0
    with pytest.raises(ValueError):
        model().split(-1)
    with pytest.raises(ValueError):
        model().should_offload(-1)


@given(
    n=st.integers(min_value=0, max_value=5000),
    workers=st.integers(min_value=1, max_value=32),
)
def test_split_always_conserves(n, workers):
    plan = model().split(n, local_workers=workers, remote_workers=workers)
    assert plan.n_local + plan.n_remote == n
    assert plan.n_local >= 0 and plan.n_remote >= 0
    assert plan.estimated_time_s >= 0


@given(n=st.integers(min_value=1, max_value=2000))
def test_estimated_time_never_worse_than_local_only(n):
    m = model()
    plan = m.split(n, local_workers=2, remote_workers=4)
    local_only = n * m.t_local / 2
    assert plan.estimated_time_s <= local_only * 1.001 + m.latency
