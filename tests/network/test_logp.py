"""LogGP model unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.network import LogGPParams


def params(**kw):
    defaults = dict(L=1e-6, o=0.2e-6, G=1e-10, g=0.0)
    defaults.update(kw)
    return LogGPParams(**defaults)


def test_one_way_structure():
    p = params()
    assert p.one_way(0) == pytest.approx(2 * 0.2e-6 + 1e-6)
    assert p.one_way(1000) == pytest.approx(2 * 0.2e-6 + 1e-6 + 1000 * 1e-10)


def test_round_trip_is_sum_of_one_ways():
    p = params()
    assert p.round_trip(100, 50) == pytest.approx(p.one_way(100) + p.one_way(50))


def test_rdma_ops_cheaper_than_two_sided_for_small():
    # One-sided ops skip the remote-side overhead o.
    p = params(L=1e-6, o=0.5e-6)
    assert p.rdma_read(8) < p.round_trip(8, 8)


def test_bandwidth_inverse_of_G():
    assert params(G=1e-9).bandwidth == pytest.approx(1e9)
    assert params(G=0.0).bandwidth == float("inf")


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        LogGPParams(L=-1, o=0, G=0)
    p = params()
    with pytest.raises(ValueError):
        p.one_way(-1)
    with pytest.raises(ValueError):
        p.rdma_read(-5)


def test_jitter_sampling_deterministic_with_seed():
    p = params().with_jitter(0.1)
    t = p.one_way(100)
    a = p.sample(t, np.random.default_rng(7))
    b = p.sample(t, np.random.default_rng(7))
    assert a == b
    assert p.sample(t, np.random.default_rng(8)) != a


def test_zero_jitter_is_identity():
    p = params()
    assert p.sample(1.0, np.random.default_rng(0)) == 1.0


@given(
    size1=st.integers(min_value=0, max_value=10**9),
    size2=st.integers(min_value=0, max_value=10**9),
)
def test_one_way_monotone_in_size(size1, size2):
    p = params()
    lo, hi = sorted([size1, size2])
    assert p.one_way(lo) <= p.one_way(hi)
