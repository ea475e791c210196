"""Fig. 13's numpy kernels: determinism, correctness, real work."""

import numpy as np
import pytest

from repro.workloads import (
    generate_options,
    price_chunk,
    price_options,
    run_transport,
    split_batch,
    transport_chunk,
)


# ---- Black-Scholes -----------------------------------------------------------------

def test_blackscholes_known_value():
    """Spot=100, K=100, r=5%, sigma=20%, T=1y call: 10.4506 (textbook)."""
    from repro.workloads import OptionBatch

    batch = OptionBatch(
        spot=np.array([100.0]), strike=np.array([100.0]), rate=np.array([0.05]),
        volatility=np.array([0.2]), expiry=np.array([1.0]), is_call=np.array([True]),
    )
    price = price_options(batch)[0]
    assert price == pytest.approx(10.4506, abs=1e-3)


def test_blackscholes_put_call_parity():
    batch = generate_options(500, seed=5)
    calls = price_options(
        type(batch)(batch.spot, batch.strike, batch.rate, batch.volatility,
                    batch.expiry, np.ones(len(batch), dtype=bool))
    )
    puts = price_options(
        type(batch)(batch.spot, batch.strike, batch.rate, batch.volatility,
                    batch.expiry, np.zeros(len(batch), dtype=bool))
    )
    lhs = calls - puts
    rhs = batch.spot - batch.strike * np.exp(-batch.rate * batch.expiry)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_split_batch_covers_everything():
    batch = generate_options(1000, seed=0)
    chunks = split_batch(batch, 7)
    assert sum(len(c["spot"]) for c in chunks) == 1000
    # Chunked pricing matches whole-batch pricing.
    whole = price_options(batch)
    parts = np.concatenate([price_chunk(c, iterations=1) for c in chunks])
    np.testing.assert_allclose(parts, whole)


def test_split_batch_validation():
    batch = generate_options(10)
    with pytest.raises(ValueError):
        split_batch(batch, 0)
    # More chunks than options: empty chunks dropped.
    chunks = split_batch(batch, 20)
    assert sum(len(c["spot"]) for c in chunks) == 10


# ---- Monte Carlo transport ---------------------------------------------------------

def test_transport_conservation():
    result = run_transport(2000, seed=0)
    # Every particle ends absorbed, leaked, or still alive at the cap.
    assert result.absorptions + result.leakage <= result.particles
    assert result.collisions >= result.absorptions
    assert result.fissions <= result.absorptions
    assert result.mean_distance_cm > 0


def test_transport_deterministic():
    a = run_transport(500, seed=9)
    b = run_transport(500, seed=9)
    assert a == b


def test_transport_k_estimate_reasonable():
    result = run_transport(20_000, seed=1)
    # A crude reactor, but k should land in a physical band.
    assert 0.2 < result.k_estimate < 2.5


def test_transport_chunk_roundtrip():
    out = transport_chunk({"particles": 300, "seed": 4})
    assert out["particles"] == 300
    assert out["collisions"] > 0
    direct = run_transport(300, seed=4)
    assert out["k_estimate"] == direct.k_estimate


def test_transport_validation():
    with pytest.raises(ValueError):
        run_transport(0)
    with pytest.raises(ValueError):
        run_transport(10, max_collisions=0)
