"""Demand/supply forecaster unit tests (pure arithmetic, no sim)."""

import pytest

from repro.capacity import DemandForecaster
from repro.capacity.forecast import BUCKET_S, TAU_S, WINDOW_S


def feed_uniform(forecaster, rate, duration, function=None, start=0.0):
    gap = 1.0 / rate
    t = start
    count = int(round(rate * duration))
    for _ in range(count):
        forecaster.observe_arrival(t, function)
        t += gap
    return t


def test_ewma_converges_to_uniform_rate():
    f = DemandForecaster()
    end = feed_uniform(f, rate=10.0, duration=5.0)
    assert f.rate(end) == pytest.approx(10.0, rel=0.2)


def test_ewma_decays_when_arrivals_stop():
    f = DemandForecaster()
    end = feed_uniform(f, rate=10.0, duration=5.0)
    assert f.rate(end + 5 * TAU_S) < 0.01 * f.rate(end)


def test_percentile_remembers_burst_after_ewma_forgot():
    f = DemandForecaster()
    end = feed_uniform(f, rate=40.0, duration=1.0)   # one-second burst
    later = end + 4 * TAU_S                           # EWMA has decayed ~4 tau
    assert later + BUCKET_S < WINDOW_S
    assert f.rate(later) < 1.0
    # The burst's buckets are still inside the window: high quantile sees it.
    assert f.percentile_rate(later, q=0.95) >= 20.0
    # ... and forecast_arrivals takes the larger of the two estimates.
    assert f.forecast_arrivals(later, horizon_s=1.0, q=0.95) >= 20.0


def test_idle_buckets_pull_the_low_quantiles_down():
    f = DemandForecaster()
    end = feed_uniform(f, rate=40.0, duration=1.0)
    # Most of the window is empty: the median bucket rate is zero.
    assert f.percentile_rate(end + 5.0, q=0.5) == 0.0


def test_per_function_streams_are_independent():
    f = DemandForecaster()
    end_a = feed_uniform(f, rate=10.0, duration=3.0, function="a")
    end_b = feed_uniform(f, rate=2.0, duration=6.0, function="b", start=end_a)
    assert f.functions_seen() == ["a", "b"]
    # Each stream's estimate tracks its own rate at its own end.
    assert f.rate(end_a, "a") > 5.0
    assert 0.5 < f.rate(end_b, "b") < 5.0
    # "a" has been silent while "b" ran: its estimate decayed below "b"'s.
    assert f.rate(end_b, "a") < f.rate(end_b, "b")
    # The aggregate stream saw every arrival.
    assert f.arrivals == 30 + 12


def test_validation():
    f = DemandForecaster()
    f.observe_arrival(5.0)
    with pytest.raises(ValueError):
        f.observe_arrival(4.0)      # time went backwards
    with pytest.raises(ValueError):
        f.forecast_arrivals(0.0, horizon_s=-1.0)
    with pytest.raises(ValueError):
        f.percentile_rate(6.0, q=1.5)


def test_unknown_function_forecasts_zero():
    f = DemandForecaster()
    assert f.rate(0.0, "never-seen") == 0.0
    assert f.forecast_arrivals(0.0, 1.0, function="never-seen") == 0.0
