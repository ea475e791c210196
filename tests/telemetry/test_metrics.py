"""Metrics registry unit tests: instruments, naming, labels, scopes."""

import math

import pytest

from repro.sim import Environment
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    validate_metric_name,
)
from repro.telemetry.metrics import default_buckets


def make_registry(env=None):
    env = env or Environment()
    return env, MetricsRegistry(clock=lambda: env.now)


def test_counter_reads_its_component_count():
    _, registry = make_registry()
    counts = {"things": 0}
    registry.counter("repro_test_things_total", lambda: counts["things"])
    counter = registry.get("repro_test_things_total")
    assert counter.value == 0
    counts["things"] += 3
    assert counter.value == 3


def test_counter_get_or_create_shares_instrument():
    _, registry = make_registry()
    registry.counter("repro_test_things_total", lambda: 1)
    registry.counter("repro_test_things_total", lambda: 2)
    registry.counter("repro_test_things_total", lambda: 5, labels={"node": "n1"})
    assert len(registry) == 2
    # A shared family sums its readers; other labels are their own counter.
    assert registry.get("repro_test_things_total").value == 3
    assert registry.get("repro_test_things_total", {"node": "n1"}).value == 5


def test_kind_conflict_rejected():
    _, registry = make_registry()
    registry.counter("repro_test_things_total", lambda: 0)
    with pytest.raises(ValueError):
        registry.gauge("repro_test_things_total")


def test_gauge_time_weighted_mean_uses_sim_clock():
    env, registry = make_registry()
    gauge = registry.gauge("repro_test_level_count")
    gauge.set(0)

    def driver():
        yield env.timeout(10)
        gauge.set(10)
        yield env.timeout(10)

    env.process(driver())
    env.run()
    # 0 for 10 s, then 10 for 10 s -> time-weighted mean 5.
    assert gauge.value == 10
    assert gauge.time_weighted_mean() == pytest.approx(5.0)


def test_histogram_exact_quantiles_and_buckets():
    hist = Histogram("repro_test_latency_seconds", (), "",
                     buckets=[1e-6, 1e-3, 1.0])
    for v in [5e-7, 5e-4, 0.5, 2.0]:
        hist.observe(v)
    assert hist.count == 4
    assert hist.sum == pytest.approx(5e-7 + 5e-4 + 0.5 + 2.0)
    assert hist.quantile(0.0) == 5e-7
    assert hist.quantile(1.0) == 2.0
    assert hist.mean() == pytest.approx(hist.sum / 4)
    cumulative = hist.cumulative_buckets()
    assert cumulative == [(1e-6, 1), (1e-3, 2), (1.0, 3), (math.inf, 4)]
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_default_buckets_log_spaced():
    buckets = default_buckets()
    assert len(buckets) == 12
    assert buckets[0] == 1e-7 and buckets[-1] == pytest.approx(1e4)
    for lo, hi in zip(buckets[:-1], buckets[1:]):
        assert hi / lo == pytest.approx(10.0)


def test_naming_convention_enforced():
    _, registry = make_registry()
    for bad in [
        "executor_invocations_total",     # missing repro_ prefix
        "repro_executor_total",           # missing name segment
        "repro_executor_invocations",     # missing unit
        "repro_Executor_invocations_total",  # uppercase
        "repro_executor_latency_ms",      # unit not in the closed set
    ]:
        with pytest.raises(ValueError):
            validate_metric_name(bad)
        with pytest.raises(ValueError):
            registry.counter(bad, lambda: 0)
    assert validate_metric_name("repro_executor_invocations_total")
    assert validate_metric_name("repro_warmpool_resident_bytes")
    assert validate_metric_name("repro_scheduler_queue_wait_seconds")


def test_null_registry_still_validates_names():
    with pytest.raises(ValueError):
        NULL_REGISTRY.counter("bogus", lambda: 0)
    # A counter keeps no reader: nothing is called or held.
    assert NULL_REGISTRY.counter("repro_test_things_total", lambda: 0) is None
    instrument = NULL_REGISTRY.histogram("repro_test_wait_seconds")
    instrument.observe(1.0)
    instrument.set(2.0)
    assert instrument.value == 0.0
    assert len(NULL_REGISTRY) == 0
