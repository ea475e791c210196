"""Warm-pool autoscaler tests against a real platform."""

import pytest

from repro.api import ClusterSpec, Platform
from repro.capacity import AutoscalerConfig, DemandForecaster, WarmPoolAutoscaler
from repro.containers import Image
from repro.interference import ResourceDemand

MiB = 1024**2
GiB = 1024**3


def build(nodes=3, executors=("n0001", "n0002"), images=1,
          image_bytes=100 * MiB, **cfg):
    platform = Platform.build(ClusterSpec(nodes=nodes, jitter=0.0), seed=0)
    for node in executors:
        platform.register_node(node, cores=2, memory_bytes=8 * GiB)
    for i in range(images):
        platform.functions.register(
            f"fn{i}", Image(f"img{i}", size_bytes=image_bytes,
                            runtime_memory_bytes=256 * MiB),
            runtime_s=0.01,
            demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        )
    forecaster = DemandForecaster()
    scaler = WarmPoolAutoscaler(
        platform.env, platform.manager, platform.cluster,
        platform.functions, forecaster,
        AutoscalerConfig(**cfg) if cfg else None,
    )
    return platform, forecaster, scaler


def warm_counts(platform, image_name):
    return {
        node: platform.manager.node_info(node).warm_pool.warm_count_for(image_name)
        for node in platform.manager.registered_nodes()
    }


def drive_arrivals(forecaster, rate, duration, function="fn0"):
    gap = 1.0 / rate
    for i in range(int(rate * duration)):
        forecaster.observe_arrival(i * gap, function)


def test_predictive_prewarms_toward_forecast():
    platform, forecaster, scaler = build(interval_s=0.5, horizon_s=1.0)
    drive_arrivals(forecaster, rate=4.0, duration=2.0)
    scaler.start()
    platform.run_until(3.0)
    platform.run()
    assert scaler.prewarms > 0
    counts = warm_counts(platform, "img0")
    assert sum(counts.values()) >= 4      # ~ headroom * rate * horizon
    # Spread round-robin across node groups, not piled on one node.
    assert all(count > 0 for count in counts.values())


def test_reactive_mode_never_prewarms():
    platform, forecaster, scaler = build(predictive=False)
    drive_arrivals(forecaster, rate=8.0, duration=2.0)
    scaler.start()
    platform.run_until(3.0)
    platform.run()
    assert scaler.prewarms == 0
    assert sum(warm_counts(platform, "img0").values()) == 0
    # ... but it still observed supply for the forecaster's ledger.
    assert scaler.ticks > 0
    assert forecaster.harvested_core_seconds() > 0


def test_per_node_cap_respected():
    platform, forecaster, scaler = build(max_warm_per_node=2)
    drive_arrivals(forecaster, rate=50.0, duration=2.0)   # huge demand
    scaler.start()
    platform.run_until(5.0)
    platform.run()
    counts = warm_counts(platform, "img0")
    assert all(count <= 2 for count in counts.values())


def test_per_node_cap_counts_in_flight_prewarms():
    # A 2 GiB image cold-starts for longer than a tick: containers still
    # starting are held by their prewarm, not parked, and must count
    # against the cap, or every tick re-fills the same nodes.
    platform, forecaster, scaler = build(
        image_bytes=2 * GiB, max_warm_per_node=2, interval_s=0.1)
    drive_arrivals(forecaster, rate=50.0, duration=2.0)
    env = platform.env
    worst = []

    def sample():
        # Half a tick after each tick, every container on an executor
        # is either parked or held by an in-flight prewarm.
        yield env.timeout(0.05)
        while True:
            worst.append(max(
                len(platform.cluster.node(node).allocations_of_kind("container"))
                for node in ("n0001", "n0002")
            ))
            yield env.timeout(0.1)

    scaler.start()
    platform.process(sample())
    platform.run_until(6.0)
    assert scaler.prewarms > 0
    assert max(worst) <= 2
    assert all(count <= 2 for count in warm_counts(platform, "img0").values())


def test_loop_never_keeps_the_run_alive():
    platform, forecaster, scaler = build()
    scaler.start()
    platform.run_until(1.0)
    assert scaler.running
    platform.run()          # returns although the loop still ticks
    assert scaler.running
    assert platform.env.now == 1.0


def test_reprovisions_after_crash_and_heal():
    platform, forecaster, scaler = build(interval_s=0.25)
    drive_arrivals(forecaster, rate=8.0, duration=2.0)
    scaler.start()
    platform.run_until(2.0)
    before = warm_counts(platform, "img0")
    assert sum(before.values()) > 0
    # Crash wipes the node's pool; re-registration starts empty.
    platform.manager.remove_node("n0001")
    platform.register_node("n0001", cores=2, memory_bytes=8 * GiB)
    assert warm_counts(platform, "img0")["n0001"] == 0
    # Keep demand flowing so the forecast stays warm, let the loop tick.
    for i in range(16):
        forecaster.observe_arrival(2.0 + i * 0.125, "fn0")
    platform.run_until(4.0)
    platform.run()
    assert warm_counts(platform, "img0")["n0001"] > 0


def test_multiple_images_each_get_pools():
    platform, forecaster, scaler = build(images=2)
    drive_arrivals(forecaster, rate=4.0, duration=2.0, function="fn0")
    for i in range(8):
        # After fn0's stream: the aggregate clock must not run backwards.
        forecaster.observe_arrival(2.0 + i * 0.25, "fn1")
    scaler.start()
    platform.run_until(3.0)
    platform.run()
    assert sum(warm_counts(platform, "img0").values()) > 0
    assert sum(warm_counts(platform, "img1").values()) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(interval_s=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(percentile=1.5)
    with pytest.raises(ValueError):
        AutoscalerConfig(max_warm_per_node=0)
