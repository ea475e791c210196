"""GPU warm-pool autoscaling: forecast-driven prewarm + spread."""

import numpy as np

from repro.api import ClusterSpec, Platform
from repro.capacity import AutoscalerConfig
from repro.gpu import GpuFunctionSpec
from repro.gpuservice import BatchPolicy, GpuServiceConfig
from repro.telemetry import TelemetryCollector

MiB = 1024**2


def spec(name="fn"):
    return GpuFunctionSpec(
        name=name, kernel_count=4, kernel_time_s=1e-3, occupancy=0.5,
        input_bytes=1_000_000, device_memory_bytes=256 * MiB,
    )


def build(max_batch_size=1, gpu_nodes=2):
    config = GpuServiceConfig(
        gpu_nodes=gpu_nodes,
        policy=BatchPolicy(max_batch_size=max_batch_size, max_wait_s=0.002),
        autoscale=AutoscalerConfig(),
    )
    platform = Platform.build(ClusterSpec(nodes=gpu_nodes, jitter=0.0),
                              seed=0, gpu=config)
    return platform, platform.gpu


def test_prewarm_generator_warms_one_context_once():
    platform, service = build()
    fn = service.register(spec())
    env = platform.env
    env.process(service.prewarm(fn.name, "n0001/gpu0"))
    platform.run()
    assert service.prewarms == 1
    assert service.warm_devices_for(fn.name) == ["n0001/gpu0"]
    # Warming an already-warm context is a no-op.
    env.process(service.prewarm(fn.name, "n0001/gpu0"))
    platform.run()
    assert service.prewarms == 1


def test_prewarm_ignores_unknown_and_offline_targets():
    platform, service = build()
    fn = service.register(spec())
    service.lose_node("n0001")
    platform.env.process(service.prewarm(fn.name, "n0001/gpu0"))
    platform.env.process(service.prewarm("nope", "n0000/gpu0"))
    platform.env.process(service.prewarm(fn.name, "no-such-device"))
    platform.run()
    assert service.prewarms == 0


def test_autoscaler_prewarms_ahead_of_forecast_demand():
    platform, service = build()
    fn = service.register(spec())
    env = platform.env

    def load():
        # A steady arrival stream trains the forecaster; the leased
        # device warms itself on the first cold batch, so any spread
        # beyond one device must come from the autoscaler.
        for _ in range(40):
            service.submit(fn.name)
            yield env.timeout(0.05)

    platform.process(load())
    platform.run_until(3.0)
    platform.run()
    assert service.autoscaler.ticks > 0
    assert service.prewarms >= 1
    # Both devices end warm: the lease's own plus the prewarmed spare.
    assert service.warm_devices_for(fn.name) == ["n0000/gpu0", "n0001/gpu0"]


def test_prewarm_schedule_is_pinned_across_topology_groups():
    # 4 hosts in 2 groups ({n0000, n0001, n0002}, {n0003}), batches of 4:
    # "a" ramps up and is sized at ceil(headroom * forecast / 4) devices;
    # "b" bursts in late, and its two-device deficit is spread across
    # both groups (n0000 then n0003, not n0000 then n0002).
    config = GpuServiceConfig(
        gpu_nodes=4,
        policy=BatchPolicy(max_batch_size=4, max_wait_s=0.002),
        autoscale=AutoscalerConfig(interval_s=0.25),
    )
    with TelemetryCollector() as collector:
        platform = Platform.build(
            ClusterSpec(nodes=4, jitter=0.0, nodes_per_group=3), seed=0,
            gpu=config,
        )
        service = platform.gpu
        env = platform.env
        for name in ("a", "b"):
            service.register(spec(name))
        rng = np.random.default_rng(7)

        def ramp(function, rate0, rate1, duration, delay=0.0):
            yield env.timeout(delay)
            t = 0.0
            while t < duration:
                gap = rng.exponential(1.0 / (rate0 + (rate1 - rate0) * t / duration))
                yield env.timeout(gap)
                t += gap
                service.submit(function)

        platform.process(ramp("a", 2.0, 14.0, 3.0))
        platform.process(ramp("b", 40.0, 120.0, 0.5, delay=2.2))
        platform.run_until(4.0)
        platform.run()

    prewarms = [(round(s.start, 9), s.attrs["device"], s.attrs["function"])
                for s in collector.spans if s.name == "gpu.prewarm"]
    assert prewarms == [
        (1.777369621, "n0001/gpu0", "a"),
        (2.027369621, "n0002/gpu0", "a"),
        (2.527369621, "n0000/gpu0", "b"),
        (2.527369621, "n0003/gpu0", "b"),
        (2.777369621, "n0002/gpu0", "b"),
    ]
    assert {fn: service.warm_devices_for(fn) for fn in ("a", "b")} == {
        "a": ["n0000/gpu0", "n0001/gpu0", "n0002/gpu0"],
        "b": ["n0000/gpu0", "n0001/gpu0", "n0002/gpu0", "n0003/gpu0"],
    }


def test_autoscaler_never_keeps_the_run_alive():
    platform, service = build()
    service.register(spec())
    platform.run_until(1.0)
    assert service.autoscaler.running
    platform.run()          # returns although the loop still ticks
    assert service.autoscaler.running
    assert platform.env.now == 1.0
