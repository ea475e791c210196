"""GPU warm-pool autoscaling: forecast-driven prewarm + spread."""

import pytest

from repro.api import ClusterSpec, Platform
from repro.capacity import AutoscalerConfig
from repro.gpu import GpuFunctionSpec
from repro.gpuservice import BatchPolicy, GpuServiceConfig

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


def test_autoscaler_never_keeps_the_run_alive():
    platform, service = build()
    service.register(spec())
    platform.run_until(1.0)
    assert service.autoscaler.running
    platform.run()          # returns although the loop still ticks
    assert service.autoscaler.running
    assert platform.env.now == 1.0
