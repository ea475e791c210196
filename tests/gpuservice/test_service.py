"""GPU service end-to-end: cost model, warm contexts, tracing."""

import pytest

from repro.api import ClusterSpec, Platform
from repro.gpu import GpuFunctionSpec
from repro.gpuservice import BatchPolicy, GpuServiceConfig
from repro.telemetry import TelemetryCollector

MiB = 1024**2


def spec(name="fn", kernels=4, kernel_time=1e-3, occupancy=0.5,
         input_bytes=1_000_000, device_memory=256 * MiB):
    return GpuFunctionSpec(
        name=name, kernel_count=kernels, kernel_time_s=kernel_time,
        occupancy=occupancy, input_bytes=input_bytes,
        device_memory_bytes=device_memory,
    )


def build(policy=None, **config_kwargs):
    config = GpuServiceConfig(
        gpu_nodes=2, policy=policy or BatchPolicy(max_batch_size=1),
        **config_kwargs,
    )
    platform = Platform.build(ClusterSpec(nodes=2, jitter=0.0), seed=0,
                              gpu=config)
    return platform, platform.gpu


def expected_latency(config, fn, batch_size, cold):
    """The service's published cost model, recomputed independently."""
    latency = 0.0
    if cold:
        latency += config.context_setup_s
        latency += fn.device_memory_bytes / config.pcie_bandwidth
    latency += batch_size * fn.input_bytes / config.pcie_bandwidth
    latency += config.setup_s
    latency += fn.kernel_count * (
        config.launch_overhead_s
        + fn.kernel_time_s * (1.0 + (batch_size - 1) * config.batch_marginal)
    )
    return latency


def test_unknown_function_is_rejected():
    platform, service = build()
    with pytest.raises(ValueError):
        service.submit("never-registered")


def test_hosts_outside_the_cluster_are_rejected():
    with pytest.raises(ValueError, match="typo-host"):
        Platform.build(ClusterSpec(nodes=2),
                       gpu=GpuServiceConfig(hosts=("n0001", "typo-host")))
    platform = Platform.build(ClusterSpec(nodes=2),
                              gpu=GpuServiceConfig(hosts=("n0001",)))
    assert platform.gpu.devices_online() == ["n0001/gpu0"]


def test_single_cold_request_latency_matches_the_cost_model():
    platform, service = build()
    fn = service.register(spec())
    results = []

    def driver():
        results.append((yield service.submit(fn.name).done))

    platform.process(driver())
    platform.run()
    assert results and results[0]["batch_size"] == 1
    want = expected_latency(service.config, fn, batch_size=1, cold=True)
    assert results[0]["latency_s"] == pytest.approx(want, rel=1e-12)


def test_warm_context_skips_setup_and_weight_transfer():
    platform, service = build()
    fn = service.register(spec())
    latencies = []

    def driver():
        first = yield service.submit(fn.name).done
        second = yield service.submit(fn.name).done
        latencies.extend([first["latency_s"], second["latency_s"]])

    platform.process(driver())
    platform.run()
    config = service.config
    cold_cost = (config.context_setup_s
                 + fn.device_memory_bytes / config.pcie_bandwidth)
    assert latencies[0] - latencies[1] == pytest.approx(cold_cost, rel=1e-12)
    assert service.warm_devices_for(fn.name) == [service._lease_of[fn.name].device]


def test_two_functions_land_on_two_devices_deterministically():
    platform, service = build()
    a = service.register(spec("fn_a"))
    b = service.register(spec("fn_b"))
    service.submit(a.name)
    service.submit(b.name)
    platform.run()
    lease_a = service._lease_of[a.name]
    lease_b = service._lease_of[b.name]
    assert lease_a.device == "n0000/gpu0"
    assert lease_b.device == "n0001/gpu0"


def test_batched_requests_share_one_launch_and_amortize():
    platform, service = build(policy=BatchPolicy(max_batch_size=4,
                                                 max_wait_s=1.0))
    fn = service.register(spec())
    results = []

    def driver():
        requests = [service.submit(fn.name) for _ in range(4)]
        for request in requests:
            results.append((yield request.done))

    platform.process(driver())
    platform.run()
    assert service.batches == 1
    assert {r["batch_size"] for r in results} == {4}
    assert service.batcher.flushes_on_size == 1
    # All four completed at the same instant, at the batched cost.
    want = expected_latency(service.config, fn, batch_size=4, cold=True)
    for r in results:
        assert r["latency_s"] == pytest.approx(want, rel=1e-12)
    # Amortization: 4 requests in one launch beat 4 unbatched launches.
    assert want < 4 * expected_latency(service.config, fn, 1, cold=True)


def test_request_traces_form_the_documented_span_tree():
    with TelemetryCollector() as collector:
        platform, service = build(policy=BatchPolicy(max_batch_size=2,
                                                     max_wait_s=1.0))
        fn = service.register(spec())
        r1 = service.submit(fn.name)
        r2 = service.submit(fn.name)
        platform.run()
    spans = list(collector.spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["gpu.request"]) == 2
    assert len(by_name["gpu.batch"]) == 1
    assert len(by_name["gpu.batch.item"]) == 2
    batch = by_name["gpu.batch"][0]
    # Items parent under the batch span but keep their request's trace.
    item_traces = set()
    for item in by_name["gpu.batch.item"]:
        assert item.parent_id == batch.span_id
        item_traces.add(item.attrs["trace_id"])
    request_traces = {s.attrs["trace_id"] for s in by_name["gpu.request"]}
    assert item_traces == request_traces == {r1.ctx.trace_id, r2.ctx.trace_id}
    assert all(s.track == "gpu" for s in spans if s.name.startswith("gpu."))


def test_run_flushes_a_stranded_partial_batch_on_its_timer():
    platform, service = build(policy=BatchPolicy(max_batch_size=64,
                                                 max_wait_s=5.0))
    fn = service.register(spec())
    request = service.submit(fn.name)
    platform.run_until(0.001)
    assert service.batcher.pending_total() == 1
    platform.run()
    assert request.done.triggered and request.done.value["batch_size"] == 1
    assert service.completed == 1
    assert service.batcher.flushes_on_timer == 1
