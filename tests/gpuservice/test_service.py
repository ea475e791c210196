"""GPU service end-to-end: cost model, warm contexts, tracing."""

import weakref

import pytest

from repro.api import Platform, PlatformConfig
from repro.experiments import gpu_scaling_sweep
from repro.gpu import GpuFunctionSpec
from repro.gpuservice import BatchPolicy, GpuServiceConfig
from repro.gpuservice import service as gpu_service
from repro.telemetry import TelemetryCollector

MiB = 1024**2


def spec(name="fn", kernels=4, kernel_time=1e-3, occupancy=0.5,
         input_bytes=1_000_000, device_memory=256 * MiB):
    return GpuFunctionSpec(
        name=name, kernel_count=kernels, kernel_time_s=kernel_time,
        occupancy=occupancy, input_bytes=input_bytes,
        device_memory_bytes=device_memory,
    )


def build(policy=None):
    config = GpuServiceConfig(
        gpu_nodes=2, policy=policy or BatchPolicy(max_batch_size=1),
    )
    platform = Platform.build(PlatformConfig(nodes=2, jitter=0.0, gpu=config),
                              seed=0)
    return platform, platform.gpu


def expected_latency(fn, batch_size, cold):
    """The service's published cost model, recomputed independently."""
    latency = 0.0
    if cold:
        latency += gpu_service.CONTEXT_SETUP_S
        latency += fn.device_memory_bytes / gpu_service.PCIE_BANDWIDTH
    latency += batch_size * fn.input_bytes / gpu_service.PCIE_BANDWIDTH
    latency += gpu_service.SETUP_S
    latency += fn.kernel_count * (
        gpu_service.LAUNCH_OVERHEAD_S
        + fn.kernel_time_s * (1.0 + (batch_size - 1) * gpu_service.BATCH_MARGINAL)
    )
    return latency


def test_unknown_function_is_rejected():
    platform, service = build()
    with pytest.raises(ValueError):
        service.submit("never-registered")


def test_single_cold_request_latency_matches_the_cost_model():
    platform, service = build()
    fn = service.register(spec())
    results = []

    def driver():
        results.append((yield service.submit(fn.name).done))

    platform.process(driver())
    platform.run()
    assert results and results[0]["batch_size"] == 1
    want = expected_latency(fn, batch_size=1, cold=True)
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
    cold_cost = (gpu_service.CONTEXT_SETUP_S
                 + fn.device_memory_bytes / gpu_service.PCIE_BANDWIDTH)
    assert latencies[0] - latencies[1] == pytest.approx(cold_cost, rel=1e-12)
    assert [device for device, _ in service.online_slots()
            if fn.name in service._slots[device].warm] == [
                service._lease_of[fn.name].device]


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
    want = expected_latency(fn, batch_size=4, cold=True)
    for r in results:
        assert r["latency_s"] == pytest.approx(want, rel=1e-12)
    # Amortization: 4 requests in one launch beat 4 unbatched launches.
    assert want < 4 * expected_latency(fn, 1, cold=True)


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
    platform.run(0.001)
    assert service.batcher.pending_total() == 1
    platform.run()
    assert request.done.triggered and request.done.value["batch_size"] == 1
    assert service.completed == 1
    assert service.batcher.flushes_on_timer == 1


def test_a_partial_batch_enqueued_from_a_daemon_flushes_on_its_timer():
    """A daemon here is a loop that waits on ticks.  The max-wait timer
    it starts by enqueueing is a live entry, so run() waits for it and
    the request completes."""
    platform, service = build(policy=BatchPolicy(max_batch_size=64,
                                                 max_wait_s=5.0))
    fn = service.register(spec())
    env = platform.env
    results = []

    def loop():
        results.append((yield service.submit(fn.name).done))
        while True:
            yield env.tick(1.0)

    env.process(loop())
    platform.run()
    assert service.batcher.flushes_on_timer == 1
    assert service.completed == 1
    assert results and results[0]["batch_size"] == 1


def _gpu_scaling_run(monkeypatch, on_build=lambda platform: None):
    """The gpu_scaling scenario at B=8, 512 requests per stream; returns
    its platform.  ``on_build`` sees the platform before the streams start."""
    built = []
    build = gpu_scaling_sweep.Platform.build

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        on_build(built[-1])
        return built[-1]

    monkeypatch.setattr(gpu_scaling_sweep.Platform, "build", recording_build)
    (spec,) = gpu_scaling_sweep.plan_scenarios(batch_sizes=(8,), requests=512).scenarios
    spec.fn(spec.params, spec.seed)
    return built[0]


def test_a_batched_gpu_run_schedules_only_live_work(monkeypatch):
    """Event budget of a gpu_scaling run (B=8, 512 requests per stream),
    2,820 events:

    - per request a done event (1,024);
    - per arrival after each stream's first, an arrival timer (1,022);
    - per stream the driver's zero-delay start timer (2);
    - per batch the batch process's start and exit, its PCIe-input and
      setup timeouts, one max-wait timer and one kernel timer (768);
    - two cold context loads, each a setup and a transfer timeout (4).

    The generator driver cost 2,824: its process exit, and the sleep it
    took after its last arrival, per stream.  A timer that grows back
    into a process adds events here."""
    platform = _gpu_scaling_run(monkeypatch)
    service = platform.gpu
    assert service.completed == 1024 and service.batches == 128
    assert platform.env.event_count == 2820


def test_a_finished_request_is_freed_when_it_completes(monkeypatch):
    """Every :class:`GpuRequest` is watched by ``weakref.finalize``.  At
    each completion the live requests are no more than those queued or
    in flight, and none is alive once the run returns: the driver keeps
    no list of what it submitted."""
    live = [0]
    bounded = []

    def freed():
        live[0] -= 1

    def watch(platform):
        service = platform.gpu
        submit = service.submit

        def completed(done):
            bounded.append(live[0] <= service.submitted - service.completed)

        def watched_submit(function, ctx=None):
            request = submit(function, ctx)
            live[0] += 1
            weakref.finalize(request, freed)
            request.done.add_callback(completed)
            return request

        monkeypatch.setattr(service, "submit", watched_submit)

    platform = _gpu_scaling_run(monkeypatch, watch)
    assert platform.gpu.completed == 1024 and len(bounded) == 1024
    assert all(bounded) and live[0] == 0
