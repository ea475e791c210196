"""Device loss: lease revocation, batch replay, causal traces, billing."""

import pytest

from repro.api import Platform, PlatformConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpu import GpuFunctionSpec
from repro.gpuservice import BatchPolicy, GpuServiceConfig
from repro.rfaas import GpuLeaseRevokedError, NoCapacityError
from repro.telemetry import TelemetryCollector

MiB = 1024**2


def spec(name="fn"):
    return GpuFunctionSpec(
        name=name, kernel_count=16, kernel_time_s=1e-3, occupancy=0.5,
        input_bytes=1_000_000, device_memory_bytes=256 * MiB,
    )


def is_warm(service, function, device):
    """The device holds a warm context for ``function``."""
    return function in service._slots[device].warm


def build(plan=None, gpu_nodes=2, max_batch_size=4):
    config = GpuServiceConfig(
        gpu_nodes=gpu_nodes,
        policy=BatchPolicy(max_batch_size=max_batch_size, max_wait_s=0.002),
    )
    platform = Platform.build(
        PlatformConfig(nodes=max(gpu_nodes, 2), jitter=0.0, gpu=config),
        seed=0, faults=plan,
    )
    return platform, platform.gpu


def test_device_loss_replays_in_flight_batches_on_the_survivor():
    plan = FaultPlan().add(FaultEvent(FaultKind.GPU_DEVICE_LOSS, 0.02,
                                      node="n0000", duration_s=0.1))
    with TelemetryCollector() as collector:
        platform, service = build(plan)
        fn = service.register(spec())
        outcomes = []

        def driver():
            requests = [service.submit(fn.name) for _ in range(12)]
            for request in requests:
                outcomes.append((yield request.done))

        platform.process(driver())
        platform.run()

    # >= 95% of invocations complete despite losing a device mid-batch
    # (here: all of them, on the surviving device).
    assert len(outcomes) == 12
    assert service.completed == service.submitted == 12
    assert service.devices_lost == 1
    assert service.replays > 0
    assert service.leases.revoked >= 1
    replayed = [o for o in outcomes if o["replays"] > 0]
    assert replayed and all(o["device"] == "n0001/gpu0" for o in replayed)
    # Wasted attempts are billed.
    assert service.replay_cost > 0

    # Causal trace: a replayed request's single trace runs revoke ->
    # replay -> completion, hopping devices but never changing trace_id.
    spans = list(collector.spans)
    revokes = [s for s in spans if s.name == "gpu.lease.revoked"]
    assert revokes and all(s.attrs["device"] == "n0000/gpu0" for s in revokes)
    request_spans = [s for s in spans if s.name == "gpu.request"]
    assert len(request_spans) == 12
    by_trace = {}
    for span in spans:
        trace = span.attrs.get("trace_id")
        if trace is not None:
            by_trace.setdefault(trace, []).append(span)
    for outcome_span in request_spans:
        trace = by_trace[outcome_span.attrs["trace_id"]]
        names = [s.name for s in trace]
        assert names.count("gpu.request") == 1
    replayed_traces = 0
    for trace_spans in by_trace.values():
        names = [s.name for s in trace_spans]
        if "gpu.replay" not in names:
            continue
        replayed_traces += 1
        # The interrupted ride errored, the retry completed cleanly.
        items = [s for s in trace_spans if s.name == "gpu.batch.item"]
        assert len(items) >= 2
        assert any(s.attrs.get("error") for s in items)
        assert any(not s.attrs.get("error") for s in items)
        assert "gpu.request" in names
    assert replayed_traces == len(replayed)
    # The node healed: both devices are back online, cold.
    assert service.devices_online() == ["n0000/gpu0", "n0001/gpu0"]
    assert not is_warm(service, fn.name, "n0000/gpu0")


def test_device_loss_replays_in_flight_batches_in_launch_order():
    with TelemetryCollector() as collector:
        platform, service = build(max_batch_size=1)
        fn = service.register(spec())
        requests = [service.submit(fn.name) for _ in range(12)]
        platform.run(0.001)     # twelve single-request batches in flight
        assert service.batcher.pending_total() == 0
        service.lose_node("n0000")
        platform.run()
    replayed = [s.attrs["request"] for s in collector.spans
                if s.name == "gpu.replay"]
    assert replayed == [r.req_id for r in requests] == list(range(1, 13))
    assert all(r.done.value["device"] == "n0001/gpu0" for r in requests)


def test_queued_requests_behind_a_dead_device_are_rerouted_unbilled():
    platform, service = build(max_batch_size=64)
    fn = service.register(spec())
    outcomes = []

    def driver():
        requests = [service.submit(fn.name) for _ in range(3)]
        for request in requests:
            outcomes.append((yield request.done))

    platform.process(driver())
    platform.run(0.0005)        # queued, nothing launched yet
    assert service.batcher.pending_total() == 3
    lost = service.lose_node("n0000")
    assert lost == 1
    platform.run()
    assert [o["device"] for o in outcomes] == ["n0001/gpu0"] * 3
    # Queued (never-launched) work is re-routed but not billed: no
    # device time was wasted.
    assert service.replays == 3
    assert service.replay_cost == 0.0
    assert all(o["replays"] == 0 for o in outcomes)


def test_losing_the_last_device_fails_requests_with_the_lease_error():
    platform, service = build(gpu_nodes=1, max_batch_size=4)
    fn = service.register(spec())
    failures = []

    def driver():
        requests = [service.submit(fn.name) for _ in range(4)]
        for request in requests:
            try:
                yield request.done
            except (NoCapacityError, GpuLeaseRevokedError) as exc:
                failures.append(exc)

    platform.process(driver())
    platform.run(0.01)          # the batch is in flight
    service.lose_node("n0000")
    platform.run()
    assert len(failures) == 4
    assert service.failed == 4 and service.completed == 0
    lease = service.leases  # every lease on the dead device was revoked
    assert lease.active_leases() == []


def test_restored_devices_rejoin_the_lease_pool_cold():
    platform, service = build(max_batch_size=1)
    fn_a = service.register(spec("fn_a"))
    fn_b = service.register(spec("fn_b"))
    service.submit(fn_a.name)
    platform.run()
    assert is_warm(service, fn_a.name, "n0000/gpu0")
    service.lose_node("n0000")
    assert service.devices_online() == ["n0001/gpu0"]
    assert service.restore_node("n0000") == 1
    assert service.devices_online() == ["n0000/gpu0", "n0001/gpu0"]
    assert not is_warm(service, fn_a.name, "n0000/gpu0")
    # The restored device is grantable again: fn_b's first grant picks
    # the least-committed device, which is the fresh n0000/gpu0.
    service.submit(fn_b.name)
    platform.run()
    assert service._lease_of[fn_b.name].device in service.devices_online()
