"""End-to-end rFaaS platform tests: invoke, warm starts, reclamation."""

import pytest

from repro.cluster import AllocationError
from repro.interference import ResourceDemand
from repro.rfaas import ExecutorMode, InvocationStatus, NoCapacityError

from .conftest import Harness

GiB = 1024**3
MiB = 1024**2


def run_invocations(h, client, n, function="noop", payload=1024):
    results = []

    def proc():
        for _ in range(n):
            result = yield client.invoke(function, payload_bytes=payload)
            results.append(result)

    h.env.process(proc())
    h.env.run()
    return results


def test_invoke_roundtrip_ok(harness):
    harness.register_node("n0001")
    harness.register_function("noop", runtime_s=0.0)
    client = harness.client()
    (result,) = run_invocations(harness, client, 1)
    assert result.ok
    assert result.node_name == "n0001"
    assert result.startup_kind == "cold"
    assert result.timings.total > 0
    assert result.timings.network_out > 0


def test_second_invocation_attached_no_startup(harness):
    harness.register_node("n0001")
    harness.register_function("noop", runtime_s=0.0)
    client = harness.client()
    first, second = run_invocations(harness, client, 2)
    assert first.startup_kind == "cold"
    # The function process stays attached: zero sandbox cost afterwards.
    assert second.startup_kind == "attached"
    assert second.timings.startup == 0.0


def test_prewarm_eliminates_cold_start(harness):
    reg = harness.register_node("n0001")
    harness.register_function("noop", runtime_s=0.0)
    reg.executor.prewarm(harness.image)
    client = harness.client()
    (result,) = run_invocations(harness, client, 1)
    assert result.startup_kind == "warm"


def test_execution_time_reflects_function_runtime(harness):
    harness.register_node("n0001")
    harness.register_function("work", runtime_s=0.25)
    client = harness.client()
    (result,) = run_invocations(harness, client, 1, function="work")
    assert result.timings.execution >= 0.25
    # Alone on the node: no meaningful dilation.
    assert result.timings.execution < 0.26


def test_interference_dilates_execution(harness):
    """A memory-hogging batch tenant slows the function down."""
    harness.register_node("n0001", cores=4)
    hog = ResourceDemand(cores=16, membw=60e9, llc_bytes=40 * MiB, frac_membw=0.6)
    harness.loads.add("n0001", "batch-job", hog)
    harness.register_function(
        "membound", runtime_s=0.2,
        demand=ResourceDemand(cores=1, membw=10e9, llc_bytes=20 * MiB, frac_membw=0.8),
    )
    client = harness.client()
    (result,) = run_invocations(harness, client, 1, function="membound")
    assert result.timings.execution > 0.2 * 1.05


def test_concurrent_invocations_respect_slots(harness):
    harness.register_node("n0001", cores=2)
    harness.register_function("work", runtime_s=0.1)
    client = harness.client()
    done = []

    def proc(tag):
        result = yield client.invoke("work")
        done.append((tag, harness.env.now, result.status))

    for tag in range(3):
        harness.env.process(proc(tag))
    harness.env.run()
    assert all(status == InvocationStatus.OK for _, _, status in done)
    times = sorted(t for _, t, _ in done)
    # Two run concurrently on the executor's 2 slots; the third queues.
    assert times[2] > times[0] + 0.09
    # Parallel invokes shared one lease.
    assert len(harness.manager.node_info("n0001").leases) == 1


def test_lease_reuse_single_connection(harness):
    harness.register_node("n0001")
    harness.register_function("noop", runtime_s=0.0)
    client = harness.client()
    results = run_invocations(harness, client, 5)
    assert all(r.ok for r in results)
    assert client.redirects == 0
    assert len(harness.manager.node_info("n0001").leases) == 1


def test_lease_accounting_and_release(harness):
    reg = harness.register_node("n0001", cores=4, memory=8 * GiB)
    harness.register_function("noop", runtime_s=0.0)
    client = harness.client()
    run_invocations(harness, client, 1)
    assert reg.cores_free == 3
    client.close()
    assert reg.cores_free == 4
    node = harness.cluster.node("n0001")
    assert node.allocations_of_kind("function") == ()


def test_no_capacity_rejected(harness):
    harness.register_function("noop", runtime_s=0.0)
    client = harness.client()
    (result,) = run_invocations(harness, client, 1)
    assert result.status == InvocationStatus.REJECTED


def reclaim_mid_invocation(h, immediate, invocations=1, at_s=0.5):
    """Invoke the 1 s ``slow`` function back to back while n0001 is reclaimed
    at ``at_s``; return the client, the results and how long n0001 took to
    drain its in-flight work."""
    client = h.client()
    results, drain = [], []

    def invoker():
        for _ in range(invocations):
            result = yield client.invoke("slow")
            results.append(result)

    def reclaimer():
        yield h.env.timeout(at_s)
        executor = h.manager.node_info("n0001").executor
        t0 = h.env.now
        h.manager.remove_node("n0001", immediate=immediate)
        while executor.active_invocations:
            yield h.env.timeout(0.001)
        drain.append(h.env.now - t0)

    h.env.process(invoker())
    h.env.process(reclaimer())
    h.env.run()
    return client, results, drain[0]


def test_graceful_remove_lets_invocation_finish(harness):
    harness.register_node("n0001")
    harness.register_node("n0002")
    harness.register_function("slow", runtime_s=1.0)
    client, results, drain_s = reclaim_mid_invocation(harness, immediate=False,
                                                      invocations=3)
    # The in-flight invocation finishes where it started: no redirect,
    # and the drain is bounded by the function still running (Sec. IV-E).
    assert all(result.ok for result in results) and len(results) == 3
    assert results[0].node_name == "n0001"
    assert client.redirects == 0
    assert 0.01 < drain_s <= 1.0 + 0.1
    assert not harness.manager.is_registered("n0001")


def test_immediate_remove_terminates_and_redirects(harness):
    harness.register_node("n0001")
    harness.register_node("n0002")
    harness.register_function("slow", runtime_s=1.0)
    client, results, drain_s = reclaim_mid_invocation(harness, immediate=True,
                                                      invocations=3)
    # The batch system gets the node back at once; the aborted invocation
    # is redirected and every invocation still completes.
    assert drain_s < 0.01
    assert all(result.ok for result in results) and len(results) == 3
    assert results[0].node_name == "n0002"
    assert client.redirects == 1


def test_immediate_remove_no_fallback_terminates(harness):
    harness.register_node("n0001")
    harness.register_function("slow", runtime_s=1.0)
    _, results, _ = reclaim_mid_invocation(harness, immediate=True, at_s=0.2)
    assert results[0].status in (InvocationStatus.TERMINATED, InvocationStatus.REJECTED)


@pytest.mark.parametrize("prewarm, bound_s", [(False, 1.0), (True, 0.05)])
def test_new_node_serves_its_first_invocation_quickly(harness, prewarm, bound_s):
    """Sec. III-A: a harvested node integrates quickly -- well under a
    second from registration to the first result, where a batch queue
    takes minutes."""
    harness.register_function("noop", runtime_s=0.0)
    registered = harness.register_node("n0001")
    if prewarm:
        registered.executor.prewarm(harness.image)
    (result,) = run_invocations(harness, harness.client(), 1)
    assert result.ok
    assert harness.env.now < bound_s  # registered and invoked at t = 0


def test_register_node_validation(harness):
    harness.register_node("n0001")
    with pytest.raises(ValueError):
        harness.register_node("n0001")  # duplicate
    with pytest.raises(ValueError):
        harness.manager.register_node("n0002", cores=0, memory_bytes=0)
    # Cannot register more than the node has free.
    node = harness.cluster.node("n0002")
    node.allocate("job", cores=36)
    with pytest.raises(AllocationError):
        harness.register_node("n0002", cores=1)
    # Removing an unregistered node is an idempotent no-op.
    assert harness.manager.remove_node("n0003") is False


def test_lease_prefers_warm_node(harness):
    harness.register_node("n0001")
    reg2 = harness.register_node("n0002")
    harness.register_function("noop", runtime_s=0.0)
    reg2.executor.prewarm(harness.image)
    client = harness.client()
    (result,) = run_invocations(harness, client, 1)
    assert result.node_name == "n0002"
    assert result.startup_kind == "warm"


def test_gpu_lease(harness):
    # Register a GPU node.
    from repro.cluster import DAINT_GPU, Node

    harness.cluster.add_node(Node("gpu0", DAINT_GPU))
    harness.manager.register_node("gpu0", cores=2, memory_bytes=4 * GiB, gpus=1)
    harness.register_function("gpufn", runtime_s=0.1, needs_gpu=True)
    client = harness.client()
    (result,) = run_invocations(harness, client, 1, function="gpufn")
    assert result.ok
    assert result.node_name == "gpu0"
    with pytest.raises(NoCapacityError):
        harness.manager.lease(client="x", cores=1, gpus=1)  # GPU now leased? no...
