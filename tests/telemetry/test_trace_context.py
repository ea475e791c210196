"""Trace-context propagation: every request forms one causal tree.

Covers the causal-tracing tentpole: a :class:`TraceContext` minted at
the front door (CapacityPlane admission, or a bare client) is threaded
through admission instants, retry attempts, executor dispatch, and the
cloud-burst detour, so every span of one request shares one
``trace_id`` — including retries that resume on different hardware
after a node crash.
"""

import pytest

from repro.api import Platform, PlatformConfig
from repro.capacity import CapacityConfig
from repro.containers import Image
from repro.faults import FaultPlan
from repro.interference import ResourceDemand
from repro.telemetry import (
    SpanKind,
    TraceContext,
    Tracer,
    TelemetryCollector,
    critical_path,
    trace_index,
    trace_root,
)

MiB = 1024**2
GiB = 1024**3


# -- TraceContext unit behaviour ---------------------------------------------

def test_mint_draws_fresh_counter_ids():
    """Each tracer numbers its own traces from 1; nothing is global."""
    tracer = Tracer(clock=lambda: 0.0)
    a, b = tracer.mint(), tracer.mint()
    assert (a.trace_id, b.trace_id) == (1, 2)
    assert a.span_id is None
    assert Tracer(clock=lambda: 0.0).mint().trace_id == 1


def test_child_keeps_trace_reanchors_span():
    ctx = TraceContext(7, span_id=5)
    child = ctx.child(9)
    assert child.trace_id == 7 and child.span_id == 9
    assert ctx.span_id == 5          # parent context untouched


def test_context_is_immutable_and_hashable():
    ctx = TraceContext(1, 2)
    with pytest.raises(AttributeError):
        ctx.trace_id = 3
    assert ctx == TraceContext(1, 2)
    assert hash(ctx) == hash(TraceContext(1, 2))
    assert ctx != TraceContext(1, 3)


# -- Tracer ctx plumbing ------------------------------------------------------

def test_ctx_parents_span_when_stack_is_empty():
    tracer = Tracer(clock=lambda: 0.0)
    ctx = TraceContext(42, span_id=7)
    with tracer.span("hop", ctx=ctx) as outer:
        with tracer.span("nested") as inner:
            pass
    assert outer.parent_id == 7
    assert outer.attrs["trace_id"] == 42
    # Nested spans inherit trace_id from the local parent, no ctx needed.
    assert inner.parent_id == outer.span_id
    assert inner.attrs["trace_id"] == 42


def test_local_parent_wins_over_ctx():
    tracer = Tracer(clock=lambda: 0.0)
    foreign = TraceContext(99, span_id=1)
    with tracer.span("outer", ctx=TraceContext(42, None)) as outer:
        with tracer.span("inner", ctx=foreign) as inner:
            pass
    assert inner.parent_id == outer.span_id      # not foreign.span_id
    assert inner.attrs["trace_id"] == 42


def test_begin_finish_and_instant_accept_ctx():
    ticks = iter([1.0, 2.0, 3.0])
    tracer = Tracer(clock=lambda: next(ticks))
    ctx = TraceContext(5, span_id=3)
    root = tracer.begin("job", ctx=ctx)
    marker = tracer.instant("evt", ctx=ctx.child(root.span_id))
    tracer.finish(root)
    assert root.parent_id == 3 and root.attrs["trace_id"] == 5
    assert marker.parent_id == root.span_id and marker.attrs["trace_id"] == 5


# -- end-to-end through the platform -----------------------------------------

def build(executors=("n0001", "n0002"), cores=2, capacity=CapacityConfig(),
          faults=None, seed=0):
    with TelemetryCollector():
        platform = Platform.build(
            PlatformConfig(nodes=3, jitter=0.0, capacity=capacity), seed=seed,
            faults=faults,
        )
    for node in executors:
        platform.register_node(node, cores=cores, memory_bytes=8 * GiB)
    platform.functions.register(
        "fn", Image("img", size_bytes=100 * MiB, runtime_memory_bytes=256 * MiB),
        runtime_s=0.05,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    return platform


def govern(platform, count, tenants=2, until=30.0):
    plane = platform.capacity
    clients = [platform.client("n0000", name=f"t{i}") for i in range(tenants)]
    results = []

    def one(client):
        result = yield plane.invoke(client, "fn", tenant=client.name)
        results.append(result)

    def source():
        for i in range(count):
            platform.process(one(clients[i % tenants]))
            yield platform.env.timeout(0.05)

    platform.process(source())
    platform.run(until)
    platform.run()
    for client in clients:
        client.close()
    return results


def test_governed_request_forms_one_tree_per_invocation():
    platform = build()
    results = govern(platform, count=6)
    assert all(r.ok for r in results)
    traces = trace_index(platform.telemetry.spans)
    roots = {
        key: trace_root(members) for key, members in traces.items()
        if trace_root(members).name == SpanKind.CAPACITY
    }
    assert len(roots) == 6           # one trace per governed invocation
    for (run, tid), members in traces.items():
        assert run == 0
        if (run, tid) not in roots:
            continue
        names = {s.name for s in members}
        # The whole journey is in one tree: admission, client request,
        # the attempt, and the executor-side invocation.
        assert {"capacity.admit", SpanKind.REQUEST, SpanKind.ATTEMPT,
                SpanKind.INVOCATION} <= names
        assert all(s.attrs["trace_id"] == tid for s in members)
        # Exactly one root; everything else links inside the trace.
        ids = {s.span_id for s in members}
        orphans = [s for s in members
                   if s.parent_id is not None and s.parent_id not in ids]
        assert not orphans


def test_trace_survives_node_crash_and_spans_the_retry():
    """Acceptance: admission -> crash -> retry -> completion, one trace_id."""
    plan = (FaultPlan(name="storm")
            .node_crash(at_s=0.3, node="n0001", duration_s=0.5, immediate=True)
            .node_crash(at_s=0.6, node="n0002", duration_s=0.5, immediate=True))
    platform = build(faults=plan)
    results = govern(platform, count=40, until=10.0)
    assert len(results) == 40
    traces = trace_index(platform.telemetry.spans)

    retried = []
    for (_run, tid), members in traces.items():
        root = trace_root(members)
        if root is None or root.name != SpanKind.CAPACITY:
            continue
        attempts = sorted((s for s in members if s.name == SpanKind.ATTEMPT),
                          key=lambda s: s.start)
        if len(attempts) >= 2 and attempts[-1].attrs.get("outcome") == "ok":
            retried.append((tid, members, attempts))
    assert retried, "the storm should force at least one traced retry"

    tid, members, attempts = retried[0]
    # Every attempt is a *sibling* under the same rfaas.request span.
    request = next(s for s in members if s.name == SpanKind.REQUEST)
    assert {a.parent_id for a in attempts} == {request.span_id}
    # The whole journey carries one trace id, crash notwithstanding.
    assert all(s.attrs["trace_id"] == tid for s in members)
    # And the critical path walks the tree root-to-leaf deterministically.
    path = critical_path(members)
    assert path[0]["name"] == SpanKind.CAPACITY
    assert any(step["name"] == SpanKind.ATTEMPT for step in path)
    assert sum(step["self_s"] for step in path) == pytest.approx(
        path[0]["duration_s"])


def test_cloud_burst_detour_joins_the_trace():
    platform = build(executors=("n0001",), cores=1)
    govern(platform, count=30, tenants=6)
    spans = list(platform.telemetry.spans)
    bursts = [s for s in spans if s.name == "capacity.burst"]
    assert bursts, "the overloaded pool should force cloud bursts"
    roots = {s.span_id: s for s in spans if s.name == SpanKind.CAPACITY}
    for burst in bursts:
        assert burst.parent_id in roots
        assert burst.attrs["trace_id"] == roots[burst.parent_id].attrs["trace_id"]


def test_bare_client_mints_its_own_trace():
    platform = build(capacity=None)
    client = platform.client("n0000", name="solo")
    done = []

    def flow():
        result = yield client.invoke("fn")
        done.append(result)

    platform.process(flow())
    platform.run(5.0)
    client.close()
    assert done and done[0].status.value == "ok"
    spans = list(platform.telemetry.spans)
    request = next(s for s in spans if s.name == SpanKind.REQUEST)
    assert request.parent_id is None          # ungoverned: client is the root
    tid = request.attrs["trace_id"]
    attempt = next(s for s in spans if s.name == SpanKind.ATTEMPT)
    invocation = next(s for s in spans if s.name == SpanKind.INVOCATION)
    assert attempt.parent_id == request.span_id
    assert invocation.parent_id == attempt.span_id
    assert attempt.attrs["trace_id"] == invocation.attrs["trace_id"] == tid
