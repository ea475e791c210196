"""The executor's core slots and its one invocation path.

A free core is taken with no event; a busy executor queues invocations
FIFO, and a release hands the core straight to the head waiter.  The
tests drive a bare :class:`Executor` on a grid of quarter seconds (no
dispatch delay, no interference, a prewarmed zero-cost sandbox), so a
drain can land on the very instant a core is handed over.
"""

import gc
from collections import deque
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.api import Platform, PlatformConfig
from repro.cluster import Cluster, DAINT_MC
from repro.containers import Image, WarmPool
from repro.containers.runtime import SARUS
from repro.experiments import chaos_sweep
from repro.interference import ResourceDemand
from repro.rfaas import (
    Executor,
    FunctionDef,
    InvocationRequest,
    InvocationStatus,
    TerminationError,
)
from repro.rfaas.executor import Invocation
from repro.sim import Environment, Event

TICK = 0.25


class FlatLoads:
    """No interference: every invocation runs at its nominal runtime."""

    def add(self, node_name, key, demand):
        pass

    def remove(self, node_name, key):
        pass

    def slowdown_of(self, node_name, key):
        return 1.0


def bare_executor(cores, max_invocation_s=30.0):
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", 1, DAINT_MC)
    node = cluster.node("n0000")
    pool = WarmPool(env, node, replace(SARUS, warm_attach_s=0.0))
    executor = Executor(env, node, pool, FlatLoads(), cores=cores,
                        max_invocation_s=max_invocation_s)
    executor.dispatch_multiplier = 0.0
    image = Image(name="fn", size_bytes=1 << 20)
    executor.prewarm(image)
    return env, executor, image


def function(image, runtime_s):
    return FunctionDef(name=f"f{runtime_s}", image=image,
                       demand=ResourceDemand(cores=1), runtime_s=runtime_s)


def invoke(env, executor, fdef, index, at, outcomes):
    """A client process: issue at ``at``, record how the invocation ended."""
    yield env.timeout(at)
    request = InvocationRequest(function=fdef.name, payload_bytes=0,
                                invocation_id=index)
    try:
        result = yield executor.execute(fdef, request)
        outcomes[index] = (result.status, env.now)
    except TerminationError:
        outcomes[index] = ("terminated", env.now)


def drainer(env, executor, at, hops):
    """Drain at ``at``, ``hops`` zero-delay steps late: with one or more
    hops it runs after a release at that instant, between a core's
    hand-over and its waiter's resumption."""
    yield env.timeout(at)
    for _ in range(hops):
        yield env.timeout(0)
    executor.drain(immediate=True)


def granted_order(executor, handed=None):
    """Record ``(invocation id, instant)`` as each invocation gets a core.

    Dispatch pickup is the first thing an invocation does with a core.
    With ``handed``, also append to it the id of each queued invocation
    a release hands a core to, in hand-over order: that includes a
    waiter a drain interrupts before its grant fires, which never picks
    up.  Both are keyed on the :class:`Invocation` ``execute`` returns.
    """
    granted = []
    if handed is not None:
        invocation_of = {}

        class Waiters(deque):
            def popleft(self):
                grant = super().popleft()
                handed.append(invocation_of[grant].request.invocation_id)
                return grant

        executor._waiters = Waiters()
        execute = executor.execute

        def tagged_execute(fdef, request):
            invocation = execute(fdef, request)
            if invocation._grant is not None:
                invocation_of[invocation._grant] = invocation
            return invocation

        executor.execute = tagged_execute
    dispatch = executor._dispatch

    def observed_dispatch(invocation):
        granted.append((invocation.request.invocation_id, executor.env.now))
        dispatch(invocation)

    executor._dispatch = observed_dispatch
    return granted


@settings(max_examples=200, deadline=None)
@given(
    cores=st.integers(min_value=1, max_value=4),
    arrivals=st.lists(
        st.tuples(st.integers(min_value=0, max_value=12),
                  st.integers(min_value=1, max_value=6)),
        min_size=1, max_size=12,
    ),
    drains=st.lists(
        st.tuples(st.integers(min_value=0, max_value=20),
                  st.integers(min_value=0, max_value=2)),
        max_size=2,
    ),
)
def test_cores_are_never_oversubscribed_and_granted_fifo(cores, arrivals, drains):
    env, executor, image = bare_executor(cores)
    handed = []
    granted = granted_order(executor, handed)
    outcomes = {}
    issue_order = sorted(range(len(arrivals)), key=lambda i: arrivals[i][0])
    for index in issue_order:
        at, runtime = arrivals[index]
        env.process(invoke(env, executor, function(image, runtime * TICK),
                           index, at * TICK, outcomes))
    for at, hops in drains:
        env.process(drainer(env, executor, at * TICK, hops))
    env.run()

    assert sorted(outcomes) == list(range(len(arrivals)))
    # Running invocations never exceed the cores: an invocation holds
    # its core from its grant until it ends.
    held = {index: (at, outcomes[index][1]) for index, at in granted}
    for instant in {at for at, _ in held.values()}:
        running = sum(1 for start, end in held.values() if start <= instant < end)
        assert running <= cores
    # FIFO: the invocations that got a core (picked it up, or were
    # handed it and drained before resuming) are a prefix of the order
    # they asked in, and their pickup instants never decrease along it.
    served = [index for index in issue_order if index in held or index in handed]
    assert served == issue_order[:len(served)]
    grant_instants = [held[index][0] for index in served if index in held]
    assert grant_instants == sorted(grant_instants)
    if not drains:
        assert all(status is InvocationStatus.OK for status, _ in outcomes.values())
    # Every core is back and nobody is stranded in the queue.
    assert executor._free == cores
    assert not executor._waiters
    assert len(executor._active) == 0


def test_a_core_handed_to_a_drained_waiter_is_passed_on():
    """A ends at 1.0 and hands its core to B; the drain lands before B
    resumes, so B must give the core back for C (also drained), and the
    executor ends with its one core free."""
    env, executor, image = bare_executor(cores=1)
    granted = granted_order(executor)
    outcomes = {}
    fdef = function(image, 1.0)
    for index in range(3):
        env.process(invoke(env, executor, fdef, index, 0.0, outcomes))
    env.process(drainer(env, executor, 1.0, hops=1))
    env.run()
    assert granted == [(0, 0.0)]
    assert outcomes == {0: (InvocationStatus.OK, 1.0), 1: ("terminated", 1.0),
                        2: ("terminated", 1.0)}
    assert executor._free == 1 and not executor._waiters


def unfreed(env, executor, fdef, drain_at=None):
    """Run 100 invocations contending for the executor's cores with the
    cyclic collector off; return the outcomes and every waiter event or
    invocation still alive."""
    outcomes = {}
    gc.collect()
    gc.disable()
    try:
        for index in range(100):
            env.process(invoke(env, executor, fdef, index, 0.0, outcomes))
        if drain_at is not None:
            env.process(drainer(env, executor, drain_at, hops=1))
        env.run()
        left = [obj for obj in gc.get_objects()
                if type(obj) in (Event, Invocation) and obj.env is env]
    finally:
        gc.enable()
    return [status for status, _ in outcomes.values()], left


def test_waiter_events_are_freed_without_the_cyclic_collector():
    """100 invocations contend for 2 cores; with the cyclic collector
    off, no waiter event or invocation outlives the run."""
    env, executor, image = bare_executor(cores=2)
    ended, left = unfreed(env, executor, function(image, 1.0))
    assert env.now == 50.0
    assert ended == [InvocationStatus.OK] * 100
    assert left == []


def test_drained_invocations_are_freed_without_the_cyclic_collector():
    """A drain one hop after the hand-over at 10.0 interrupts the two
    waiters just handed a core and the 78 still queued; none of them
    outlives the run."""
    env, executor, image = bare_executor(cores=2)
    ended, left = unfreed(env, executor, function(image, 1.0), drain_at=10.0)
    assert env.now == 10.0
    assert ended == [InvocationStatus.OK] * 20 + ["terminated"] * 80
    assert left == []


class Untouchable:
    """Stands in for the tracer and every metric of an untraced executor."""

    enabled = False

    def __getattr__(self, name):
        raise AssertionError(f"an untraced invocation used .{name}")


def test_an_untraced_invocation_makes_no_tracer_or_metric_call():
    env, executor, image = bare_executor(cores=1, max_invocation_s=2.0)
    for name in list(vars(executor)):
        if name == "_tracer" or name.startswith("_m_"):
            setattr(executor, name, Untouchable())
    outcomes = {}
    env.process(invoke(env, executor, function(image, 1.0), 0, 0.0, outcomes))
    env.process(invoke(env, executor, function(image, 1.0), 1, 0.0, outcomes))
    env.process(invoke(env, executor, function(image, 5.0), 2, 0.0, outcomes))
    env.process(invoke(env, executor, function(image, 1.0), 3, 2.5, outcomes))
    env.process(drainer(env, executor, 2.75, hops=0))
    env.process(invoke(env, executor, function(image, 1.0), 4, 3.0, outcomes))
    env.run()
    assert outcomes == {
        0: (InvocationStatus.OK, 1.0),
        1: (InvocationStatus.OK, 2.0),
        2: (InvocationStatus.REJECTED, 2.0),   # over the time limit
        3: ("terminated", 2.75),               # drained mid-run
        4: (InvocationStatus.REJECTED, 3.0),   # the executor is draining
    }
    assert (executor.completed, executor.rejected, executor.terminated) == (2, 2, 1)


def test_an_uncontended_invocation_schedules_only_live_work():
    """Event budget of two clients each invoking a 10 ms function 10
    times in a row on one 2-core node.  Per invocation 9 (180): the
    client's invoke process start and exit; the invocation's dispatch
    and execution timers and its own firing; and two transfers (request
    and response) of a serialization timer and a done event that lands
    itself each.  Per client 6 (12): the app process start and exit,
    the connection setup's start, exit and timeout, and the lease
    guard.  One cold start (1).  Every invocation takes a free core with
    no event: a grant event put back adds 20 here, an executor process
    put back 20 (its start hop) and a relay hop per transfer 40."""
    platform = Platform.build(PlatformConfig(nodes=2, jitter=0.0), seed=0)
    platform.register_node("n0001", cores=2, memory_bytes=8 << 30)
    demand = ResourceDemand(cores=1, membw=0.2e9, llc_bytes=1 << 20,
                            frac_membw=0.02)
    platform.functions.register("work", Image(name="fn", size_bytes=1 << 20),
                                runtime_s=0.01, demand=demand)
    completed = []

    def app(client):
        for _ in range(10):
            result = yield client.invoke("work", payload_bytes=64)
            completed.append(result.ok)

    for _ in range(2):
        platform.process(app(platform.client("n0000")))
    platform.run()
    assert completed == [True] * 20
    assert platform.env.event_count == 193


def test_the_chaos_workload_runs_nine_events_per_invocation(monkeypatch):
    """The benchmark's ``chaos`` instance at seed 0 (16 faults/min over
    60 s, four closed-loop streams): 105,804 events, 9.02 per
    invocation.  Each invocation is served by a timer chain (no executor
    process start) and each transfer's done event lands itself (no relay
    hop): a process per execution and a relay per transfer put back add
    35,206 here.  Its executors never queue, so a grant event per
    execution put back adds 11,739.  Each stream is a ``closed_loop``
    timer chain whose start timer takes the slot of a driver process's
    start: a generator driver per stream puts back its process exit, 4
    events (105,808)."""
    built = []
    build = Platform.build

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(chaos_sweep.Platform, "build", recording_build)
    plan = chaos_sweep.plan_scenarios(rates=(16.0,), window_s=60.0, streams=4, seed=0)
    scenario = plan.scenarios[0]
    point = scenario.fn(scenario.params, scenario.seed)
    assert point["invocations"] == 11_728
    assert built[0].env.event_count == 105_804
