"""The executor's timer chain against the process it replaced.

``ReferenceExecutor`` keeps the invocation as a process running one
generator, as it was before the chain: the process starts one
zero-delay hop after ``execute``, queues for a core on a grant event,
waits out each step on a timeout and is interrupted by a drain or a
client deadline.  Both executors share the core slots, the drain and
the dispatch delay; the reference drops the telemetry, which never
changes a timeline.

The two agree on every schedule in which no invocation arrives at the
same instant as another executor event (a step of another invocation,
a core hand-over or a drain).  Such a race has no physical order: the
process did its first step one hop after the arrival, the chain does
it at the arrival (``test_an_arrival_racing_a_drain_is_terminated``).
"""

from dataclasses import replace

from hypothesis import assume, given, settings, strategies as st

from repro.cluster import Cluster, DAINT_MC
from repro.containers import Image, WarmPool
from repro.containers.runtime import SARUS
from repro.interference import ResourceDemand
from repro.rfaas import (
    Executor,
    FunctionDef,
    InvocationRequest,
    InvocationResult,
    InvocationStatus,
    TerminationError,
    Timings,
)
from repro.rfaas.client import race_deadline
from repro.sim import Environment, Interrupt

TICK = 1 / 16
IMAGES = (Image(name="warm", size_bytes=1 << 20), Image(name="cold", size_bytes=60 << 20))


class CountingLoads:
    """Each registered invocation slows the node down: the slowdown seen
    at registration is ``1 + (tenants - 1) / 2``."""

    def __init__(self):
        self.tenants = set()

    def add(self, node_name, key, demand):
        self.tenants.add(key)

    def remove(self, node_name, key):
        self.tenants.remove(key)

    def slowdown_of(self, node_name, key):
        return 1.0 + (len(self.tenants) - 1) / 2


class ObservedExecutor(Executor):
    """The chain, recording ``(invocation id, instant)`` at each pickup."""

    def _dispatch(self, invocation):
        self.pickups.append((invocation.request.invocation_id, self.env.now))
        super()._dispatch(invocation)


class ReferenceExecutor(Executor):
    """An invocation is a process running :meth:`_execute`, which also
    records ``(instant, invocation id)`` of every step it takes."""

    def execute(self, fdef, request):
        return self.env.process(self._execute(fdef, request))

    def _wait_for_core(self):
        grant = self.env.event()
        self._waiters.append(grant)
        try:
            yield grant
        except Interrupt:
            if grant.triggered:
                # Handed a core, then interrupted before resuming: pass it on.
                self._release_core()
            else:
                self._waiters.remove(grant)
            raise

    def _execute(self, fdef, request):
        env = self.env
        step = lambda: self.instants.append((env.now, request.invocation_id))
        step()
        if self.draining:
            self.rejected += 1
            return InvocationResult(request=request, status=InvocationStatus.REJECTED,
                                    node_name=self.node.name)
        me = env.active_process
        self._active[me] = None
        timings = Timings()
        load_key = f"inv-{request.invocation_id}"
        holding = registered = False
        try:
            if self._free:
                self._free -= 1
            else:
                yield from self._wait_for_core()
            holding = True
            self.pickups.append((request.invocation_id, env.now))
            timings.dispatch = self._dispatch_delay()
            yield env.timeout(timings.dispatch)
            step()
            container = self._attached.get(fdef.image.name)
            if container is not None:
                kind = "attached"
            else:
                acquired = self.warm_pool.acquire(fdef.image)
                container = acquired.container
                self._attached[fdef.image.name] = container
                kind = acquired.kind
                timings.startup = acquired.startup_cost_s
                if timings.startup > 0:
                    yield env.timeout(timings.startup)
                    step()
            self.loads.add(self.node.name, load_key, fdef.demand)
            registered = True
            slowdown = self.loads.slowdown_of(self.node.name, load_key)
            timings.execution = fdef.runtime_s * slowdown
            if timings.execution > self.max_invocation_s:
                self.rejected += 1
                return InvocationResult(request=request, status=InvocationStatus.REJECTED,
                                        node_name=self.node.name)
            if timings.execution > 0:
                yield env.timeout(timings.execution)
                step()
            self.completed += 1
            return InvocationResult(request=request, status=InvocationStatus.OK,
                                    output_bytes=fdef.output_bytes, timings=timings,
                                    node_name=self.node.name, startup_kind=kind)
        except Interrupt as intr:
            step()
            self.terminated += 1
            raise TerminationError(f"invocation {request.invocation_id}: {intr.cause}",
                                   cause=intr.cause) from None
        finally:
            if holding:
                self._release_core()
            if registered:
                self.loads.remove(self.node.name, load_key)
            if self.draining:
                for attached in self._attached.values():
                    self.warm_pool.discard(attached)
                self._attached.clear()
            self._active.pop(me, None)


def simulate(executor_cls, cores, arrivals, drains):
    """Serve every arrival ``(at, runtime, image, deadline)``
    (``deadline`` None or a time budget, raced by the client library's
    :func:`race_deadline`) and each drain ``(at, hops)``.  Returns the executor and the
    log of endings in the order clients saw them."""
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", 1, DAINT_MC)
    node = cluster.node("n0000")
    pool = WarmPool(env, node, replace(SARUS, warm_attach_s=0.0))
    executor = executor_cls(env, node, pool, CountingLoads(), cores=cores,
                            max_invocation_s=2.0)
    executor.dispatch_multiplier = 0.0
    executor.pickups = []
    executor.instants = []  # the steps, and the drains as "drain"
    executor.prewarm(IMAGES[0])
    log = []

    def invoke(index, at, runtime, image, deadline):
        yield env.timeout(at)
        fdef = FunctionDef(name=f"f{index}", image=IMAGES[image],
                           demand=ResourceDemand(cores=1), runtime_s=runtime)
        request = InvocationRequest(function=fdef.name, payload_bytes=0,
                                    invocation_id=index)
        try:
            invocation = executor.execute(fdef, request)
            if deadline is None:
                result = yield invocation
            else:
                result = yield from race_deadline(env, invocation, env.now + deadline)
            log.append((index, result.status, env.now, result.timings.execution))
        except TerminationError as term:
            log.append((index, "terminated", env.now, term.cause))

    def drainer(at, hops):
        yield env.timeout(at)
        for _ in range(hops):
            yield env.timeout(0)
        executor.instants.append((env.now, "drain"))
        executor.drain(immediate=True)

    for index in sorted(range(len(arrivals)), key=lambda i: arrivals[i][0]):
        env.process(invoke(index, *arrivals[index]))
    for at, hops in drains:
        env.process(drainer(at, hops))
    env.run()
    return executor, log


ticks = st.integers(min_value=0, max_value=64).map(lambda k: k * TICK)
arrival = st.tuples(
    ticks,
    st.integers(min_value=0, max_value=24).map(lambda k: k * TICK),
    st.integers(min_value=0, max_value=1),
    st.one_of(st.none(), st.integers(min_value=1, max_value=32).map(lambda k: k * TICK)),
)


def races(executor, arrivals):
    """Does an arrival share its instant with another actor's step?"""
    by_instant = {}
    for instant, actor in executor.instants:
        by_instant.setdefault(instant, set()).add(actor)
    for index, spec in enumerate(arrivals):
        at = spec[0]
        others = by_instant.get(at, set()) - {index}
        if any(other == "drain" or arrivals[other][0] != at for other in others):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    cores=st.integers(min_value=1, max_value=3),
    arrivals=st.lists(arrival, min_size=1, max_size=10),
    drains=st.lists(st.tuples(ticks, st.integers(min_value=0, max_value=2)), max_size=2),
)
def test_the_chain_matches_the_process_reference(cores, arrivals, drains):
    # A deadline expiring at a drain's instant is drawn too: the race
    # times the invocation out whichever executor serves it.
    reference, expected = simulate(ReferenceExecutor, cores, arrivals, drains)
    assume(not races(reference, arrivals))
    chain, got = simulate(ObservedExecutor, cores, arrivals, drains)
    assert got == expected
    assert chain.pickups == reference.pickups
    assert (chain.completed, chain.rejected, chain.terminated) == (
        reference.completed, reference.rejected, reference.terminated)
    for executor in (chain, reference):
        assert executor._free == cores and not executor._waiters
        assert len(executor._active) == 0


def test_an_arrival_racing_a_drain_is_terminated():
    """An invocation arrives at 1.0, the instant a drain lands.  The
    process started one hop after the arrival, behind the drain, so it
    found the executor draining and rejected the invocation; the chain
    is in flight from the arrival on, so the drain terminates it."""
    arrivals = [(1.0, 0.5, 0, None)]
    drains = [(1.0, 0)]
    _, reference = simulate(ReferenceExecutor, 1, arrivals, drains)
    _, chain = simulate(ObservedExecutor, 1, arrivals, drains)
    assert reference == [(0, InvocationStatus.REJECTED, 1.0, 0.0)]
    assert chain == [(0, "terminated", 1.0, "reclaim")]
