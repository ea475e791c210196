"""Property-based tests of the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Timeout
from repro.sim.engine import SimulationError


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def proc(d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
def test_equal_timestamps_fifo(delays):
    """Processes scheduled for the same instant run in creation order."""
    env = Environment()
    order = []

    def proc(tag, d):
        yield env.timeout(d)
        order.append(tag)

    # All equal delays: strict FIFO by construction order.
    for tag in range(len(delays)):
        env.process(proc(tag, 5.0))
    env.run()
    assert order == list(range(len(delays)))


@given(
    seed_delays=st.lists(
        st.tuples(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10)),
        min_size=1, max_size=20,
    )
)
def test_run_is_deterministic(seed_delays):
    """Two identical simulations produce identical traces."""

    def simulate():
        env = Environment()
        trace = []

        def proc(tag, d1, d2):
            yield env.timeout(d1)
            trace.append((tag, env.now))
            yield env.timeout(d2)
            trace.append((tag, env.now))

        for tag, (d1, d2) in enumerate(seed_delays):
            env.process(proc(tag, d1, d2))
        env.run()
        return trace

    assert simulate() == simulate()


# -- daemons: loops that wait on ticks -----------------------------------------

#: Ticks after which a test daemon gives up: far beyond any foreground
#: horizon drawn below, so an engine that lets ticks keep a run alive
#: fails loudly instead of spinning forever.
TICK_LIMIT = 10_000

#: A daemon's wait pattern, cycled; a delayed step is a tick, a
#: zero-delay step a live ``Timeout(0)``, so at least one step must be
#: delayed.
daemon_steps = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
                        min_size=1, max_size=3).filter(any)
worker_steps = st.lists(st.floats(min_value=0, max_value=10), max_size=6)
#: Processes in creation order: ("w", delays) or ("d", tick pattern).
mixes = st.lists(
    st.one_of(st.tuples(st.just("w"), worker_steps),
              st.tuples(st.just("d"), daemon_steps)),
    max_size=8,
)


def _worker(env, tag, delays, trace):
    for delay in delays:
        value = yield Timeout(env, delay, (tag, delay))
        trace.append((tag, env.now, value))
    return tag


def _daemon(env, steps, spawn=None):
    for tick in range(TICK_LIMIT):
        step = steps[tick % len(steps)]
        yield env.tick(step) if step else env.timeout(0.0)
        if spawn is not None:
            spawn(tick)
    raise AssertionError("a daemon kept the run alive")


def _start(env, mix, trace, with_daemons=True, spawn_children=False):
    """Create the mix's processes in order; returns (workers, daemons)."""
    workers, daemons = [], []
    for index, (kind, steps) in enumerate(mix):
        if kind == "w":
            workers.append(env.process(_worker(env, index, steps, trace)))
        elif with_daemons:
            spawn = None
            if spawn_children:
                # Foreground work started by a daemon (an autoscaler's
                # prewarm): it is live, and ends before the next tick.
                child = min(s for s in steps if s) / 2

                def spawn(tick, index=index, child=child):
                    env.process(_worker(env, (index, tick), [child], trace))
            daemons.append(env.process(_daemon(env, steps, spawn)))
    return workers, daemons


@settings(max_examples=60, deadline=None)
@given(mix=mixes, spawn_children=st.booleans())
def test_a_daemon_mix_always_terminates(mix, spawn_children):
    env = Environment()
    trace = []
    workers, daemons = _start(env, mix, trace, spawn_children=spawn_children)
    env.run()
    assert all(w.processed for w in workers)
    assert all(d.is_alive for d in daemons)
    assert len(trace) >= sum(len(steps) for kind, steps in mix if kind == "w")


@settings(max_examples=60, deadline=None)
@given(mix=mixes)
def test_daemons_leave_the_foreground_trace_unchanged(mix):
    def simulate(with_daemons):
        env = Environment()
        trace = []
        workers, _ = _start(env, mix, trace, with_daemons=with_daemons)
        env.run()
        return trace, [w.value for w in workers], env.now

    assert simulate(True) == simulate(False)


@settings(max_examples=60, deadline=None)
@given(
    period=st.sampled_from([1.0, 2.0, 3.0]),
    wake_tick=st.integers(min_value=1, max_value=5),
    lead=st.sampled_from([0.25, 0.5, 0.75]),
    slack=st.sampled_from([0.0, 0.0, 0.5, 4.0]),
    waiters=st.integers(min_value=1, max_value=3),
)
def test_a_daemon_that_fires_an_event_resumes_its_waiters(period, wake_tick,
                                                           lead, slack, waiters):
    """With ``slack == 0`` the last foreground entry is processed between
    the daemon's tick and the wake it schedules, so only that zero-delay
    wake is left to keep the run going."""
    env = Environment()
    gate = env.event()
    opened_at = wake_tick * period
    resumed = []

    def opener(tick):
        if tick + 1 == wake_tick:
            gate.succeed(env.now)

    def keeper():
        yield env.timeout(opened_at - lead * period)
        yield env.timeout(lead * period + slack)
        yield env.event()  # park without queueing a finish event

    def waiter(i):
        value = yield gate
        resumed.append((i, value, env.now))

    env.process(_daemon(env, [period], opener))
    env.process(keeper())
    for i in range(waiters):
        env.process(waiter(i))
    env.run()
    assert resumed == [(i, opened_at, opened_at) for i in range(waiters)]


@settings(max_examples=60, deadline=None)
@given(mix=mixes)
def test_awaiting_an_event_only_daemons_could_fire_raises(mix):
    env = Environment()
    trace = []
    workers, _ = _start(env, mix, trace)
    with pytest.raises(SimulationError):
        env.run(until=env.event())
    assert all(w.processed for w in workers)
