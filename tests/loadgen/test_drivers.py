"""The timer-chain drivers against the generator drivers they replaced.

``reference_open_loop`` and ``reference_closed_loop`` are the process
drivers the sweeps used to hand-roll: a generator that sleeps until
each arrival, or yields each call and records its value.  The chains
must reproduce their ``(now, order)`` trace exactly, interleaved with
other processes at the same instants, and schedule one event fewer per
driver: the process's exit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen import closed_loop, open_loop
from repro.sim import Environment, Timeout

TICK = 1 / 8


def reference_open_loop(env, times, submit):
    for index, at in enumerate(times):
        delay = at - env.now
        if delay > 0:
            yield env.timeout(delay)
        submit(index)


def reference_closed_loop(env, call, record, until, pause_s=0.0):
    while env.now < until:
        value = yield call()
        record(value)
        if pause_s > 0:
            yield env.timeout(pause_s)


def witness(env, log, name, instants):
    """Another actor logging at its own instants, to catch reordering."""
    for at in instants:
        yield env.timeout(at - env.now)
        log.append((env.now, name))


def run_open(chained, start, schedules, instants):
    """One open-loop stream per schedule, started at ``start``."""
    env = Environment()
    log = []
    env.process(witness(env, log, "w", instants))

    def begin():
        yield env.timeout(start)
        for stream, times in enumerate(schedules):
            submit = lambda i, stream=stream: log.append((env.now, stream, i))
            if chained:
                open_loop(env, times, submit)
            else:
                env.process(reference_open_loop(env, times, submit))

    env.process(begin())
    env.run()
    return log, env.event_count


def run_closed(chained, streams, services, until, pause_s, instants):
    """Closed-loop streams whose ``k``-th call takes ``services[k]``.
    Another waiter is on every call: a watcher process, registered after
    the driver, or a timer's own callback, registered before it."""
    env = Environment()
    log = []
    calls = iter(range(10_000))
    env.process(witness(env, log, "w", instants))

    def watch(event, k):
        value = yield event
        log.append((env.now, "watch", k, value))

    def call():
        k = next(calls)
        service = services[k % len(services)]
        if k % 2:
            return env.timer(service, lambda _: log.append((env.now, "timer", k)), k)
        event = Timeout(env, service, k)
        env.process(watch(event, k))
        return event

    for stream in range(streams):
        record = lambda value, stream=stream: log.append((env.now, stream, value))
        if chained:
            closed_loop(env, call, record, until, pause_s)
        else:
            env.process(reference_closed_loop(env, call, record, until, pause_s))
    env.run()
    return log, env.event_count


ticks = st.integers(min_value=0, max_value=16).map(lambda k: k * TICK)
schedule = st.lists(ticks, max_size=8).map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    start=ticks,
    schedules=st.one_of(
        st.lists(schedule, min_size=1, max_size=3),
        # Two streams tied at every instant.
        schedule.map(lambda times: [times, times]),
    ),
    instants=schedule,
)
def test_open_loop_replays_the_generator_driver(start, schedules, instants):
    # Times before ``start`` are already due when the driver begins.
    expected, reference_events = run_open(False, start, schedules, instants)
    got, events = run_open(True, start, schedules, instants)
    assert got == expected
    assert events == reference_events - len(schedules)


def test_an_empty_schedule_submits_nothing():
    log, events = run_open(True, 0.0, [[]], [])
    assert log == []
    assert events == run_open(False, 0.0, [[]], [])[1] - 1


@settings(max_examples=200, deadline=None)
@given(
    streams=st.integers(min_value=1, max_value=3),
    # Zero-length calls return at their own instant.
    services=st.lists(ticks, min_size=1, max_size=4).filter(any),
    # ``until`` on the grid or between two points, often mid-call.
    until=st.integers(min_value=0, max_value=40).map(lambda k: k * TICK / 2),
    pause_s=st.sampled_from([0.0, 0.0, TICK, 3 * TICK]),
    instants=schedule,
)
def test_closed_loop_replays_the_generator_driver(streams, services, until,
                                                  pause_s, instants):
    expected, reference_events = run_closed(False, streams, services, until,
                                            pause_s, instants)
    got, events = run_closed(True, streams, services, until, pause_s, instants)
    assert got == expected
    assert events == reference_events - streams


def test_a_failed_call_ends_its_stream_and_raises():
    env = Environment()
    recorded = []

    def call():
        event = env.event()
        event.fail(RuntimeError("boom"))
        return event

    closed_loop(env, call, recorded.append, until=1.0)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert recorded == []
