"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        assert env.now == 5
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 7.5
    assert env.now == 7.5


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_between_events():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(10)
        fired.append(env.now)

    env.process(proc())
    env.run(until=4)
    assert env.now == 4
    assert fired == []
    env.run(until=20)
    assert fired == [10]


def test_run_until_past_raises():
    env = Environment()
    env.process(iter_timeout(env, 5))
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def iter_timeout(env, t):
    yield env.timeout(t)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"
    assert env.now == 3


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def make(tag):
        def proc():
            yield env.timeout(1)
            order.append(tag)

        return proc

    for tag in range(10):
        env.process(make(tag)())
    env.run()
    assert order == list(range(10))


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append((env.now, value))

    def trigger():
        yield env.timeout(2)
        ev.succeed(42)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(2, 42)]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_in_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("bad process")

    env.process(bad())
    with pytest.raises(ValueError, match="bad process"):
        env.run()


def test_process_waits_on_other_process():
    env = Environment()

    def child():
        yield env.timeout(4)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    p = env.process(parent())
    env.run()
    assert p.value == (4, "child-result")


def test_interrupt_wakes_process_early():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(victim):
        yield env.timeout(3)
        victim.interrupt(cause="reclaim")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [(3, "reclaim")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_all_of_collects_values():
    env = Environment()

    def proc():
        t1 = Timeout(env, 1, "a")
        t2 = Timeout(env, 2, "b")
        results = yield env.all_of([t1, t2])
        return sorted(results.values())

    p = env.process(proc())
    env.run()
    assert p.value == ["a", "b"]
    assert env.now == 2


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = Timeout(env, 1, "fast")
        t2 = Timeout(env, 10, "slow")
        results = yield env.any_of([t1, t2])
        return (env.now, list(results.values()))

    p = env.process(proc())
    env.run()
    assert p.value[0] == 1
    assert "fast" in p.value[1]


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0


def test_peek_and_step():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.step()
    assert env.now == 7
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_condition_different_env_rejected():
    env1, env2 = Environment(), Environment()
    t1 = env1.timeout(1)
    t2 = env2.timeout(1)
    with pytest.raises(SimulationError):
        AllOf(env1, [t1, t2])


def test_run_until_event_never_fires_raises():
    env = Environment()
    ev = env.event()  # nothing ever triggers it
    env.timeout(1)
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive
    assert p.ok
