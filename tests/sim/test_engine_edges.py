"""Engine edge cases: conditions with failures, nested waits, restarts."""

import pytest

from repro.sim import AnyOf, Environment, Event, Interrupt, SimulationError, Timeout


def test_all_of_fails_if_component_fails():
    env = Environment()
    good = env.timeout(1)
    bad = env.event()
    caught = []

    def waiter():
        try:
            yield env.all_of([good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(0.5)
        bad.fail(RuntimeError("component died"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["component died"]


def test_any_of_with_already_processed_event():
    env = Environment()
    done = env.timeout(0)

    def waiter():
        yield env.timeout(1)   # `done` fires and is processed meanwhile
        result = yield env.any_of([done, env.timeout(100)])
        return (env.now, list(result.values()))

    p = env.process(waiter())
    env.run(until=p)
    assert p.value[0] == 1  # resolved immediately at wait time


def test_process_waits_on_already_finished_process():
    env = Environment()

    def quick():
        yield env.timeout(1)
        return "done"

    child = env.process(quick())

    def parent():
        yield env.timeout(5)    # child long finished
        result = yield child
        return (env.now, result)

    p = env.process(parent())
    env.run()
    assert p.value == (5, "done")


def test_chained_interrupt_and_resume():
    env = Environment()
    log = []

    def worker():
        for attempt in range(3):
            try:
                yield env.timeout(10)
                log.append(("finished", attempt, env.now))
                return
            except Interrupt:
                log.append(("interrupted", attempt, env.now))

    def interrupter(victim):
        for _ in range(2):
            yield env.timeout(3)
            victim.interrupt()

    victim = env.process(worker())
    env.process(interrupter(victim))
    env.run()
    assert log[0] == ("interrupted", 0, 3)
    assert log[1] == ("interrupted", 1, 6)
    assert log[2] == ("finished", 2, 16)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unwaited_failed_event_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_defused_failed_event_is_silent():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    ev.fail(RuntimeError("handled"))
    env.run()  # the waiting process defused it: no raise
    assert caught == ["handled"]


def test_run_twice_continues_from_stop_point():
    env = Environment()
    marks = []

    def proc():
        for _ in range(4):
            yield env.timeout(10)
            marks.append(env.now)

    env.process(proc())
    env.run(until=25)
    assert marks == [10, 20]
    env.run()
    assert marks == [10, 20, 30, 40]


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        value = yield Timeout(env, 2, "payload")
        return value

    p = env.process(proc())
    env.run()
    assert p.value == "payload"


def test_interrupt_detaches_from_allof_target():
    """Interrupting a process waiting on AllOf must remove its resume
    callback from the condition, so the later trigger cannot resume a
    generator that already moved on (or finished)."""
    from repro.sim import AllOf

    env = Environment()
    condition = {}
    caught = []

    def waiter():
        condition["event"] = AllOf(env, [env.timeout(10), env.timeout(20)])
        try:
            yield condition["event"]
        except Interrupt as interrupt:
            caught.append((env.now, interrupt.cause))

    p = env.process(waiter())

    def interrupter():
        yield env.timeout(5)
        p.interrupt("stop")
        # The waiter is no longer wired to the condition...
        assert p._resume not in condition["event"].callbacks
        # ...but the condition itself still completes on its own.

    env.process(interrupter())
    env.run()
    assert caught == [(5, "stop")]
    assert condition["event"].triggered
    assert env.now == 20


def test_interrupt_detaches_from_anyof_target():
    env = Environment()
    condition = {}
    resumptions = []

    def waiter():
        condition["event"] = AnyOf(env, [env.event(), env.timeout(30)])
        try:
            yield condition["event"]
            resumptions.append(("completed", env.now))
        except Interrupt:
            resumptions.append(("interrupted", env.now))
            # Keep living past the interrupt; if the AnyOf callback were
            # still attached, its trigger at t=30 would resume this yield
            # a second time with the condition's value.
        yield env.timeout(100)
        resumptions.append(("slept", env.now))

    p = env.process(waiter())

    def interrupter():
        yield env.timeout(1)
        p.interrupt()
        assert p._resume not in condition["event"].callbacks

    env.process(interrupter())
    env.run()
    assert resumptions == [("interrupted", 1), ("slept", 101)]


def test_interrupt_during_the_awaited_events_dispatch_wins():
    """The dispatch takes an event's callback list before running it, so
    an interrupt from an earlier callback cannot unhook a later waiter
    from the list: the stale wake-up must be ignored, not resume it."""
    env = Environment()
    signal = env.event()
    seen = []

    def victim():
        try:
            value = yield signal
            seen.append(("woke", value))
        except Interrupt as interrupt:
            seen.append(("interrupted", interrupt.cause))
        yield env.timeout(1)
        seen.append(("slept", env.now))

    def interrupter():
        yield signal  # the single waiter: runs before the victim's callback
        procs["victim"].interrupt("stop")

    procs = {}
    env.process(interrupter())
    procs["victim"] = env.process(victim())
    env.run(until=0)
    assert signal.callbacks == [procs["victim"]._resume]
    signal.succeed("go")
    env.run()
    assert seen == [("interrupted", "stop"), ("slept", 1)]


def test_second_interrupt_of_a_process_the_first_ended_is_dropped():
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout(5)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)

    proc = env.process(victim())

    def interrupter():
        yield env.timeout(1)
        proc.interrupt("first")
        proc.interrupt("second")  # still alive: the first is not delivered yet

    env.process(interrupter())
    env.run()
    assert caught == ["first"]
    assert proc.processed and proc.ok
