"""Edge cases the fast-path engine rewrite must not break.

The engine splits the event queue into an immediate deque plus heaps and
keeps a single-waiter slot per event; these tests pin the behaviors most
at risk from that rewrite: interrupts landing between same-timestamp
events, ``run(until=event)`` on a triggered-but-unprocessed event,
``Timeout(0)`` vs ``succeed()`` FIFO ordering, condition waiters
under the single-waiter slot, interrupts sent before a process's first
step, background ticks, engine timers, and that a finished process is
freed by refcounting alone.
"""

import gc

import pytest

from repro.sim import AllOf, AnyOf, Environment, Interrupt, Timeout
from repro.sim.engine import Process, SimulationError


# -- interrupt between two same-timestamp events ---------------------------

def test_interrupt_fires_before_pending_same_time_events():
    """An interrupt (priority 0) overtakes priority-1 events already
    queued for the same timestamp, regardless of scheduling order."""
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, env.now))

    def bystander(tag):
        yield env.timeout(5.0)
        log.append((tag, env.now))

    v = env.process(victim())

    def interrupter():
        yield env.timeout(5.0)
        v.interrupt(cause="preempt")
        log.append(("sent", env.now))

    env.process(interrupter())
    # Scheduled after the interrupter, so at t=5.0 the bystander timeout
    # is already enqueued with a seq *below* the interrupt event's.
    env.process(bystander("a"))
    env.run()
    assert ("interrupted", "preempt", 5.0) in log
    # The interrupt (priority 0) overtook bystander "a"'s same-timestamp
    # priority-1 timeout despite being scheduled later (higher seq).
    assert log.index(("interrupted", "preempt", 5.0)) < log.index(("a", 5.0))


def test_interrupt_detaches_single_waiter_slot():
    """The interrupted process's resume must be detached from the event
    it waited on (held in the _waiter slot), so the event firing later
    does not resume a finished process."""
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10.0)
            log.append("slept")
        except Interrupt:
            log.append(("interrupted", env.now))
        # Finishes immediately after handling the interrupt.

    v = env.process(victim())

    def interrupter():
        yield env.timeout(2.0)
        v.interrupt()

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", 2.0)]
    assert env.now == 10.0  # the detached timeout still fired, inertly


def test_interrupt_detaches_from_callback_list_with_other_waiters():
    """Detach also works when the victim's resume overflowed into the
    callbacks list because another process registered first."""
    env = Environment()
    log = []
    gate = env.event()

    def first():
        value = yield gate
        log.append(("first", value))

    def second():
        try:
            yield gate
            log.append("second-unexpected")
        except Interrupt:
            log.append("second-interrupted")

    env.process(first())
    p2 = env.process(second())

    def driver():
        yield env.timeout(1.0)
        p2.interrupt()
        yield env.timeout(1.0)
        gate.succeed("go")

    env.process(driver())
    env.run()
    assert log == ["second-interrupted", ("first", "go")]


# -- run(until=event) on a triggered-but-unprocessed event ------------------

def test_run_until_event_triggered_but_not_processed():
    """run(until=ev) where ev was triggered pre-run must process it
    (and everything due before it), then stop."""
    env = Environment()
    ev = env.event()
    ev.succeed("payload")  # triggered, sitting in the immediate queue
    assert ev.triggered and not ev.processed
    assert env.run(until=ev) == "payload"
    assert ev.processed


def test_run_until_event_stops_at_processing_not_at_trigger():
    env = Environment()
    log = []
    ev = env.event()

    def trigger():
        yield env.timeout(1.0)
        ev.succeed(42)
        log.append("triggered")

    def later():
        yield env.timeout(5.0)
        log.append("later")

    env.process(trigger())
    env.process(later())
    assert env.run(until=ev) == 42
    # The event fired at t=1.0; the t=5.0 process must not have run.
    assert log == ["triggered"]
    assert env.now == 1.0
    env.run()
    assert log == ["triggered", "later"]


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()

    def ticker():
        yield env.timeout(1.0)

    env.process(ticker())
    with pytest.raises(SimulationError):
        env.run(until=ev)


# -- Timeout(0) vs succeed() FIFO at one timestamp --------------------------

def test_timeout_zero_and_succeed_fifo_order():
    """Zero-delay timeouts and succeed()-triggered events at the same
    timestamp fire strictly in scheduling order."""
    env = Environment()
    log = []

    def driver():
        t1 = Timeout(env, 0.0, "t1")
        e1 = env.event()
        e1.succeed("e1")
        t2 = Timeout(env, 0.0, "t2")
        e2 = env.event()
        e2.succeed("e2")
        results = yield env.all_of([t1, e1, t2, e2])
        log.append(list(results.values()))

    def observer(tag):
        yield env.timeout(0.0)
        log.append(tag)

    env.process(observer("before"))
    env.process(driver())
    env.process(observer("after"))
    env.run()
    # Observers bracket the driver's components in strict seq order; the
    # AllOf condition event itself is scheduled after the last component
    # fires, so the driver resumes last.  Component order is preserved.
    assert log == ["before", "after", ["t1", "e1", "t2", "e2"]]


def test_timeout_zero_fires_after_earlier_succeed_and_before_later_one():
    env = Environment()
    order = []

    def waiter(ev, tag):
        yield ev
        order.append(tag)

    early = env.event()
    early.succeed()
    env.process(waiter(early, "early-succeed"))
    t0 = env.timeout(0.0)
    env.process(waiter(t0, "timeout-zero"))
    late = env.event()
    late.succeed()
    env.process(waiter(late, "late-succeed"))
    env.run()
    assert order == ["early-succeed", "timeout-zero", "late-succeed"]


# -- AllOf / AnyOf under the single-waiter fast path ------------------------

def test_allof_shares_events_with_a_process_waiter():
    """A condition's _check and a process's resume can wait on the same
    event: the first registrant takes the _waiter slot, the second goes
    to the callbacks list, and both fire in registration order."""
    env = Environment()
    log = []
    shared = env.event()
    cond = AllOf(env, [shared, Timeout(env, 1.0, "t")])

    def direct_waiter():
        value = yield shared
        log.append(("direct", value, env.now))

    def cond_waiter():
        results = yield cond
        log.append(("cond", list(results.values()), env.now))

    env.process(direct_waiter())
    env.process(cond_waiter())

    def trigger():
        yield env.timeout(2.0)
        shared.succeed("s")

    env.process(trigger())
    env.run()
    assert ("direct", "s", 2.0) in log
    assert ("cond", ["s", "t"], 2.0) in log


def test_anyof_fires_on_first_and_excludes_untriggered_events():
    env = Environment()
    first = env.event()
    second = env.event()
    cond = AnyOf(env, [first, second])
    log = []

    def waiter():
        results = yield cond
        log.append((env.now, list(results.values())))

    env.process(waiter())

    def driver():
        yield env.timeout(1.0)
        first.succeed("fast")
        yield env.timeout(4.0)
        second.succeed("slow")

    env.process(driver())
    env.run()
    # Only the component triggered by finish time appears in the result.
    assert log == [(1.0, ["fast"])]
    assert env.now == 5.0


def test_anyof_result_includes_all_components_triggered_at_finish():
    env = Environment()
    # Timeouts are triggered at creation, so both appear in the result
    # dict even though only the first has been *processed* at t=1.0.
    first = Timeout(env, 1.0, "fast")
    second = Timeout(env, 5.0, "slow")
    cond = AnyOf(env, [first, second])
    log = []

    def waiter():
        results = yield cond
        log.append((env.now, list(results.values())))

    env.process(waiter())
    env.run()
    assert log == [(1.0, ["fast", "slow"])]


def test_allof_with_already_processed_component():
    env = Environment()
    done = env.event()
    done.succeed("pre")
    env.run()  # process it fully
    assert done.processed
    log = []

    def waiter():
        results = yield AllOf(env, [done, Timeout(env, 1.0, "t")])
        log.append(list(results.values()))

    env.process(waiter())
    env.run()
    assert log == [["pre", "t"]]


def test_allof_failure_propagates_from_waiter_slot():
    env = Environment()
    boom = env.event()
    cond = AllOf(env, [boom, env.timeout(1.0)])
    caught = []

    def waiter():
        try:
            yield cond
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())

    def failer():
        yield env.timeout(0.5)
        boom.fail(RuntimeError("kaput"))

    env.process(failer())
    env.run()
    assert caught == ["kaput"]


# -- misc invariants of the split-queue scheduler ---------------------------

def test_event_count_matches_processed_events_after_drain():
    env = Environment()

    def p():
        for _ in range(10):
            yield env.timeout(0.0)
            yield env.timeout(1.0)

    env.process(p())
    env.process(p())
    env.run()
    # Initialize + per-yield timeouts + the two process-finish events.
    assert env.event_count == 2 * (1 + 20) + 2


def test_peek_merges_immediate_and_delayed_queues():
    env = Environment()
    env.timeout(5.0)
    assert env.peek() == 5.0
    env.timeout(0.0)
    assert env.peek() == 0.0


def test_run_until_time_between_queued_events():
    env = Environment()
    log = []

    def p():
        yield env.timeout(1.0)
        log.append(env.now)
        yield env.timeout(2.0)
        log.append(env.now)

    env.process(p())
    env.run(until=2.0)
    assert log == [1.0]
    assert env.now == 2.0
    env.run()
    assert log == [1.0, 3.0]


# -- interrupts before a process's first step --------------------------------

def test_interrupt_before_the_first_step_lands_at_the_first_yield():
    """The interrupt waits for the queued Initialize, so the generator's
    ``try`` is active when it arrives (the SimPy semantics)."""
    env = Environment()
    log = []

    def loop():
        try:
            while True:
                yield env.timeout(1.0)
                log.append("tick")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, env.now))
        return "stopped"

    p = env.process(loop())
    p.interrupt("stop")
    env.run()
    assert log == [("interrupted", "stop", 0.0)]
    assert p.processed and p.value == "stopped"


def test_interrupt_of_a_process_that_ends_in_its_first_step_is_dropped():
    env = Environment()

    def quick():
        return "done"
        yield  # pragma: no cover - makes this a generator

    p = env.process(quick())
    p.interrupt("late")
    env.run()
    assert p.value == "done"


# -- background ticks --------------------------------------------------------

def _ticker(env, period, ticks):
    while True:
        yield env.tick(period)
        ticks.append(env.now)


def test_run_returns_once_only_ticks_remain():
    env = Environment()
    ticks = []
    loop = env.process(_ticker(env, 1.0, ticks))

    def work():
        yield env.timeout(3.5)

    env.process(work())
    env.run()
    assert env.now == 3.5
    assert ticks == [1.0, 2.0, 3.0]
    assert loop.is_alive
    assert env.peek() == 4.0  # the next tick stays queued, unprocessed
    # Two Initialize events, the work's timeout and finish, four ticks.
    assert env.event_count == 8


def test_run_until_time_keeps_ticking_daemons_to_the_horizon():
    env = Environment()
    ticks = []
    env.process(_ticker(env, 1.0, ticks))
    env.run(until=4.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0]
    assert env.now == 4.5


def test_run_until_infinity_drains_like_run():
    env = Environment()
    ticks = []

    def bounded_ticker():
        # Fails the test instead of hanging it if ticks keep an
        # infinite horizon alive.
        for _ in range(10_000):
            yield env.tick(1.0)
            ticks.append(env.now)
        raise AssertionError("run(until=inf) kept a loop ticking")

    def work():
        yield env.timeout(3.5)

    env.process(bounded_ticker())
    env.process(work())
    env.run(until=float("inf"))
    assert env.now == 3.5
    assert ticks == [1.0, 2.0, 3.0]


def test_zero_delay_timeout_from_a_ticking_loop_is_live():
    env = Environment()
    log = []

    def loop():
        yield env.timeout(0.0)
        log.append(("zero", env.now))
        while True:
            yield env.tick(1.0)

    env.process(loop())
    env.run()
    assert log == [("zero", 0.0)]
    assert env.now == 0.0


def test_a_delayed_timeout_from_a_ticking_loop_is_live():
    """Background is a property of the wait: the same loop's Timeout
    keeps run() alive, its ticks do not."""
    env = Environment()
    log = []

    def loop():
        yield env.tick(1.0)
        yield env.timeout(2.5)
        log.append(env.now)
        while True:
            yield env.tick(1.0)

    def work():  # keeps the run alive up to the loop's first tick
        yield env.timeout(1.0)

    env.process(loop())
    env.process(work())
    env.run()
    assert log == [3.5]
    assert env.now == 3.5


def test_tick_needs_a_positive_delay():
    """A zero-delay tick would sit in the immediate deque, which the
    drain loop always serves, so it could never be background."""
    env = Environment()
    for delay in (0, -1):
        with pytest.raises(ValueError):
            env.tick(delay)
    assert env._ticks == 0 and env.event_count == 0


# -- engine timers ------------------------------------------------------------

def test_timer_callback_runs_before_a_yielding_process_resumes():
    env = Environment()
    log = []
    timer = env.timer(2.0, lambda _: log.append(("callback", env.now)))

    def waiter():
        yield timer
        log.append(("resumed", env.now))

    env.process(waiter())
    env.run()
    assert log == [("callback", 2.0), ("resumed", 2.0)]


def test_timer_value_reaches_the_yielder():
    env = Environment()
    got = []

    def waiter():
        got.append((yield env.timer(1.5, lambda _: None, 42)))
        got.append((yield env.timer(0.5, lambda _: None)))

    env.process(waiter())
    env.run()
    assert got == [42, None]
    assert env.now == 2.0


def test_a_timer_created_in_a_ticking_loop_keeps_run_alive_until_it_fires():
    """Only a tick is a background entry; a timer the loop schedules is
    live, so run() waits for it."""
    env = Environment()
    fired = []

    def loop():
        env.timer(5.0, lambda _: fired.append(env.now))
        while True:
            yield env.tick(1.0)

    env.process(loop())
    env.run()
    assert fired == [5.0]
    assert env.now == 5.0


def test_a_zero_delay_timer_takes_the_immediate_lane():
    env = Environment()
    log = []
    env.event().succeed("before")
    timer = env.timer(0.0, lambda _: log.append("timer"))
    assert not env._queue
    assert [event for _, _, event in env._immediate][-1] is timer
    env.run()
    assert log == ["timer"]
    with pytest.raises(ValueError):
        env.timer(-1.0, lambda _: None)


def test_an_event_scheduled_with_succeed_in_is_its_own_timer():
    env = Environment()
    done = env.event()
    got = []

    def waiter():
        got.append(((yield done), env.now))

    env.process(waiter())
    env.timer(1.0, lambda _: done.succeed_in(0.5, "landed"))
    env.run()
    assert got == [("landed", 1.5)]
    assert env.event_count == 4  # process start and exit, the timer, done
    with pytest.raises(SimulationError):
        done.succeed_in(1.0)
    with pytest.raises(ValueError):
        env.event().succeed_in(-1.0)


def test_urgent_entries_run_first_at_their_instant_in_creation_order():
    """An urgent entry overtakes every ordinary entry at the current
    instant, as an interrupt does; a callback event runs its callback
    when a release succeeds it."""
    env = Environment()
    log = []
    grant = env.event(lambda _: log.append("grant"))

    def at_one(_):
        grant.succeed()
        env.urgent(lambda event: log.append(event.value), "first")
        env.urgent(lambda event: log.append(event.value), "second")

    env.timer(1.0, at_one)
    env.timer(1.0, lambda _: log.append("timer"))
    env.run()
    assert log == ["first", "second", "timer", "grant"]
    assert env.now == 1.0


# -- no cyclic garbage -------------------------------------------------------

def test_finished_processes_are_freed_without_the_cyclic_collector():
    """A finished process drops its bound resume method, the one
    reference cycle every process has while it runs: with the cyclic
    collector off, no finished process outlives the run unless the
    caller still holds it, and a held one keeps its outcome."""
    env = Environment()

    def work(value):
        yield env.timeout(1.0)
        return value

    gc.collect()
    gc.disable()
    try:
        held = env.process(work("kept"))
        for i in range(1000):
            env.process(work(i))
        env.run()
        finished = [obj for obj in gc.get_objects()
                    if type(obj) is Process and obj.env is env
                    and not obj.is_alive]
    finally:
        gc.enable()
    assert finished == [held]
    assert held.ok
    assert held.value == "kept"
