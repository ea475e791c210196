"""Edge cases the fast-path engine rewrite must not break.

The engine splits the event queue into an immediate deque plus heaps and
keeps a single-waiter slot per event; these tests pin the behaviors most
at risk from that rewrite: interrupts landing between same-timestamp
events, ``run(until=event)`` on a triggered-but-unprocessed event,
``Timeout(0)`` vs ``succeed()`` FIFO ordering, condition waiters
under the single-waiter slot, interrupts sent before a process's first
step, and daemon processes.
"""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Interrupt
from repro.sim.engine import SimulationError


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
        t1 = env.timeout(0.0, value="t1")
        e1 = env.event()
        e1.succeed("e1")
        t2 = env.timeout(0.0, value="t2")
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
    cond = AllOf(env, [shared, env.timeout(1.0, value="t")])

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
    first = env.timeout(1.0, value="fast")
    second = env.timeout(5.0, value="slow")
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
        results = yield AllOf(env, [done, env.timeout(1.0, value="t")])
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


# -- daemon processes --------------------------------------------------------

def _ticker(env, period, ticks):
    while True:
        yield env.timeout(period)
        ticks.append(env.now)


def test_run_returns_once_only_daemon_entries_remain():
    env = Environment()
    ticks = []
    daemon = env.process(_ticker(env, 1.0, ticks), daemon=True)

    def work():
        yield env.timeout(3.5)

    env.process(work())
    env.run()
    assert env.now == 3.5
    assert ticks == [1.0, 2.0, 3.0]
    assert daemon.is_alive
    assert env.peek() == 4.0  # the next tick stays queued, unprocessed
    # Two Initialize events, the work's timeout and finish, four ticks.
    assert env.event_count == 8


def test_run_until_time_keeps_ticking_daemons_to_the_horizon():
    env = Environment()
    ticks = []
    env.process(_ticker(env, 1.0, ticks), daemon=True)
    env.run(until=4.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0]
    assert env.now == 4.5


def test_zero_delay_timeout_from_a_daemon_is_live():
    env = Environment()
    log = []

    def daemon():
        yield env.timeout(0.0)
        log.append(("zero", env.now))
        while True:
            yield env.timeout(1.0)

    env.process(daemon(), daemon=True)
    env.run()
    assert log == [("zero", 0.0)]
    assert env.now == 0.0
