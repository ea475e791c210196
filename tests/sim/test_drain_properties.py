"""The engine's one drain loop against a one-event-at-a-time reference.

``run(until=t)`` and ``run()`` share ``Environment._drain``; the
reference pops through the public ``step()`` (the three-way merge of
``_pop_next``).  Random programs mix zero-delay chains, shared events,
interrupts (the urgent lane) and background loops (every delayed wait
of one is a tick), and both runs must
resume every process in the same order at the same instants.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Interrupt

DELAYS = [0.0, 0.0, 0.5, 1.0, 2.5]

action = st.one_of(
    st.tuples(st.just("wait"), st.sampled_from(DELAYS)),
    st.tuples(st.just("signal"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("await"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=5)),
)
program = st.tuples(st.booleans(), st.lists(action, max_size=8))
programs = st.lists(program, min_size=1, max_size=6)
horizons = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 6.0]), max_size=4).map(sorted)


def build(programs):
    """Start every program; returns the environment and its resume log."""
    env = Environment()
    log = []
    signals = [env.event() for _ in range(3)]
    procs = []

    def body(index, background, actions):
        for step, (kind, arg) in enumerate(actions):
            try:
                if kind == "wait":
                    yield env.tick(arg) if background and arg else env.timeout(arg)
                elif kind == "signal":
                    if not signals[arg].triggered:
                        signals[arg].succeed(index)
                    yield env.timeout(0.0)
                elif kind == "await":
                    yield signals[arg]
                else:
                    target = procs[arg % len(procs)]
                    if target.is_alive and target is not env.active_process:
                        target.interrupt(index)
                    yield env.timeout(0.0)
                log.append((env.now, index, step))
            except Interrupt as interrupt:
                log.append((env.now, index, step, "interrupted", interrupt.cause))
        while background:
            try:
                yield env.tick(1.5)
                log.append((env.now, index, "tick"))
            except Interrupt as interrupt:
                log.append((env.now, index, "tick", "interrupted", interrupt.cause))

    for index, (background, actions) in enumerate(programs):
        procs.append(env.process(body(index, background, actions)))
    return env, log


def step_until(env, horizon):
    while env.peek() <= horizon:
        env.step()
    env._now = horizon


def step_until_idle(env):
    while env._immediate or env._urgent or len(env._queue) > env._ticks:
        env.step()


@settings(max_examples=300, deadline=None)
@given(programs=programs, horizons=horizons)
def test_drain_matches_step_reference(programs, horizons):
    env, log = build(programs)
    ref, ref_log = build(programs)
    for horizon in horizons:
        before = len(log)
        env.run(until=horizon)
        step_until(ref, horizon)
        assert log == ref_log
        assert env.now == ref.now == horizon
        # Exactly the events at time <= horizon were processed.
        assert all(entry[0] <= horizon for entry in log[before:])
        assert env.peek() > horizon
    env.run()
    step_until_idle(ref)
    assert log == ref_log
    assert env.now == ref.now
    assert env.event_count == ref.event_count
    # Open-ended: only ticks may be left.
    assert not env._immediate and not env._urgent
    assert len(env._queue) == env._ticks
