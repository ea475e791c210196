"""Pinned engine event order.

The fast-path engine rewrite (split event queues, single-waiter slots,
traced/fast executor split) must not perturb a single event: a pinned
sha256 of a pure-engine event trace locks the scheduler's event
*order* against the pre-rewrite engine.  Every sweep's JSON, report
and span stream, the paper's figures included, are pinned in
``test_sweep_goldens.py``.
"""

import hashlib

# Digest of the same trace produced by the pre-rewrite heap-only engine.
GOLDEN_TRACE_SHA256 = (
    "b68819477aeb555a9da0138922b93e009cc32d76e1c93f5134a72cacac4b6ed3"
)
GOLDEN_TRACE_EVENTS = 676


def test_engine_trace_matches_pre_rewrite_golden_digest():
    """A mixed workload (zero-delay churn, trigger/wait chains, AllOf,
    interrupts) must replay the exact event order of the pre-rewrite
    engine — the digest below was captured from the heap-only engine."""
    from repro.sim import Environment, Interrupt

    env = Environment()
    trace = []

    def sleeper(tag, delay):
        try:
            yield env.timeout(delay)
            trace.append(("slept", tag, env.now))
        except Interrupt as intr:
            trace.append(("interrupted", tag, intr.cause, env.now))

    def worker(tag):
        for i in range(50):
            yield env.timeout(0.0 if i % 3 == 0 else 0.25 * ((tag + i) % 5))
            trace.append(("tick", tag, env.now))
        return tag

    def waiter():
        evs = [env.event() for _ in range(10)]

        def trigger():
            for i, ev in enumerate(evs):
                yield env.timeout(0.5)
                ev.succeed(i)

        env.process(trigger())
        for ev in evs:
            value = yield ev
            trace.append(("event", value, env.now))
        children = [env.process(worker(100 + i)) for i in range(4)]
        results = yield env.all_of(children)
        trace.append(("all", sorted(results.values()), env.now))

    victims = [env.process(sleeper(i, 1000.0)) for i in range(5)]

    def interrupter():
        for v in victims:
            yield env.timeout(0.75)
            v.interrupt(cause="reclaim")

    for t in range(8):
        env.process(worker(t))
    env.process(waiter())
    env.process(interrupter())
    env.run()

    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256
    assert env.event_count == GOLDEN_TRACE_EVENTS
