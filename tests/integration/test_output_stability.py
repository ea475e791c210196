"""Byte-identity of experiment outputs across fresh interpreters.

The fast-path engine rewrite (split event queues, single-waiter slots,
traced/fast executor split) must not perturb a single event: same seed
⇒ the exact same bytes out of the experiment pipelines, run in separate
interpreter processes so no in-process state can mask a drift.  A pinned
sha256 of a pure-engine event trace additionally locks the scheduler's
event *order* against the pre-rewrite engine.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

# Digest of the same trace produced by the pre-rewrite heap-only engine.
GOLDEN_TRACE_SHA256 = (
    "b68819477aeb555a9da0138922b93e009cc32d76e1c93f5134a72cacac4b6ed3"
)
GOLDEN_TRACE_EVENTS = 676

_FIG07_EXPORT = """
import sys
from repro.experiments import fig07_latency
result = fig07_latency.run(samples=25, seed=3)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(fig07_latency.format_report(result))
"""

_AUTOSCALE_EXPORT = """
import sys
from repro.sweep import run_sweep
result = run_sweep("autoscale", loads=(1.0, 4.0), window_s=12.0, seed=2)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(result.to_json())
"""


def _fresh_run(code, path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", code, str(path)],
        check=True, env=env, timeout=240,
    )
    return path.read_bytes()


def test_fig07_report_is_byte_identical_across_interpreters(tmp_path):
    first = _fresh_run(_FIG07_EXPORT, tmp_path / "a.txt")
    second = _fresh_run(_FIG07_EXPORT, tmp_path / "b.txt")
    assert len(first) > 0
    assert first == second


def test_autoscale_json_is_byte_identical_across_interpreters(tmp_path):
    first = _fresh_run(_AUTOSCALE_EXPORT, tmp_path / "a.json")
    second = _fresh_run(_AUTOSCALE_EXPORT, tmp_path / "b.json")
    assert len(first) > 0
    assert first == second


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
