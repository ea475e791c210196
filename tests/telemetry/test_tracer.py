"""Tracer unit tests: nesting, interleaved processes, null overhead."""

import pytest

from repro.sim import Environment
from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    TelemetryCollector,
    Tracer,
    telemetry_of,
)
from repro.telemetry.tracer import NULL_TRACER


def test_nested_spans_link_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    # Children close (and are recorded) before parents.
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert outer.start == 0.0 and outer.end == 3.0
    assert inner.start == 1.0 and inner.end == 2.0


def test_sibling_spans_share_parent():
    tracer = Tracer(clock=lambda: 0.0)
    with tracer.span("parent") as parent:
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
    assert a.parent_id == parent.span_id
    assert b.parent_id == parent.span_id


def test_exception_marks_span_and_propagates():
    tracer = Tracer(clock=lambda: 0.0)
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    (span,) = tracer.spans
    assert span.attrs["error"] == "ValueError"
    assert span.end is not None


def test_interleaved_processes_keep_separate_stacks():
    """Two sim processes inside spans at once must not cross-link."""
    env = Environment()
    telemetry = Telemetry(env=env)
    tracer = telemetry.tracer

    def worker(name, delay):
        with tracer.span(f"{name}.outer"):
            yield env.timeout(delay)
            with tracer.span(f"{name}.inner"):
                yield env.timeout(delay)

    env.process(worker("a", 1.0))
    env.process(worker("b", 1.5))  # resumes interleave with a's spans
    env.run()

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a.inner"].parent_id == by_name["a.outer"].span_id
    assert by_name["b.inner"].parent_id == by_name["b.outer"].span_id
    assert by_name["b.inner"].parent_id != by_name["a.outer"].span_id


def test_instant_spans_are_zero_duration():
    tracer = Tracer(clock=lambda: 42.0)
    span = tracer.instant("evt", track="t", key="v")
    assert span.is_instant
    assert span.start == span.end == 42.0
    assert span.attrs == {"key": "v"}


def test_begin_finish_explicit_lifetime():
    ticks = iter([1.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    span = tracer.begin("job", track="jobs", job_id=7)
    assert tracer.spans == []  # not recorded until finished
    tracer.finish(span, state="completed")
    assert tracer.spans == [span]
    assert span.duration == 4.0
    assert span.attrs == {"job_id": 7, "state": "completed"}
    with pytest.raises(ValueError):
        tracer.finish(span)


def test_null_tracer_is_inert():
    with NULL_TRACER.span("anything") as span:
        span.set(ignored=True)
    assert NULL_TRACER.spans == ()
    assert NULL_TRACER.instant("x").is_instant
    NULL_TRACER.finish(NULL_TRACER.begin("y"))


def test_telemetry_of_defaults_to_null():
    env = Environment()
    assert telemetry_of(env) is NULL_TELEMETRY
    assert telemetry_of(None) is NULL_TELEMETRY


def test_a_collector_pins_a_scope_to_the_env():
    env = Environment()
    with TelemetryCollector() as collector:
        telemetry = telemetry_of(env)
    assert collector.scopes == [telemetry]
    # The environment keeps its scope once the collector is gone.
    assert telemetry_of(env) is telemetry
    other = Environment()
    assert telemetry_of(other) is NULL_TELEMETRY
