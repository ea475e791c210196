"""Causal-tree analysis: trace grouping, roots, and the critical path."""

import itertools

import pytest

from repro.telemetry import (
    Span,
    critical_path,
    critical_path_table,
    trace_index,
    trace_root,
    trace_summaries,
)


_span_ids = itertools.count(1)


def make_span(name, start, end, trace_id=None, parent_id=None, track="main",
              **attrs):
    if trace_id is not None:
        attrs["trace_id"] = trace_id
    span = Span(name, start, track=track, parent_id=parent_id, attrs=attrs,
                span_id=next(_span_ids))
    span.end = end
    return span


def sample_trace():
    """root [0..10] -> fast child [1..3], slow child [2..9] -> leaf [3..8],
    in the order a tracer closes them."""
    root = make_span("capacity.invocation", 0.0, 10.0, trace_id=1)
    fast = make_span("capacity.admit", 1.0, 3.0, trace_id=1,
                     parent_id=root.span_id)
    slow = make_span("rfaas.request", 2.0, 9.0, trace_id=1,
                     parent_id=root.span_id)
    leaf = make_span("rfaas.attempt", 3.0, 8.0, trace_id=1,
                     parent_id=slow.span_id)
    return [fast, leaf, slow, root]


def test_trace_index_groups_closed_spans_by_trace():
    spans = sample_trace()
    spans.append(make_span("other", 10.0, 11.0, trace_id=2))
    open_span = Span("open", 0.0, attrs={"trace_id": 1},    # never closed
                     span_id=next(_span_ids))
    untraced = make_span("untraced", 0.0, 1.0)             # no trace_id
    spans.extend([open_span, untraced])
    traces = trace_index(spans)
    assert set(traces) == {(0, 1), (0, 2)}
    assert len(traces[0, 1]) == 4 and len(traces[0, 2]) == 1


def test_trace_index_keeps_each_runs_ids_apart():
    """Trace ids restart in every run; a clock restart starts the next."""
    first, second = sample_trace(), sample_trace()
    traces = trace_index(first + second)
    assert set(traces) == {(0, 1), (1, 1)}
    assert [row["run"] for row in trace_summaries(first + second)] == [0, 1]


def test_trace_root_prefers_earliest_unparented_span():
    spans = sample_trace()
    assert trace_root(spans).name == "capacity.invocation"
    # A span whose parent is *outside* the trace also counts as a root.
    orphan = [make_span("half", 5.0, 6.0, trace_id=3, parent_id=999_999)]
    assert trace_root(orphan).name == "half"
    assert trace_root([]) is None


def test_trace_summaries_report_extent():
    rows = trace_summaries(sample_trace())
    (row,) = rows
    assert row["trace_id"] == 1
    assert row["root"] == "capacity.invocation"
    assert row["spans"] == 4
    assert row["duration_s"] == 10.0


def test_critical_path_follows_last_finishing_child():
    path = critical_path(sample_trace())
    assert [step["name"] for step in path] == [
        "capacity.invocation", "rfaas.request", "rfaas.attempt"]
    assert [step["depth"] for step in path] == [0, 1, 2]
    # self time = own duration minus the chosen child's duration.
    assert path[0]["self_s"] == pytest.approx(10.0 - 7.0)
    assert path[1]["self_s"] == pytest.approx(7.0 - 5.0)
    assert path[2]["self_s"] == pytest.approx(5.0)
    # The path accounts for the root's entire duration.
    assert sum(step["self_s"] for step in path) == pytest.approx(10.0)


def test_critical_path_guards_against_id_cycles():
    root = make_span("root", 0.0, 3.0, trace_id=1)
    a = make_span("a", 0.0, 2.0, trace_id=1, parent_id=root.span_id)
    back = make_span("back", 0.0, 1.0, trace_id=1, parent_id=a.span_id)
    back.span_id = root.span_id   # corrupt merge: id collision forms a cycle
    path = critical_path([root, a, back])
    assert [s["name"] for s in path] == ["root", "a"]   # the walk terminates


def test_critical_path_table_renders():
    text = critical_path_table(sample_trace(), trace_id=1)
    assert "critical path of trace 1" in text
    assert "capacity.invocation" in text
    assert "rfaas.attempt" in text
    assert critical_path_table([]) == "no spans with a trace_id"
