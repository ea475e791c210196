"""Causal-tree analysis: group spans by trace and extract critical paths.

A traced request is a tree: the ``trace_id`` every span carries in its
attrs names the tree, ``parent_id`` links name the edges.  The critical
path of a trace is the chain of spans that determined its end-to-end
latency — at every node, the child that finished last (the one the
parent was still waiting on).  This turns the paper's Fig. 7 latency
decomposition into an operation on real trace data: the walk from a
``capacity.invocation`` root through the retry attempt that finally
succeeded, down to the executor's dispatch/sandbox/execution slices.

All functions are pure over a span sequence in the order it was
recorded — they work equally on a live collector's spans and on spans
loaded back from a JSONL/Chrome file.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.tables import render_table
from .span import Span, closed_spans_by_run

__all__ = [
    "trace_index",
    "trace_summaries",
    "trace_root",
    "critical_path",
    "critical_path_table",
]


def trace_index(spans: Iterable[Span]) -> Dict[Tuple[int, int], List[Span]]:
    """Closed spans grouped by ``(run, trace_id)``, in stream order.

    Trace ids restart in every run of a sweep stream
    (:func:`~repro.telemetry.span.closed_spans_by_run`), so the run is
    part of a trace's identity.
    """
    traces: Dict[Tuple[int, int], List[Span]] = {}
    for run, span in closed_spans_by_run(spans):
        trace_id = span.attrs.get("trace_id")
        if trace_id is not None:
            traces.setdefault((run, trace_id), []).append(span)
    return traces


def trace_root(trace_spans: List[Span]) -> Optional[Span]:
    """The root of one trace: no parent, or parent outside the trace."""
    ids = {span.span_id for span in trace_spans}
    roots = [
        span for span in trace_spans
        if span.parent_id is None or span.parent_id not in ids
    ]
    if not roots:
        return None
    # The earliest-starting root wins; span_id breaks exact ties.
    return min(roots, key=lambda s: (s.start, s.span_id))


def trace_summaries(spans: Iterable[Span]) -> List[dict]:
    """One row per trace: run, id, root name, span count, wall-to-wall time."""
    rows = []
    for (run, trace_id), members in sorted(trace_index(spans).items()):
        root = trace_root(members)
        start = min(s.start for s in members)
        end = max(s.end for s in members)
        rows.append({
            "run": run,
            "trace_id": trace_id,
            "root": root.name if root is not None else "?",
            "spans": len(members),
            "start": start,
            "end": end,
            "duration_s": end - start,
        })
    return rows


def critical_path(trace_spans: List[Span]) -> List[dict]:
    """The last-finishing-child chain from the trace root to a leaf.

    Returns one row per step: depth, span name/track, start/end, the
    span's own duration, and ``self_s`` — the part of its duration not
    covered by the next step down (where the time actually went).
    Deterministic: ties on end time break by start then span id.
    """
    root = trace_root(trace_spans)
    if root is None:
        return []
    children: Dict[int, List[Span]] = {}
    for span in trace_spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    path: List[dict] = []
    node = root
    depth = 0
    visited = set()
    while node is not None and node.span_id not in visited:
        visited.add(node.span_id)
        kids = children.get(node.span_id, [])
        last = max(kids, key=lambda s: (s.end, s.start, s.span_id)) if kids else None
        covered = last.duration if last is not None else 0.0
        path.append({
            "depth": depth,
            "name": node.name,
            "track": node.track,
            "start": node.start,
            "end": node.end,
            "duration_s": node.duration,
            "self_s": max(node.duration - covered, 0.0),
            "attrs": dict(node.attrs),
        })
        node = last
        depth += 1
    return path


def critical_path_table(trace_spans: List[Span],
                        trace_id: Optional[Union[int, str]] = None) -> str:
    """Render a trace's critical path as an aligned ASCII table."""
    steps = critical_path(trace_spans)
    if not steps:
        return "no spans with a trace_id"
    title = (f"critical path of trace {trace_id}"
             if trace_id is not None else "critical path")
    headers = ["step", "span", "track", "start", "duration_s", "self_s"]
    rows = []
    for step in steps:
        rows.append([
            "  " * step["depth"] + str(step["depth"]),
            step["name"],
            step["track"],
            f"{step['start']:.6f}",
            f"{step['duration_s']:.6f}",
            f"{step['self_s']:.6f}",
        ])
    return render_table(headers, rows, title=title)
