"""Tracers: record spans against a clock without perturbing it.

Two implementations share one interface:

* :class:`Tracer` — records :class:`~repro.telemetry.span.Span` objects
  into a sink list, stamping them from a caller-supplied ``clock``
  (``env.now`` for simulations, ``time.perf_counter`` for the live
  offload runtime);
* :class:`NullTracer` — the zero-overhead default: every operation is a
  no-op on shared singletons, so instrumented code costs one attribute
  access and an empty context manager when telemetry is disabled.

Simulation processes interleave: two :class:`~repro.sim.engine.Process`
generators can each be inside a ``with tracer.span(...)`` block at the
same simulated instant.  A single global span stack would cross their
parent links, so the tracer keeps **one stack per key**, where the key
defaults to the environment's ``active_process`` — each process sees its
own nesting, and code running outside any process gets the ``None``
stack.  No events are scheduled and no RNG is consumed, which is what
preserves the seeded-determinism guarantee.

A tracer numbers what it records: span ids and trace ids come from an
:class:`IdSource`, two counters that start at 1.  Tracers that write to
one sink (the scopes of a
:class:`~repro.telemetry.provider.TelemetryCollector`) share the
collector's source, so ids stay unique across the sink.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from .context import TraceContext
from .span import Span

__all__ = ["IdSource", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN_CONTEXT"]


class IdSource:
    """The span-id and trace-id counters of one span sink, both from 1."""

    __slots__ = ("next_span_id", "next_trace_id")

    def __init__(self):
        self.next_span_id = itertools.count(1).__next__
        self.next_trace_id = itertools.count(1).__next__


class Tracer:
    """Records spans stamped from ``clock`` into ``sink``.

    ``sink`` is anything with ``append`` — a plain list (the default) or
    a :class:`~repro.telemetry.streaming.JsonlStreamWriter` that writes
    each span to disk as it closes instead of retaining it.

    Spans accept an optional ``ctx`` (:class:`TraceContext`): when the
    calling process has no open local span, the new span parents to
    ``ctx.span_id`` and stamps ``ctx.trace_id`` into its attrs; nested
    spans inherit ``trace_id`` from their local parent automatically, so
    one context at the top of a hop tags the whole subtree.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float],
        sink: Optional[Any] = None,
        key_fn: Optional[Callable[[], Any]] = None,
        ids: Optional[IdSource] = None,
    ):
        self.clock = clock
        self.spans = sink if sink is not None else []
        self._key_fn = key_fn if key_fn is not None else (lambda: None)
        self._stacks: dict[Any, list[Span]] = {}
        ids = ids if ids is not None else IdSource()
        self._next_span_id = ids.next_span_id
        self._next_trace_id = ids.next_trace_id

    def mint(self) -> TraceContext:
        """A fresh trace identity (this tracer's counter, no RNG)."""
        return TraceContext(self._next_trace_id())

    @staticmethod
    def _link(parent: Optional[Span], ctx: Optional[TraceContext],
              attrs: dict) -> Optional[int]:
        """Resolve parent id + trace_id inheritance for a new span."""
        if parent is not None:
            if "trace_id" not in attrs:
                tid = parent.attrs.get("trace_id")
                if tid is None and ctx is not None:
                    tid = ctx.trace_id
                if tid is not None:
                    attrs["trace_id"] = tid
            return parent.span_id
        if ctx is not None:
            attrs.setdefault("trace_id", ctx.trace_id)
            return ctx.span_id
        return None

    # -- implicit-parent context-manager API ---------------------------------
    def current(self) -> Optional[Span]:
        """The innermost open span of the calling process, if any."""
        stack = self._stacks.get(self._key_fn())
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, track: str = "main",
             ctx: Optional[TraceContext] = None, **attrs: Any) -> Iterator[Span]:
        """Open a child of the calling process's current span (or ``ctx``)."""
        # Inlined current(): one key_fn call and one dict lookup instead
        # of two of each on this per-span hot path.
        key = self._key_fn()
        stack = self._stacks.setdefault(key, [])
        parent = stack[-1] if stack else None
        parent_id = self._link(parent, ctx, attrs)
        record = Span(
            name,
            self.clock(),
            track=track,
            parent_id=parent_id,
            attrs=attrs,
            span_id=self._next_span_id(),
        )
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            record.end = self.clock()
            self.spans.append(record)
            # The process may have been re-keyed between enter and exit
            # (it cannot be for engine processes, but stay defensive).
            stack = self._stacks.get(key, [])
            if record in stack:
                stack.remove(record)
            if not stack:
                self._stacks.pop(key, None)

    def instant(self, name: str, track: str = "main",
                ctx: Optional[TraceContext] = None,
                parent: Optional[Span] = None, **attrs: Any) -> Span:
        """A zero-duration marker (e.g. a lease grant or an eviction),
        a child of ``parent`` or else of the calling process's current
        span."""
        now = self.clock()
        if parent is None:
            parent = self.current()
        parent_id = self._link(parent, ctx, attrs)
        record = Span(name, now, track=track, parent_id=parent_id, attrs=attrs,
                      span_id=self._next_span_id())
        record.end = now
        self.spans.append(record)
        return record

    # -- explicit-lifetime API ------------------------------------------------
    def begin(self, name: str, track: str = "main",
              ctx: Optional[TraceContext] = None,
              parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span whose end is not lexically scoped (e.g. a batch job).

        The span is recorded only when :meth:`finish` closes it, so an
        abandoned span never corrupts an export.  Explicit-lifetime
        spans never join the per-process stack: an open ``parent`` span
        parents one as a ``with`` block would (inheriting its trace
        id), and a ``ctx`` parents one across a hop.
        """
        parent_id = self._link(parent, ctx, attrs)
        return Span(name, self.clock(), track=track, parent_id=parent_id,
                    attrs=attrs, span_id=self._next_span_id())

    def finish(self, span: Span, **attrs: Any) -> Span:
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already finished")
        span.end = self.clock()
        span.attrs.update(attrs)
        self.spans.append(span)
        return span


class _NullSpan(Span):
    """Shared inert span returned by the null tracer."""

    __slots__ = ()

    def __init__(self):
        super().__init__("null", 0.0, span_id=0)
        self.end = 0.0

    def set(self, **attrs: Any) -> "Span":
        return self


_NULL_SPAN = _NullSpan()


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


#: What :meth:`NullTracer.span` returns; a hot path that hoists
#: ``tracer.enabled`` uses it directly and skips the tracer call.
NULL_SPAN_CONTEXT = _NullContext()


class NullTracer:
    """Drops everything; all methods return shared singletons."""

    enabled = False
    spans: tuple = ()

    def current(self) -> Optional[Span]:
        return None

    def span(self, name: str, track: str = "main",
             ctx: Optional[TraceContext] = None, **attrs: Any) -> _NullContext:
        return NULL_SPAN_CONTEXT

    def instant(self, name: str, track: str = "main",
                ctx: Optional[TraceContext] = None,
                parent: Optional[Span] = None, **attrs: Any) -> Span:
        return _NULL_SPAN

    def begin(self, name: str, track: str = "main",
              ctx: Optional[TraceContext] = None,
              parent: Optional[Span] = None, **attrs: Any) -> Span:
        return _NULL_SPAN

    def finish(self, span: Span, **attrs: Any) -> Span:
        return _NULL_SPAN


NULL_TRACER = NullTracer()
