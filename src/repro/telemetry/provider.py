"""Wiring telemetry to environments with zero overhead by default.

Subsystems never construct tracers; they ask ``telemetry_of(env)`` once
at init.  Telemetry attaches one way, through a collector.  Resolution
order:

1. the innermost *active* :class:`TelemetryCollector` — a streaming
   sweep (:func:`repro.sweep.run_sweep` with ``stream_spans``)
   activates one around each scenario, so every environment the
   scenario constructs internally gets traced without the experiment
   knowing (each environment receives its own clock-bound scope,
   because simulated clocks restart at zero per environment while the
   span sink is shared); the environment keeps that scope for good;
2. otherwise the process-wide null telemetry: no-op tracer, no-op
   metrics, no allocation per call.

Nothing here schedules events or consumes random numbers, so enabling
telemetry cannot perturb a seeded simulation — ``tests/telemetry``
asserts traced and untraced runs produce identical event timelines.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from .metrics import MetricsRegistry, NULL_REGISTRY
from .span import Span
from .tracer import NULL_TRACER, IdSource, Tracer

__all__ = [
    "Telemetry",
    "TelemetryCollector",
    "NULL_TELEMETRY",
    "telemetry_of",
]


class Telemetry:
    """A tracer + metrics registry bound to one clock.

    A standalone instance numbers its spans and traces from 1; a
    collector scope passes the collector's shared ``ids`` instead.
    """

    enabled = True

    def __init__(
        self,
        env: Any = None,
        sink: Optional[Any] = None,
        scope: str = "",
        ids: Optional[IdSource] = None,
    ):
        clock = (lambda: env.now) if env is not None else time.perf_counter
        key_fn: Callable[[], Any]
        if env is not None:
            # Per-process span stacks: generator processes interleave.
            key_fn = lambda: env.active_process
        else:
            key_fn = lambda: None
        self.clock = clock
        self.scope = scope
        self.tracer = Tracer(clock, sink=sink, key_fn=key_fn, ids=ids)
        self.metrics = MetricsRegistry(clock, scope=scope)

    @property
    def spans(self) -> Any:
        return self.tracer.spans


class _NullTelemetry:
    enabled = False
    tracer = NULL_TRACER
    metrics = NULL_REGISTRY
    spans: tuple = ()
    scope = ""


NULL_TELEMETRY = _NullTelemetry()

#: Stack of active collectors (innermost last).
_ACTIVE: list["TelemetryCollector"] = []


class TelemetryCollector:
    """Aggregates telemetry from every environment built while active.

    One scenario may construct several :class:`Environment` instances
    (fig07 builds three per payload size).  Spans from all of them land
    in one shared ``sink`` (a list by default, or a
    :class:`~repro.telemetry.streaming.JsonlStreamWriter` that keeps no
    span in memory); each environment gets its own metrics
    registry scope (``sim0``, ``sim1``, ... plus ``wall`` for live
    wall-clock code) because simulated clocks restart at zero and time-weighted gauges
    must stay monotone per clock.  All scopes share the collector's
    :class:`~repro.telemetry.tracer.IdSource`, so span and trace ids
    are unique across the one sink and start at 1 in every collector.
    """

    def __init__(self, sink: Optional[Any] = None):
        self.spans: Any = sink if sink is not None else []
        self.scopes: List[Telemetry] = []
        self._wall: Optional[Telemetry] = None
        self._ids = IdSource()

    # -- scope management -------------------------------------------------------
    def _scope(self, env: Any, scope: str) -> Telemetry:
        telemetry = Telemetry(env=env, sink=self.spans, scope=scope,
                              ids=self._ids)
        self.scopes.append(telemetry)
        return telemetry

    def scope_for(self, env: Any) -> Telemetry:
        return self._scope(env, f"sim{len(self.scopes)}")

    def wall_scope(self) -> Telemetry:
        if self._wall is None:
            self._wall = self._scope(None, "wall")
        return self._wall

    def registries(self) -> List[MetricsRegistry]:
        return [t.metrics for t in self.scopes]

    # -- activation --------------------------------------------------------------
    def __enter__(self) -> "TelemetryCollector":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        _ACTIVE.remove(self)
        return False


def telemetry_of(env: Any) -> Any:
    """The telemetry handle for ``env`` (or wall-clock code when None)."""
    if env is not None:
        scoped = getattr(env, "_telemetry", None)
        if scoped is not None:
            return scoped
    if _ACTIVE:
        collector = _ACTIVE[-1]
        if env is None:
            return collector.wall_scope()
        telemetry = collector.scope_for(env)
        env._telemetry = telemetry
        return telemetry
    return NULL_TELEMETRY
