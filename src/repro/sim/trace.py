"""Time-series recording for simulation experiments.

The utilization figures of the paper (Fig. 1) are built from *sampled*
state (SLURM queried on a two-minute interval) while other results need
exact event logs.  This module provides both:

* :class:`TimeSeries` — append-only (time, value) pairs with step-function
  semantics, resampling, and time-weighted statistics;
* :class:`EventLog` — typed event records for post-hoc analysis.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

__all__ = ["TimeSeries", "EventLog", "EventRecord"]


class TimeSeries:
    """A piecewise-constant signal recorded as (time, value) samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(f"non-monotonic record: {time} < {self._times[-1]}")
        if self._times and time == self._times[-1]:
            self._values[-1] = value  # same-instant overwrite keeps last value
            return
        self._times.append(float(time))
        self._values.append(float(value))

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values)

    def value_at(self, time: float) -> float:
        """Step-function lookup (last value at or before ``time``)."""
        if not self._times:
            raise ValueError("empty series")
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            raise ValueError(f"time {time} precedes first sample {self._times[0]}")
        return self._values[idx]

    def sample(self, start: float, stop: float, interval: float) -> "TimeSeries":
        """Resample on a regular grid — models SLURM polling (Fig. 1)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        out = TimeSeries(name=f"{self.name}@{interval}")
        # Grid points are computed as start + i*interval rather than by a
        # `t += interval` loop: accumulated float error over long windows
        # (e.g. days of 2-minute polls) would otherwise push the last grid
        # point past `stop` and silently drop the final sample.
        n_points = int((stop - start) / interval * (1 + 1e-12) + 1e-9) + 1
        for i in range(max(n_points, 0)):
            t = start + i * interval
            out.record(t, self.value_at(t))
        return out

    def time_weighted_mean(self, start: Optional[float] = None, stop: Optional[float] = None) -> float:
        """Mean of the step function over [start, stop]."""
        if not self._times:
            raise ValueError("empty series")
        t0 = self._times[0] if start is None else start
        t1 = self._times[-1] if stop is None else stop
        if t1 <= t0:
            return self.value_at(t0)
        grid_t = [t0] + [t for t in self._times if t0 < t < t1] + [t1]
        total = 0.0
        for a, b in zip(grid_t[:-1], grid_t[1:]):
            total += self.value_at(a) * (b - a)
        return total / (t1 - t0)

    def intervals_where(self, predicate) -> list[tuple[float, float]]:
        """Maximal [start, end) intervals on which ``predicate(value)`` holds.

        The final interval is closed at the last recorded time.  Used to
        extract idle-node periods (Fig. 1c).
        """
        spans: list[tuple[float, float]] = []
        open_start: Optional[float] = None
        for t, v in zip(self._times, self._values):
            if predicate(v):
                if open_start is None:
                    open_start = t
            else:
                if open_start is not None:
                    spans.append((open_start, t))
                    open_start = None
        if open_start is not None and self._times:
            spans.append((open_start, self._times[-1]))
        return spans


@dataclass(frozen=True)
class EventRecord:
    time: float
    kind: str
    payload: dict = field(default_factory=dict)


class EventLog:
    """Append-only structured event log."""

    def __init__(self):
        self._records: list[EventRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def emit(self, time: float, kind: str, **payload: Any) -> None:
        self._records.append(EventRecord(time, kind, payload))

    def kinds(self) -> set[str]:
        return {r.kind for r in self._records}
