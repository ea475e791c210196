"""Metrics registry: counters, gauges, and histograms on one clock.

Naming is enforced at registration: every metric is
``repro_<subsystem>_<name>_<unit>`` with the unit drawn from a closed
set, so exports from different subsystems aggregate without collisions
and the ``tools/check_metric_names.py`` lint can hold the line.

* :class:`Counter` — monotone event count, read at export from the
  count its component already keeps (one count per fact);
* :class:`Gauge` — instantaneous level, backed by a
  :class:`~repro.sim.trace.TimeSeries` so time-weighted means (the only
  honest average of a step signal, cf. Fig. 1's sampled utilization) come
  for free;
* :class:`Histogram` — fixed log-spaced buckets for cheap export plus
  the exact sample set for true quantiles (the paper reports p50/p95
  and medians of microsecond-scale latencies, which coarse buckets
  would butcher).

Metrics of the same name but different ``labels`` (e.g. one warm pool
per node) are distinct instruments under one family name.  Components
that register the same counter (e.g. a sharded plane's managers) each
add a reader, and the counter's value is the sum of its readers.
"""

from __future__ import annotations

import bisect
import math
import re
from functools import lru_cache
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..sim.trace import TimeSeries

__all__ = [
    "METRIC_NAME_RE",
    "METRIC_UNITS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "validate_metric_name",
]

#: Allowed terminal unit segments of a metric name.
METRIC_UNITS = ("seconds", "bytes", "total", "count", "ratio")

#: repro_<subsystem>_<name>_<unit>; subsystem and name are snake_case.
METRIC_NAME_RE = re.compile(
    r"^repro_[a-z][a-z0-9]*(?:_[a-z0-9]+)+_(?:%s)$" % "|".join(METRIC_UNITS)
)


@lru_cache(maxsize=1024)
def validate_metric_name(name: str) -> str:
    # Cached: the closed metric vocabulary is tiny, but registration runs
    # per-instrument per-executor, i.e. thousands of times in a sweep.
    if not METRIC_NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the repro_<subsystem>_<name>_<unit> "
            f"convention (unit in {METRIC_UNITS})"
        )
    return name


LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[dict]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base: identity (name + labels + help) shared by all instruments."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelPairs, help: str):
        self.name = name
        self.labels = labels
        self.help = help


class Counter(Metric):
    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs, help: str):
        super().__init__(name, labels, help)
        self._readers: list[Callable[[], float]] = []

    @property
    def value(self) -> float:
        return sum(read() for read in self._readers)


class Gauge(Metric):
    kind = "gauge"

    def __init__(self, name: str, clock: Callable[[], float],
                 labels: LabelPairs, help: str):
        super().__init__(name, labels, help)
        self._clock = clock
        self.series = TimeSeries(name=name)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.series.record(self._clock(), self.value)

    def time_weighted_mean(self) -> float:
        if not len(self.series):
            return 0.0
        start = self.series.times[0]
        now = self._clock()
        if now <= start:
            return self.value
        return self.series.time_weighted_mean(start, now)


def default_buckets() -> list[float]:
    """Fixed bucket upper bounds, one per decade from 1e-7 to 1e4."""
    return [1e-7 * 10 ** i for i in range(12)]


class Histogram(Metric):
    kind = "histogram"

    def __init__(self, name: str, labels: LabelPairs, help: str,
                 buckets: Optional[Iterable[float]]):
        super().__init__(name, labels, help)
        bounds = sorted(buckets) if buckets is not None else default_buckets()
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds = list(bounds)                 # finite upper bounds
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self._samples: list[float] = []

    @property
    def count(self) -> int:
        return len(self._samples)

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self.sum += value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    def quantile(self, q: float) -> float:
        """Exact quantile over all observed samples (nearest-rank)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile in [0, 1]")
        if not self._samples:
            raise ValueError(f"histogram {self.name} has no samples")
        ordered = sorted(self._samples)
        idx = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[idx]

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.bounds + [math.inf], self.bucket_counts):
            running += n
            out.append((bound, running))
        return out


class MetricsRegistry:
    """Per-environment (or per-run) instrument store.

    ``counter``/``gauge``/``histogram`` are get-or-create: subsystems
    can register the same family independently and share the instrument.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None, scope: str = ""):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.scope = scope
        self._metrics: Dict[Tuple[str, LabelPairs], Metric] = {}

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def _get_or_create(self, cls, name, labels, help, **kwargs) -> Metric:
        validate_metric_name(name)
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], help=help, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, read: Callable[[], float],
                labels: Optional[dict] = None, help: str = "") -> None:
        """Add ``read``, which returns its component's count, to the counter."""
        self._get_or_create(Counter, name, labels, help)._readers.append(read)

    def gauge(self, name: str, labels: Optional[dict] = None, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, labels, help, clock=self._clock)

    def histogram(self, name: str, labels: Optional[dict] = None, help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    def get(self, name: str, labels: Optional[dict] = None) -> Optional[Metric]:
        return self._metrics.get((name, _label_key(labels)))


class _NullInstrument:
    """One object that absorbs every instrument method as a no-op."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def set(self, value: float) -> None: ...
    def observe(self, value: float) -> None: ...
    def time_weighted_mean(self) -> float:
        return 0.0
    def mean(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Zero-overhead default registry: still validates names so a typo'd
    metric fails fast even in untraced runs."""

    enabled = False

    def counter(self, name: str, read: Callable[[], float],
                labels: Optional[dict] = None, help: str = "") -> None:
        validate_metric_name(name)

    def gauge(self, name: str, labels: Optional[dict] = None, help: str = "") -> _NullInstrument:
        validate_metric_name(name)
        return _NULL_INSTRUMENT

    def histogram(self, name: str, labels: Optional[dict] = None, help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> _NullInstrument:
        validate_metric_name(name)
        return _NULL_INSTRUMENT

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullMetricsRegistry()
