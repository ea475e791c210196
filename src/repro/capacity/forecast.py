"""Demand forecasting for the capacity control plane.

The controller of the paper registers harvested capacity *reactively*;
the capacity plane closes the loop by watching invocation demand:
function arrivals, per function name, smoothed two ways: a time-decayed
EWMA (fast reaction to the current rate) and a sliding window of
fixed-width buckets whose per-bucket rates give a percentile estimate
(robust to bursts, the KaaS-autoscaling idea of provisioning for a high
quantile rather than the mean).

The forecaster is a passive, deterministic data structure: no randomness,
no simulation processes, every estimate a pure function of what was
observed and the clock values passed in.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

__all__ = ["DemandForecaster"]

#: Key under which whole-plane arrivals are tracked alongside per-function ones.
_ALL = "<all>"

#: EWMA time constant: observations older than ~TAU_S barely count.
TAU_S = 2.0
#: Sliding-window length for the percentile estimator.
WINDOW_S = 10.0
#: Width of one counting bucket inside the window.
BUCKET_S = 0.5


class _EwmaRate:
    """Event-driven exponentially weighted arrival-rate estimate.

    Each arrival contributes its instantaneous rate (1/gap); weights
    decay continuously with the configured time constant, so the
    estimate is independent of how often anyone asks for it.
    """

    __slots__ = ("tau_s", "rate", "last_t", "count")

    def __init__(self, tau_s: float):
        self.tau_s = tau_s
        self.rate = 0.0
        self.last_t: Optional[float] = None
        self.count = 0

    def observe(self, now: float) -> None:
        if self.last_t is None:
            self.last_t = now
            self.count = 1
            return
        gap = now - self.last_t
        if gap < 0:
            raise ValueError("time went backwards")
        self.count += 1
        if gap == 0.0:
            # Simultaneous arrivals: each adds one event's worth of mass
            # at the current instant; approximate by bumping the rate by
            # one event per tau (the limit of the update below).
            self.rate += 1.0 / self.tau_s
            return
        weight = 1.0 - math.exp(-gap / self.tau_s)
        self.rate = (1.0 - weight) * self.rate + weight * (1.0 / gap)
        self.last_t = now

    def rate_at(self, now: float) -> float:
        """The decayed estimate at ``now`` (stale data fades out)."""
        if self.last_t is None or now <= self.last_t:
            return self.rate
        return self.rate * math.exp(-(now - self.last_t) / self.tau_s)


class _BucketWindow:
    """Fixed-width arrival buckets over a sliding window."""

    __slots__ = ("bucket_s", "n_buckets", "buckets")

    def __init__(self, bucket_s: float, window_s: float):
        self.bucket_s = bucket_s
        self.n_buckets = max(1, int(round(window_s / bucket_s)))
        # (bucket_index, count), oldest first; gaps mean empty buckets.
        self.buckets: deque[list] = deque()

    def observe(self, now: float) -> None:
        index = int(now / self.bucket_s)
        if self.buckets and self.buckets[-1][0] == index:
            self.buckets[-1][1] += 1
        else:
            self.buckets.append([index, 1])
        self._trim(index)

    def _trim(self, current_index: int) -> None:
        oldest_kept = current_index - self.n_buckets + 1
        while self.buckets and self.buckets[0][0] < oldest_kept:
            self.buckets.popleft()

    def rates(self, now: float) -> list[float]:
        """Per-bucket arrival rates across the window ending at ``now``.

        Buckets with no arrivals count as zero, so an idle stretch pulls
        the percentile down instead of silently vanishing.
        """
        current_index = int(now / self.bucket_s)
        self._trim(current_index)
        counts = {index: count for index, count in self.buckets}
        return [
            counts.get(index, 0) / self.bucket_s
            for index in range(current_index - self.n_buckets + 1, current_index + 1)
        ]

    def percentile_rate(self, q: float, now: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        rates = sorted(self.rates(now))
        if not rates:
            return 0.0
        idx = min(int(q * len(rates)), len(rates) - 1)
        return rates[idx]


class DemandForecaster:
    """Per-function and whole-plane invocation demand."""

    def __init__(self):
        self._ewma: dict[str, _EwmaRate] = {}
        self._window: dict[str, _BucketWindow] = {}
        self.arrivals = 0

    # -- demand side ---------------------------------------------------------
    def _streams(self, key: str) -> tuple[_EwmaRate, _BucketWindow]:
        ewma = self._ewma.get(key)
        if ewma is None:
            ewma = self._ewma[key] = _EwmaRate(TAU_S)
            self._window[key] = _BucketWindow(BUCKET_S, WINDOW_S)
        return ewma, self._window[key]

    def observe_arrival(self, now: float, function: Optional[str] = None) -> None:
        """Record one invocation arrival (for ``function``, and overall)."""
        self.arrivals += 1
        keys = [_ALL] if function is None else [_ALL, function]
        for key in keys:
            ewma, window = self._streams(key)
            ewma.observe(now)
            window.observe(now)

    def functions_seen(self) -> list[str]:
        return sorted(k for k in self._ewma if k != _ALL)

    def rate(self, now: float, function: Optional[str] = None) -> float:
        """EWMA arrivals/second (decayed to ``now``)."""
        key = _ALL if function is None else function
        ewma = self._ewma.get(key)
        return 0.0 if ewma is None else ewma.rate_at(now)

    def percentile_rate(self, now: float, q: float = 0.9,
                        function: Optional[str] = None) -> float:
        """The ``q``-quantile of per-bucket arrival rates in the window."""
        key = _ALL if function is None else function
        window = self._window.get(key)
        return 0.0 if window is None else window.percentile_rate(q, now)

    def forecast_arrivals(self, now: float, horizon_s: float, q: float = 0.9,
                          function: Optional[str] = None) -> float:
        """Expected arrivals in the next ``horizon_s`` seconds.

        Takes the *larger* of the EWMA and the window percentile: the
        EWMA reacts fast to a ramp, the percentile remembers bursts the
        EWMA has already forgotten.
        """
        if horizon_s < 0:
            raise ValueError("horizon_s must be non-negative")
        best = max(self.rate(now, function), self.percentile_rate(now, q, function))
        return best * horizon_s
