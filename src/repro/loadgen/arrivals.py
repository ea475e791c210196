"""Seeded arrival processes for the open-loop load engine.

An arrival process turns ``(window, rng)`` into a sorted array of
arrival timestamps.  Both processes here are frozen dataclasses of
plain numbers — they pickle across the sweep fabric's pool boundary —
and both draw *only* from the generator they are handed, so the caller
owns the seed discipline.

:class:`PoissonArrivals` is the memoryless baseline: exponential
inter-arrival gaps at a constant rate.

:class:`MmppArrivals` is a Markov-modulated Poisson process, the
standard model for bursty FaaS traffic: a continuous-time state chain
(exponential dwell times) switches the instantaneous arrival rate
between regimes — e.g. a quiet 200 req/s background and a 5000 req/s
flash crowd.  Within each dwell segment arrivals are Poisson at the
state's rate; the arrival clock restarts at each switch (piecewise
Poisson), which keeps synthesis a single linear pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PoissonArrivals", "MmppArrivals"]


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    rate_per_s: float

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")

    def times(self, window_s: float, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival timestamps in ``[0, window_s)``.

        Draws gaps in one vectorized block sized from the expected count
        plus a 6-sigma margin, topping up in the (rare) tail case — the
        draw *sequence* is still fully determined by the rng state.
        """
        if window_s <= 0:
            return np.empty(0, dtype=np.float64)
        expected = self.rate_per_s * window_s
        block = int(expected + 6.0 * np.sqrt(expected) + 16)
        gaps = rng.exponential(1.0 / self.rate_per_s, size=block)
        times = np.cumsum(gaps)
        while times[-1] < window_s:  # pragma: no cover - 6-sigma tail
            more = rng.exponential(1.0 / self.rate_per_s, size=block)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        return times[times < window_s]


@dataclass(frozen=True)
class MmppArrivals:
    """Markov-modulated Poisson arrivals.

    ``rates_per_s`` lists the per-state arrival rates;
    ``mean_dwell_s`` the expected time spent in a state before the
    chain jumps (dwell times are exponential).  With more than two
    states the successor is drawn uniformly among the *other* states,
    so the chain never self-loops and every regime recurs.
    """

    rates_per_s: tuple[float, ...] = (200.0, 5000.0)
    mean_dwell_s: float = 1.0

    def __post_init__(self):
        if len(self.rates_per_s) < 2:
            raise ValueError("MMPP needs at least two states")
        if any(r <= 0 for r in self.rates_per_s):
            raise ValueError("every state rate must be positive")
        if self.mean_dwell_s <= 0:
            raise ValueError("mean_dwell_s must be positive")

    def times(self, window_s: float, rng: np.random.Generator) -> np.ndarray:
        if window_s <= 0:
            return np.empty(0, dtype=np.float64)
        state = 0
        t = 0.0
        chunks: list[np.ndarray] = []
        n_states = len(self.rates_per_s)
        while t < window_s:
            dwell = float(rng.exponential(self.mean_dwell_s))
            end = min(t + dwell, window_s)
            rate = self.rates_per_s[state]
            expected = rate * (end - t)
            block = int(expected + 6.0 * np.sqrt(expected) + 16)
            gaps = rng.exponential(1.0 / rate, size=block)
            seg = t + np.cumsum(gaps)
            while seg.size and seg[-1] < end:  # pragma: no cover - tail
                more = rng.exponential(1.0 / rate, size=block)
                seg = np.concatenate([seg, seg[-1] + np.cumsum(more)])
            chunks.append(seg[seg < end])
            t = t + dwell
            if n_states == 2:
                state = 1 - state
            else:
                hop = int(rng.integers(n_states - 1))
                state = hop if hop < state else hop + 1
        if not chunks:  # pragma: no cover - window always yields >= 1 segment
            return np.empty(0, dtype=np.float64)
        return np.concatenate(chunks)
