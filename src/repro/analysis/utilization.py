"""Idle-event and utilization statistics (the Fig. 1 analyses).

The paper's headline measurements: the median number of idle nodes at any
sampling point was 252; idle periods have a median of 5–6.5 minutes and
70–80 % last under 10 minutes.  These functions compute exactly those
statistics from the sampler / tracker series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..sim.trace import TimeSeries

__all__ = ["IdleStats", "idle_duration_stats", "sampled_idle_durations", "utilization_summary"]


@dataclass(frozen=True)
class IdleStats:
    """Summary of idle-period durations (seconds)."""

    count: int
    median_s: float
    mean_s: float
    fraction_under_10min: float
    p90_s: float


def idle_duration_stats(durations: Sequence[float]) -> IdleStats:
    if not len(durations):
        raise ValueError("no idle periods observed")
    arr = np.asarray(durations, dtype=float)
    return IdleStats(
        count=int(arr.size),
        median_s=float(np.median(arr)),
        mean_s=float(arr.mean()),
        fraction_under_10min=float((arr < 600.0).mean()),
        p90_s=float(np.percentile(arr, 90)),
    )


def sampled_idle_durations(series: TimeSeries, interval: float) -> list[float]:
    """Estimate idle durations from a discretely sampled busy series.

    Mirrors the paper's methodology note on Fig. 1c: with two-minute
    polling, an idle period's duration is known only to sample
    granularity; we count consecutive idle samples.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    durations = []
    run = 0
    for value in series.values:
        if value == 0.0:
            run += 1
        else:
            if run:
                durations.append(run * interval)
            run = 0
    if run:
        durations.append(run * interval)
    return durations


def utilization_summary(idle_nodes: TimeSeries, total_nodes: int) -> dict:
    """Aggregate Fig.-1a style numbers from the sampled idle-node series."""
    if total_nodes < 1:
        raise ValueError("need >= 1 node")
    values = idle_nodes.values
    if values.size == 0:
        raise ValueError("empty series")
    return {
        "median_idle_nodes": float(np.median(values)),
        "mean_idle_nodes": float(values.mean()),
        "max_idle_nodes": float(values.max()),
        "median_allocated_fraction": float(np.median(1.0 - values / total_nodes)),
        "mean_allocated_fraction": float(np.mean(1.0 - values / total_nodes)),
    }
