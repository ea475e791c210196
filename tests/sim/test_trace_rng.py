"""Tests for time-series tracing and the event log."""

import pytest

from repro.sim import EventLog, TimeSeries


def test_timeseries_step_lookup():
    ts = TimeSeries("x")
    ts.record(0, 1.0)
    ts.record(10, 2.0)
    ts.record(20, 0.0)
    assert ts.value_at(0) == 1.0
    assert ts.value_at(9.99) == 1.0
    assert ts.value_at(10) == 2.0
    assert ts.value_at(25) == 0.0


def test_timeseries_rejects_non_monotonic():
    ts = TimeSeries()
    ts.record(5, 1)
    with pytest.raises(ValueError):
        ts.record(4, 2)


def test_timeseries_same_instant_overwrite():
    ts = TimeSeries()
    ts.record(1, 10)
    ts.record(1, 20)
    assert len(ts) == 1
    assert ts.value_at(1) == 20


def test_timeseries_lookup_before_first_raises():
    ts = TimeSeries()
    ts.record(5, 1)
    with pytest.raises(ValueError):
        ts.value_at(4)
    with pytest.raises(ValueError):
        TimeSeries().value_at(0)


def test_timeseries_sampling_grid():
    ts = TimeSeries()
    ts.record(0, 0)
    ts.record(3, 1)
    ts.record(7, 2)
    sampled = ts.sample(0, 8, 2)
    assert list(sampled.times) == [0, 2, 4, 6, 8]
    assert list(sampled.values) == [0, 0, 1, 1, 2]


def test_time_weighted_mean():
    ts = TimeSeries()
    ts.record(0, 0.0)
    ts.record(5, 10.0)
    ts.record(10, 0.0)
    # 0 for 5s then 10 for 5s over [0, 10] -> mean 5
    assert ts.time_weighted_mean(0, 10) == pytest.approx(5.0)


def test_intervals_where_extracts_spans():
    ts = TimeSeries()
    for t, v in [(0, 1), (2, 0), (5, 1), (9, 0), (12, 0)]:
        ts.record(t, v)
    idle = ts.intervals_where(lambda v: v == 0)
    assert idle == [(2, 5), (9, 12)]


def test_intervals_where_open_at_end():
    ts = TimeSeries()
    ts.record(0, 1)
    ts.record(4, 0)
    ts.record(10, 0)
    assert ts.intervals_where(lambda v: v == 0) == [(4, 10)]


def test_eventlog_filters():
    log = EventLog()
    log.emit(1.0, "start", job=1)
    log.emit(2.0, "end", job=1)
    log.emit(3.0, "start", job=2)
    assert len(log) == 3
    assert [r.payload["job"] for r in log if r.kind == "start"] == [1, 2]
    assert log.kinds() == {"start", "end"}


def test_timeseries_sample_no_float_drift_on_long_windows():
    """Regression: `t += interval` accumulated error and could drop the
    final grid point; grid points are now computed as start + i*interval."""
    ts = TimeSeries()
    ts.record(0, 1.0)
    # 2-minute polling over a week, the Fig. 1 regime.
    week = 7 * 24 * 3600.0
    sampled = ts.sample(0.0, week, 120.0)
    assert len(sampled) == int(week / 120.0) + 1
    assert sampled.times[-1] == week

    # The classic failure case: an interval with no exact binary
    # representation over many steps.
    ts2 = TimeSeries()
    ts2.record(0, 2.0)
    sampled2 = ts2.sample(0.0, 1200.0, 0.1)
    assert len(sampled2) == 12001
    assert sampled2.times[-1] == 1200.0


def test_timeseries_sample_nonzero_start_grid():
    ts = TimeSeries()
    ts.record(0, 5.0)
    sampled = ts.sample(10.0, 20.0, 2.5)
    assert list(sampled.times) == [10.0, 12.5, 15.0, 17.5, 20.0]
    assert all(v == 5.0 for v in sampled.values)
