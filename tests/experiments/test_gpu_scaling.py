"""The gpu_scaling sweep reproduces the batching tradeoff."""

import pytest

from repro.experiments import gpu_scaling_sweep
from repro.sweep import run_sweep

BATCH_SIZES = (1, 4, 16, 64)
REQUESTS = 512


@pytest.fixture(scope="module")
def result():
    return run_sweep("gpu_scaling", batch_sizes=BATCH_SIZES, requests=REQUESTS)


def test_throughput_rises_with_batch_size_then_plateaus(result):
    throughput = [p.throughput_rps for p in result.points]
    # Monotone rise (a small drain-tail wobble is tolerated at the cap).
    for smaller, larger in zip(throughput, throughput[1:]):
        assert larger > smaller * 0.95
    # Batching is the point: the largest batch beats unbatched by a lot.
    assert throughput[-1] > 3 * throughput[0]
    # The offered load saturates its cap at large batch sizes.
    offered = [p.offered_rps for p in result.points]
    assert offered == sorted(offered)
    assert offered[-1] == pytest.approx(800.0)


def test_tail_latency_grows_monotonically_with_batch_size(result):
    p99 = [p.p99_ms for p in result.points]
    assert p99 == sorted(p99)
    assert p99[-1] > 5 * p99[0]
    # p50 <= p99 everywhere, and batch fill shows up in the median too.
    for point in result.points:
        assert point.p50_ms <= point.p99_ms


def test_batches_are_full_and_size_triggered_on_defaults(result):
    for point in result.points:
        assert point.completed == 2 * REQUESTS
        assert point.mean_batch_size == pytest.approx(point.batch_size)
        assert point.timer_flushes == 0
        assert point.size_flushes * point.batch_size == point.completed


def test_scenario_is_a_pure_function_of_params_and_seed():
    (spec,) = gpu_scaling_sweep.plan_scenarios(
        batch_sizes=(4,), requests=64, max_rate_rps=800.0).scenarios
    assert (gpu_scaling_sweep.scenario(dict(spec.params), seed=7)
            == gpu_scaling_sweep.scenario(dict(spec.params), seed=7))


def test_report_renders_the_tradeoff_table(result):
    text = result.format_report()
    assert "GPU invocation batching" in text
    assert "p99 (ms)" in text and "throughput (r/s)" in text
