"""Live dispatcher tests."""

import numpy as np
import pytest

from repro.local import LocalRuntime
from repro.offload import OffloadDispatcher, OffloadModel, calibrate_model
from repro.workloads import generate_options, price_chunk, split_batch


@pytest.fixture(scope="module")
def runtime():
    rt = LocalRuntime(workers=2)
    rt.register("price", "repro.workloads.blackscholes:price_chunk")
    rt.prewarm()
    yield rt
    rt.shutdown()


def eq1_model(t_inv):
    return OffloadModel(t_local=0.005, t_inv=t_inv, latency=0.001,
                        bandwidth=2e9, data_per_task=120_000)


def test_dispatcher_results_match_serial(runtime):
    batch = generate_options(20_000, seed=1)
    payloads = split_batch(batch, 8)
    report = OffloadDispatcher(runtime, eq1_model(0.006)).run(
        "price", price_chunk, payloads, iterations=2)
    assert report.plan.total == 8
    assert report.plan.n_remote > 0
    serial = np.concatenate([price_chunk(p, iterations=2) for p in payloads])
    np.testing.assert_allclose(np.concatenate(report.results), serial)


def test_dispatcher_without_model_runs_local(runtime):
    # Without a model that pays for offloading, nothing leaves the node:
    # N_local_min is 21 at t_inv=100 ms, so 4 tasks sit below the Eq.-1
    # threshold and all run locally.
    payloads = split_batch(generate_options(1000, seed=2), 4)
    report = OffloadDispatcher(runtime, eq1_model(0.1)).run(
        "price", price_chunk, payloads, iterations=1)
    assert report.plan.n_remote == 0
    assert len(report.results) == 4
    serial = np.concatenate([price_chunk(p, iterations=1) for p in payloads])
    np.testing.assert_allclose(np.concatenate(report.results), serial)


def test_dispatcher_empty_batch(runtime):
    report = OffloadDispatcher(runtime, eq1_model(0.006)).run("price", price_chunk, [])
    assert report.results == []
    assert report.wall_time_s >= 0


def test_calibrate_model_measures_real_times(runtime):
    probe = split_batch(generate_options(50_000, seed=3), 1)[0]
    model = calibrate_model(runtime, "price", price_chunk, probe,
                            iterations=2, repeats=2)
    assert model.t_local > 0
    assert model.t_inv > 0
    assert model.data_per_task > 100_000  # six float64 arrays of 50k
    assert model.n_local_min >= 1
    with pytest.raises(ValueError):
        calibrate_model(runtime, "price", price_chunk, probe, repeats=0)
