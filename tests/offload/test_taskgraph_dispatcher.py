"""Task-graph scheduling and live dispatcher tests."""

import numpy as np
import pytest

from repro.local import LocalRuntime
from repro.offload import (
    OffloadDispatcher,
    OffloadModel,
    TaskGraph,
    calibrate_model,
    prefix_scan_graph,
    schedule_with_offloading,
)
from repro.workloads import generate_options, price_chunk, split_batch


# ---- task graph ---------------------------------------------------------------

def diamond():
    g = TaskGraph()
    g.add_task("a", 1.0)
    g.add_task("b", 2.0, deps=["a"])
    g.add_task("c", 3.0, deps=["a"])
    g.add_task("d", 1.0, deps=["b", "c"])
    return g


def test_graph_construction_and_validation():
    g = diamond()
    assert len(g) == 4
    assert g.duration("c") == 3.0
    with pytest.raises(ValueError):
        g.add_task("a", 1.0)  # duplicate
    with pytest.raises(KeyError):
        g.add_task("e", 1.0, deps=["zz"])
    with pytest.raises(ValueError):
        g.add_task("e", 0.0)


def test_levels_and_widths():
    g = diamond()
    assert g.levels() == [["a"], ["b", "c"], ["d"]]
    assert g.widths() == [1, 2, 1]


def test_self_dependency_is_rejected():
    g = diamond()
    with pytest.raises(ValueError, match="cycle"):
        g.add_task("e", 1.0, deps=["a", "e"])
    assert len(g) == 4


def test_prefix_scan_levels_are_pinned():
    # Each generation is ordered by str(task): 10-15 sort before 2.
    str_order = [0, 1, 10, 11, 12, 13, 14, 15, 2, 3, 4, 5, 6, 7, 8, 9]

    def tasks(kind, level, indices):
        return [(kind, level, i) for i in indices]

    assert prefix_scan_graph(16).levels() == [
        tasks("leaf", 0, str_order),
        tasks("up", 1, range(8)), tasks("up", 2, range(4)),
        tasks("up", 3, range(2)), tasks("up", 4, range(1)),
        tasks("down", 0, range(1)), tasks("down", 1, range(2)),
        tasks("down", 2, range(4)), tasks("down", 3, range(8)),
        tasks("down", 4, str_order),
    ]


def test_prefix_scan_width_profile():
    g = prefix_scan_graph(16)
    widths = g.widths()
    # Up-sweep narrows 16 -> 1, down-sweep widens back to 16.
    assert widths[0] == 16
    assert min(widths) == 1
    assert widths[-1] == 16
    with pytest.raises(ValueError):
        prefix_scan_graph(12)


def test_schedule_no_model_is_local_lpt():
    g = diamond()
    result = schedule_with_offloading(g, local_workers=2)
    assert result.offloaded_tasks == 0
    # Level times: 1 + 3 + 1 (b,c parallel on 2 workers).
    assert result.makespan_s == pytest.approx(5.0)
    with pytest.raises(ValueError):
        schedule_with_offloading(g, local_workers=0)


def test_schedule_offloads_wide_levels():
    g = prefix_scan_graph(32, task_duration_s=0.1)
    m = OffloadModel(t_local=0.1, t_inv=0.11, latency=0.01, bandwidth=1e9,
                     data_per_task=10_000)
    local_only = schedule_with_offloading(g, local_workers=2)
    offloaded = schedule_with_offloading(g, local_workers=2, model=m)
    assert offloaded.offloaded_tasks > 0
    assert offloaded.makespan_s < local_only.makespan_s
    # Narrow levels (width 1-2) never offload.
    widths = g.widths()
    for width, n_off in zip(widths, offloaded.per_level_offloads):
        if width <= 2:
            assert n_off == 0


# ---- live dispatcher ------------------------------------------------------------

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
    report = OffloadDispatcher(runtime, eq1_model(0.1)).run("price", price_chunk, payloads)
    assert report.plan.n_remote == 0
    assert len(report.results) == 4
    serial = np.concatenate([price_chunk(p) for p in payloads])
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
