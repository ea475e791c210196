"""Workload demand-model tests."""

import pytest

from repro.workloads import (
    AppModel,
    RODINIA_BENCHMARKS,
    lulesh_model,
    milc_model,
    nas_model,
    rodinia_benchmark,
)

GBs = 1e9


def test_appmodel_validation():
    with pytest.raises(ValueError):
        AppModel(name="x", runtime_s=0, membw_per_rank=1)
    with pytest.raises(ValueError):
        AppModel(name="x", runtime_s=1, membw_per_rank=-1)
    with pytest.raises(ValueError):
        AppModel(name="x", runtime_s=1, membw_per_rank=1, gpu_fraction=1.5)


def test_appmodel_demand_scales_with_ranks():
    m = AppModel(name="x", runtime_s=1, membw_per_rank=2 * GBs, llc_per_rank=1e6, frac_membw=0.3)
    d1, d4 = m.demand(1), m.demand(4)
    assert d4.cores == 4
    assert d4.membw == pytest.approx(4 * d1.membw)
    assert d4.llc_bytes == pytest.approx(4 * d1.llc_bytes)
    assert d4.frac_membw == d1.frac_membw
    with pytest.raises(ValueError):
        m.demand(0)


def test_nas_lookup_and_error():
    assert nas_model("cg.A").frac_membw > 0.8
    assert nas_model("ep.W").frac_membw < 0.1
    with pytest.raises(KeyError):
        nas_model("zz.Z")


def test_nas_runtimes_in_paper_band():
    """Sec. V-B: serial NAS runtimes between 0.6 and 4.2 seconds."""
    for key in ("bt.W", "cg.A", "ep.W", "lu.W"):
        assert 0.5 <= nas_model(key).runtime_s <= 4.3


def test_lulesh_compute_bound_and_size_trend():
    small, large = lulesh_model(20, gpu=False), lulesh_model(60, gpu=False)
    assert small.frac_membw < 0.5  # compute-dominated
    # Larger problems are less memory-bound (better surface/volume).
    assert large.frac_membw < small.frac_membw
    assert large.runtime_s > small.runtime_s
    with pytest.raises(ValueError):
        lulesh_model(2, gpu=False)


def test_milc_memory_bound_and_size_trend():
    small, large = milc_model(8, gpu=False), milc_model(24, gpu=False)
    assert large.frac_membw > small.frac_membw
    assert large.membw_per_rank > small.membw_per_rank
    # MILC is distinctly more memory-bound than LULESH (Sec. V-C).
    assert milc_model(16, gpu=False).frac_membw > lulesh_model(30, gpu=False).frac_membw
    with pytest.raises(ValueError):
        milc_model(2, gpu=False)


def test_gpu_variants():
    assert lulesh_model(30, gpu=True).gpu_fraction > 0.5
    assert lulesh_model(30, gpu=False).gpu_fraction == 0.0
    assert milc_model(16, gpu=True).gpu_fraction > 0.5


def test_rodinia_catalog():
    assert len(RODINIA_BENCHMARKS) >= 8
    for bench in RODINIA_BENCHMARKS.values():
        assert 0.05 < bench.runtime_s < 1.0  # "a few hundred milliseconds"
        assert bench.host.demand(1).cores == 1
    assert rodinia_benchmark("hotspot").gpu_occupancy == pytest.approx(0.7)
    with pytest.raises(KeyError):
        rodinia_benchmark("nope")
