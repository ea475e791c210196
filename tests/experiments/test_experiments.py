"""Paper-shape assertions for every experiment module.

These tests pin the *qualitative* results the paper reports — who wins,
by roughly what factor, where the crossovers fall — so a regression in
any substrate that would change a paper-level conclusion fails loudly.
"""

import pathlib
import re

import numpy as np
import pytest

from repro.experiments import (
    fig01_utilization,
    fig07_latency,
    fig08_storage,
    fig09_cpu_sharing,
    fig10_utilization,
    fig11_memory_sharing,
    fig12_gpu_sharing,
    fig13_offloading,
    tab03_idle_node,
)

MiB = 1024**2


# ---- Fig. 1 ------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig01_result():
    return fig01_utilization.run(nodes=32, hours=6.0, seed=1)


def test_fig01_high_utilization_with_small_idle_pool(fig01_result):
    summary = fig01_result.summary
    # Allocated fraction high (paper: 80-94%+); some idle nodes exist.
    assert summary["median_allocated_fraction"] > 0.7
    assert summary["median_idle_nodes"] >= 0


def test_fig01_memory_overprovisioned(fig01_result):
    # Paper: average node memory usage can be as little as ~24%.
    assert fig01_result.memory_used_fraction_mean < 0.45
    assert fig01_result.memory_used_fraction_mean < fig01_result.memory_allocated_fraction_mean


def test_fig01_idle_periods_short(fig01_result):
    # Paper: 70-80% of idle events < 10 minutes.
    assert fig01_result.sampled_idle.fraction_under_10min > 0.6
    assert fig01_result.sampled_idle.median_s < 600
    assert fig01_result.exact_idle.count >= fig01_result.sampled_idle.count


def test_fig01_report_renders(fig01_result):
    text = fig01_utilization.format_report(fig01_result)
    assert "Fig. 1" in text and "idle" in text


# ---- Fig. 7 -----------------------------------------------------------------

@pytest.fixture(scope="module")
def fig07_result():
    return fig07_latency.run(sizes=(1, 1024, 256 * 1024), samples=60, seed=2)


def test_fig07_hot_tracks_fabric(fig07_result):
    for hot, fab in zip(fig07_result.hot, fig07_result.fabric):
        assert hot.median_s < fab.median_s + 2e-6  # within ~2 us


def test_fig07_warm_pays_wakeup(fig07_result):
    for warm, hot in zip(fig07_result.warm, fig07_result.hot):
        assert warm.median_s > hot.median_s + 5e-6
        assert warm.p95_s > warm.median_s  # long wakeup tail


def test_fig07_single_digit_microseconds_small_messages(fig07_result):
    for small in fig07_result.hot[:2]:  # 1 B and 1 KiB
        assert small.median_s < 10e-6  # paper: single-digit us


def test_fig07_bandwidth_bound_at_large_sizes(fig07_result):
    big_hot = fig07_result.hot[-1]
    big_warm = fig07_result.warm[-1]
    # At 256 KiB the transfer dominates: hot and warm converge within 2x.
    assert big_warm.median_s < 2 * big_hot.median_s
    assert fig07_latency.format_report(fig07_result)


# ---- Fig. 8 ------------------------------------------------------------------

def test_fig08_crossover_shape():
    result = fig08_storage.run()
    small = [p for p in result.points if p.size_bytes <= 1 * MiB and p.readers == 1]
    assert all(p.minio_wins_latency for p in small)
    big = [p for p in result.points if p.size_bytes >= 256 * MiB and p.readers >= 16]
    assert all(p.lustre_throughput > p.minio_throughput for p in big)
    assert 0 < result.crossover_bytes_single_reader < 1 << 30
    assert "Fig. 8" in fig08_storage.format_report(result)


# ---- Table III ------------------------------------------------------------------

def test_tab03_matches_paper_shape():
    result = tab03_idle_node.run()
    thr = result.throughput
    # EP near-linear at 32 (paper 27.2).
    assert 24 < thr["ep.W"][32] < 31
    # CG saturates one socket's DRAM bandwidth at 16 (paper 6.0) and
    # jumps once instances spill onto the second socket (paper 11.4 at 32).
    assert thr["cg.A"][16] < 0.55 * thr["ep.W"][16]
    assert thr["cg.A"][16] < 9  # paper: 6.0
    assert thr["cg.A"][32] > 1.4 * thr["cg.A"][16]  # paper: 11.4 / 6.0 = 1.9
    # BT/LU in the 70-85% efficiency band at 24.
    for key in ("bt.W", "lu.W"):
        assert 0.6 < thr[key][24] / 24 < 0.95
    # rFaaS overhead: largest for CG (paper ~13%), small for EP (<1%).
    assert 0.08 < result.overhead["cg.A"] < 0.2
    assert result.overhead["ep.W"] < 0.01
    report = tab03_idle_node.format_report(result)
    # Cells the paper leaves blank (LU at 16 and 32) print as a dash.
    assert "Table III" in report and "nan" not in report


# ---- Fig. 9 ---------------------------------------------------------------------

def test_fig09_batch_impact_negligible():
    result = fig09_cpu_sharing.run(milc_sizes=())
    for cell in result.cells:
        # Paper: LULESH slowdown within noise; CG is the worst partner.
        assert cell.batch_slowdown < 1.10
        if cell.nas != "cg.A":
            assert cell.batch_slowdown < 1.03
        # FaaS side suffers more than the batch job.
        assert cell.faas_slowdown >= cell.batch_slowdown - 1e-9


def test_fig09_discount_offsets_slowdown():
    result = fig09_cpu_sharing.run(milc_sizes=())
    non_cg = [c for c in result.cells if c.nas != "cg.A"]
    assert all(c.net_saving > 0 for c in non_cg)
    assert "Fig. 9" in fig09_cpu_sharing.format_report(result)


# ---- Fig. 10 -------------------------------------------------------------------

def test_fig10_colocation_wins():
    result = fig10_utilization.run()
    for row in result.rows:
        assert row.colocated > row.partial > row.exclusive
    # Paper: up to ~52% improvement.
    assert 0.25 < result.max_improvement < 0.8
    assert "Fig. 10" in fig10_utilization.format_report(result)


# ---- Fig. 11 ---------------------------------------------------------------------

def test_fig11_lulesh_insensitive_milc_sensitive():
    result = fig11_memory_sharing.run()
    lulesh = [p for p in result.points if p.app == "lulesh"]
    milc = [p for p in result.points if p.app == "milc"]
    assert all(p.slowdown < 1.02 for p in lulesh)  # paper: unaffected
    worst_milc = max(p.slowdown for p in milc)
    worst_lulesh = max(p.slowdown for p in lulesh)
    assert worst_milc > worst_lulesh
    # Larger MILC problems are at least as sensitive (at max traffic).
    at_full = {p.problem_size: p.slowdown for p in milc if p.interval_s == 0.0}
    assert at_full[24] >= at_full[16] - 1e-9
    assert "Fig. 11" in fig11_memory_sharing.format_report(result)


def test_fig11_traffic_reaches_10gbs():
    result = fig11_memory_sharing.run()
    assert max(p.traffic_bw for p in result.points) > 9e9  # ~10 GB/s


# ---- Fig. 12 --------------------------------------------------------------------

def test_fig12_low_overhead_with_small_size_outliers():
    result = fig12_gpu_sharing.run()
    slowdowns = [(c.batch_app, c.problem_size, c.batch_slowdown) for c in result.cells]
    over_5pct = [s for s in slowdowns if s[2] > 1.05]
    # Paper: overhead < 5% overall, with outliers (6.1%, 10.5%) at the
    # smallest LULESH size and "slightly higher" small-size MILC overheads.
    assert over_5pct, "expected outliers at small problem sizes"
    assert len(over_5pct) <= len(slowdowns) // 4  # outliers, not the norm
    smallest = {"lulesh": 20, "milc": 8}
    worst = max(slowdowns, key=lambda s: s[2])
    assert worst[1] == smallest[worst[0]]
    assert 1.05 < worst[2] < 1.15  # paper's worst outlier: 10.5%
    # Largest problem sizes stay in the <5% regime (lavamd excepted for
    # MILC's mid size, which the paper calls "slightly higher").
    largest = [s for s in slowdowns if s[1] in (45, 24)]
    assert all(s[2] <= 1.055 for s in largest)
    assert result.cost_discount == pytest.approx(0.25)
    assert "Fig. 12" in fig12_gpu_sharing.format_report(result)


def test_fig12_platform_measurement_is_numerically_identical():
    """The device share measured on a live GpuDevice (through the
    Platform facade) reproduces the analytic occupancy-overload model
    bit-for-bit: kernel time-sharing dilates the batch kernel by
    ``max(1, occ)``, and ``max(1, occ) - 1 == max(0, occ - 1)``."""
    analytic = fig12_gpu_sharing.run()
    measured = fig12_gpu_sharing.run_platform()
    assert measured.cost_discount == analytic.cost_discount
    assert measured.cells == analytic.cells


# ---- Fig. 13 ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig13_results():
    return fig13_offloading.run(
        workers=2, options=60_000, iterations=2, particles=(2_000,), seed=5
    )


def test_fig13_results_numerically_correct(fig13_results):
    assert all(r.checks_passed for r in fig13_results)


def test_fig13_eq1_calibration_sane(fig13_results):
    for result in fig13_results:
        assert result.model.t_local > 0
        assert result.model.t_inv > 0
        assert result.model.n_local_min >= 1
        assert result.predicted_doubled_speedup >= 1.0
        serial = result.timing("serial").wall_s
        assert serial > 0
        if result.host_cores > result.workers and result.predicted_doubled_speedup > 1:
            # Enough cores and work offloaded: the doubled variant wins on
            # the wall clock (paper: up to ~2x until the network saturates).
            assert result.timing("doubled").wall_s < serial
    # The Fig.-13a knee on the measured model: speedup never drops as
    # remote workers are added, and flattens once the link saturates.
    sweep = fig13_offloading.saturation_sweep(fig13_results[0].model)
    speedups = [speedup for _, speedup, _ in sweep]
    assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] - speedups[-2] < 0.5


def test_fig13_report_renders(fig13_results):
    text = fig13_offloading.format_report(fig13_results)
    assert "Fig. 13" in text and "Eq. 1" in text


def test_tab03_platform_cross_validates_model():
    """Throughput measured through the live platform stack agrees with
    the analytic interference model (same contention engine, different
    code path: leases, executors, slots, load registry)."""
    from repro.cluster import DAINT_MC
    from repro.interference import InterferenceModel
    from repro.workloads import nas_model

    counts = (1, 4, 16)
    measured = tab03_idle_node.run_platform("cg.A", counts=counts, window_s=40.0)
    model = InterferenceModel()
    demand = nas_model("cg.A").demand(1)
    for n in counts:
        predicted = model.relative_throughput(DAINT_MC, demand, n)
        assert measured[n] == pytest.approx(predicted, rel=0.25), (
            f"{n} streams: measured {measured[n]:.2f} vs model {predicted:.2f}"
        )
    # The saturation shape survives the full stack.
    assert measured[16] < 0.6 * 16


# ---- Experiment index -------------------------------------------------------------

def test_experiment_index_names_its_tier1_tests():
    """Every row of DESIGN.md's experiment index names the tier-1 tests
    that pin it, so the index cannot drift from the suite."""
    root = pathlib.Path(__file__).resolve().parents[2]
    design = (root / "DESIGN.md").read_text(encoding="utf-8")
    index = design.split("\n## 4. ", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in index.splitlines() if line.startswith("|")][2:]
    assert len(rows) >= 16
    for row in rows:
        target = row.strip(" |").split(" | ")[-1]
        # Only tier-1 tests: no out-of-suite scripts or bare directories.
        cited = re.findall(r"`([^`]*)`", target)
        assert cited and all(c.startswith("tests/") for c in cited), row
        refs = re.findall(r"(tests/[\w/]+\.py)::(test_\w+)", target)
        assert len(refs) == len(cited), f"name a test function in: {row}"
        for path, name in refs:
            source = (root / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", source, re.M), f"{path}::{name}"
