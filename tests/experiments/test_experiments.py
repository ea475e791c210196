"""Paper-shape assertions for every figure and table sweep.

These tests pin the *qualitative* results the paper reports — who wins,
by roughly what factor, where the crossovers fall — so a regression in
any substrate that would change a paper-level conclusion fails loudly.
"""

import dataclasses
import pathlib
import re

import pytest

from repro.experiments import fig12_gpu_sharing, tab03_idle_node
from repro.offload import OffloadModel
from repro.sweep import run_sweep

MiB = 1024**2


# ---- Fig. 1 ------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig01_point():
    (point,) = run_sweep("fig01", nodes=32, hours=6.0, seed=1).points
    return point


def test_fig01_high_utilization_with_small_idle_pool(fig01_point):
    # Allocated fraction high (paper: 80-94%+); some idle nodes exist.
    assert fig01_point.median_allocated_fraction > 0.7
    assert fig01_point.median_idle_nodes >= 0


def test_fig01_memory_overprovisioned(fig01_point):
    # Paper: average node memory usage can be as little as ~24%.
    assert fig01_point.memory_used_fraction_mean < 0.45
    assert fig01_point.memory_used_fraction_mean < fig01_point.memory_allocated_fraction_mean


def test_fig01_idle_periods_short(fig01_point):
    # Paper: 70-80% of idle events < 10 minutes.
    assert fig01_point.sampled_fraction_under_10min > 0.6
    assert fig01_point.sampled_median_s < 600
    assert fig01_point.exact_count >= fig01_point.sampled_count


def test_fig01_report_renders():
    text = run_sweep("fig01", nodes=16, hours=2.0).format_report()
    assert "Fig. 1" in text and "idle" in text


# ---- Fig. 7 -----------------------------------------------------------------

@pytest.fixture(scope="module")
def fig07_points():
    return run_sweep("fig07", sizes=(1, 1024, 256 * 1024), samples=60, seed=2).points


def test_fig07_hot_tracks_fabric(fig07_points):
    for point in fig07_points:
        assert point.hot_p50_s < point.fabric_p50_s + 2e-6  # within ~2 us


def test_fig07_warm_pays_wakeup(fig07_points):
    for point in fig07_points:
        assert point.warm_p50_s > point.hot_p50_s + 5e-6
        assert point.warm_p95_s > point.warm_p50_s  # long wakeup tail


def test_fig07_single_digit_microseconds_small_messages(fig07_points):
    for small in fig07_points[:2]:  # 1 B and 1 KiB
        assert small.hot_p50_s < 10e-6  # paper: single-digit us


def test_fig07_bandwidth_bound_at_large_sizes(fig07_points):
    big = fig07_points[-1]
    # At 256 KiB the transfer dominates: hot and warm converge within 2x.
    assert big.warm_p50_s < 2 * big.hot_p50_s


def test_fig07_row_does_not_depend_on_the_other_planned_sizes():
    (alone,) = run_sweep("fig07", sizes=(1024,), samples=60, seed=2).points
    _, after_one_byte = run_sweep("fig07", sizes=(1, 1024), samples=60, seed=2).points
    assert alone == after_one_byte


# ---- Fig. 8 ------------------------------------------------------------------

def test_fig08_crossover_shape():
    result = run_sweep("fig08")
    small = [p for p in result.points if p.size_bytes <= 1 * MiB and p.readers == 1]
    assert all(p.minio_wins_latency for p in small)
    big = [p for p in result.points if p.size_bytes >= 256 * MiB and p.readers >= 16]
    assert all(p.lustre_throughput > p.minio_throughput for p in big)
    assert 0 < result.meta["crossover_bytes_single_reader"] < 1 << 30
    assert "Fig. 8" in result.format_report()


# ---- Table III ------------------------------------------------------------------

def test_tab03_matches_paper_shape():
    result = run_sweep("tab03")
    thr = {}
    for p in result.points:
        thr.setdefault(p.app, {})[p.count] = p.throughput
    overhead = {p.app: p.overhead for p in result.points}
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
    assert 0.08 < overhead["cg.A"] < 0.2
    assert overhead["ep.W"] < 0.01
    report = result.format_report()
    # Cells the paper leaves blank (LU at 16 and 32) print as a dash.
    assert "Table III" in report and "nan" not in report
    assert [p.paper for p in result.points if p.app == "lu.W" and p.count in (16, 32)] \
        == [None, None]


# ---- Fig. 9 ---------------------------------------------------------------------

def test_fig09_batch_impact_negligible():
    result = run_sweep("fig09", milc_sizes=())
    for cell in result.points:
        # Paper: LULESH slowdown within noise; CG is the worst partner.
        assert cell.batch_slowdown < 1.10
        if cell.nas != "cg.A":
            assert cell.batch_slowdown < 1.03
        # FaaS side suffers more than the batch job.
        assert cell.faas_slowdown >= cell.batch_slowdown - 1e-9


def test_fig09_discount_offsets_slowdown():
    result = run_sweep("fig09", milc_sizes=())
    non_cg = [c for c in result.points if c.nas != "cg.A"]
    assert all(c.net_saving > 0 for c in non_cg)
    assert "Fig. 9" in result.format_report()


# ---- Fig. 10 -------------------------------------------------------------------

def test_fig10_colocation_wins():
    result = run_sweep("fig10")
    for row in result.points:
        assert row.colocated > row.partial > row.exclusive
    # Paper: up to ~52% improvement.
    assert 0.25 < max(p.improvement_vs_exclusive for p in result.points) < 0.8
    assert "Fig. 10" in result.format_report()


# ---- Fig. 11 ---------------------------------------------------------------------

def test_fig11_lulesh_insensitive_milc_sensitive():
    result = run_sweep("fig11")
    lulesh = [p for p in result.points if p.app == "lulesh"]
    milc = [p for p in result.points if p.app == "milc"]
    assert all(p.slowdown < 1.02 for p in lulesh)  # paper: unaffected
    worst_milc = max(p.slowdown for p in milc)
    worst_lulesh = max(p.slowdown for p in lulesh)
    assert worst_milc > worst_lulesh
    # Larger MILC problems are at least as sensitive (at max traffic).
    at_full = {p.problem_size: p.slowdown for p in milc if p.interval_s == 0.0}
    assert at_full[24] >= at_full[16] - 1e-9
    assert "Fig. 11" in result.format_report()


def test_fig11_traffic_reaches_10gbs():
    result = run_sweep("fig11")
    assert max(p.traffic_bw for p in result.points) > 9e9  # ~10 GB/s


# ---- Fig. 12 --------------------------------------------------------------------

def test_fig12_low_overhead_with_small_size_outliers():
    result = run_sweep("fig12")
    slowdowns = [(c.batch_app, c.problem_size, c.batch_slowdown) for c in result.points]
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
    assert result.meta["cost_discount"] == pytest.approx(0.25)
    assert "Fig. 12" in result.format_report()


def test_fig12_platform_measurement_is_numerically_identical():
    """The device share measured on a live GpuDevice (through the
    Platform facade) reproduces the analytic occupancy-overload model
    bit-for-bit: kernel time-sharing dilates the batch kernel by
    ``max(1, occ)``, and ``max(1, occ) - 1 == max(0, occ - 1)``."""
    analytic = run_sweep("fig12")
    measured = fig12_gpu_sharing.run_platform()
    assert measured == analytic.points


# ---- Fig. 13 ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig13_points():
    return run_sweep(
        "fig13", workers=2, options=60_000, iterations=2, particles=(2_000,), seed=5
    ).points


def test_fig13_results_numerically_correct(fig13_points):
    assert all(p.checks_passed for p in fig13_points)


def test_fig13_eq1_calibration_sane(fig13_points):
    for point in fig13_points:
        assert point.t_local > 0
        assert point.t_inv > 0
        assert point.n_local_min >= 1
        assert point.predicted_doubled_speedup >= 1.0
        assert point.serial_s > 0
        if point.host_cores > point.workers and point.predicted_doubled_speedup > 1:
            # Enough cores and work offloaded: the doubled variant wins on
            # the wall clock (paper: up to ~2x until the network saturates).
            assert point.doubled_s < point.serial_s
    # The Fig.-13a knee on the measured model: on a link that sustains
    # what ~8 executors consume, speedup never drops as remote workers
    # are added, and flattens once the link saturates.
    first = fig13_points[0]
    model = OffloadModel(**{f.name: getattr(first, f.name)
                            for f in dataclasses.fields(OffloadModel)})
    assert model.n_local_min == first.n_local_min
    constrained = dataclasses.replace(
        model, bandwidth=8.0 / model.t_inv * model.data_per_task
    )
    speedups = [
        constrained.speedup(512, local_workers=1, remote_workers=workers)
        for workers in (1, 2, 4, 8, 16, 32, 64)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] - speedups[-2] < 0.5


def test_fig13_report_renders():
    text = run_sweep("fig13", workers=1, options=2_000, iterations=1,
                     particles=(500,)).format_report()
    assert "Fig. 13" in text and "T_local" in text


def test_tab03_platform_cross_validates_model():
    """Throughput measured through the live platform stack agrees with
    the analytic interference model (same contention engine, different
    code path: leases, executors, slots, load registry)."""
    counts = (1, 4, 16)
    measured = tab03_idle_node.run_platform("cg.A", counts=counts, window_s=40.0)
    predicted = {p.count: p.throughput
                 for p in run_sweep("tab03", benchmarks=("cg.A",), counts=counts).points}
    for n in counts:
        assert measured[n] == pytest.approx(predicted[n], rel=0.25), (
            f"{n} streams: measured {measured[n]:.2f} vs model {predicted[n]:.2f}"
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
