"""LULESH: the paper's canonical compute-bound batch job.

LULESH (Livermore Unstructured Lagrangian Explicit Shock Hydrodynamics)
motivates software disaggregation twice in the paper: it must run on a
*cubic* number of MPI ranks, so node core counts rarely divide evenly
(Sec. III-B), and its CPU-only main version leaves GPUs idle (Sec. III-D).
Its demand profile is compute-dominated with modest memory traffic, which
is why co-location barely perturbs it (Figs. 9, 11, 12).
"""

from __future__ import annotations

import numpy as np

from .base import AppModel

__all__ = ["lulesh_model", "LULESH_PROBLEM_SIZES"]

GBs = 1e9
MiB = 1024**2

#: Per-rank problem sizes (s^3 elements per rank) used in Fig. 9/11/12.
LULESH_PROBLEM_SIZES = (20, 30, 45, 60)


def lulesh_model(problem_size: int, gpu: bool) -> AppModel:
    """Demand model for one LULESH rank at edge length ``problem_size``.

    Larger problems shift time toward compute (better surface-to-volume),
    so memory-boundness *decreases* with size — consistent with the paper
    observing the only co-location outliers at the smallest size (Fig. 12).
    """
    if problem_size < 4:
        raise ValueError("problem_size must be >= 4")
    elements = problem_size**3
    # ~180 flops and ~115 bytes of traffic per element-iteration; the
    # constant factors only set the time scale, ratios set boundness.
    runtime = elements * 180 / 2.0e9
    frac_membw = float(np.clip(0.30 - 0.002 * (problem_size - 20), 0.1, 0.35))
    working_set = min(elements * 96, 24 * MiB)  # caps at cache-unfriendly size
    return AppModel(
        name=f"lulesh-s{problem_size}" + ("-gpu" if gpu else ""),
        runtime_s=runtime,
        membw_per_rank=1.3 * GBs,
        netbw_per_rank=0.04 * GBs,
        llc_per_rank=float(working_set),
        frac_membw=frac_membw,
        frac_netbw=0.05,
        gpu_fraction=0.85 if gpu else 0.0,
    )
