"""NAS Parallel Benchmarks: demand models.

The paper uses serial NAS benchmarks (runtimes 0.6–4.2 s) as the
FaaS-like workload for the idle-node study (Table III) and the CPU
co-location study (Fig. 9) because they cover the space of compute- and
memory-bound behaviours.  Demand calibrations below follow the published
characterizations: EP is embarrassingly parallel and compute-bound, CG is
the worst-case memory-bandwidth benchmark (irregular sparse matvec), BT
and LU are mixed stencil solvers, MG and FT memory-heavy, IS bandwidth-
plus-communication bound.
"""

from __future__ import annotations

from .base import AppModel

__all__ = ["NAS_MODELS", "nas_model"]

GBs = 1e9
MiB = 1024**2

#: Demand profiles for the (benchmark, class) pairs used in the paper.
#: Runtimes are the serial runtimes quoted in Sec. V-B (0.6–4.2 s band).
NAS_MODELS: dict[str, AppModel] = {
    "bt.W": AppModel(
        name="bt.W", runtime_s=4.2,
        membw_per_rank=3.8 * GBs, llc_per_rank=8 * MiB,
        frac_membw=0.32, netbw_per_rank=0.0,
    ),
    "cg.A": AppModel(
        name="cg.A", runtime_s=0.6,
        membw_per_rank=11.5 * GBs, llc_per_rank=26 * MiB,
        frac_membw=0.88,
    ),
    "ep.W": AppModel(
        name="ep.W", runtime_s=1.4,
        membw_per_rank=0.25 * GBs, llc_per_rank=1 * MiB,
        frac_membw=0.02,
    ),
    "lu.W": AppModel(
        name="lu.W", runtime_s=3.1,
        membw_per_rank=4.2 * GBs, llc_per_rank=6 * MiB,
        frac_membw=0.35,
    ),
    "mg.W": AppModel(
        name="mg.W", runtime_s=1.0,
        membw_per_rank=7.5 * GBs, llc_per_rank=14 * MiB,
        frac_membw=0.6,
    ),
    "ft.W": AppModel(
        name="ft.W", runtime_s=1.8,
        membw_per_rank=6.0 * GBs, llc_per_rank=18 * MiB,
        frac_membw=0.5,
    ),
    "is.W": AppModel(
        name="is.W", runtime_s=0.8,
        membw_per_rank=8.0 * GBs, llc_per_rank=16 * MiB,
        frac_membw=0.65,
    ),
    "sp.W": AppModel(
        name="sp.W", runtime_s=3.6,
        membw_per_rank=4.5 * GBs, llc_per_rank=7 * MiB,
        frac_membw=0.38,
    ),
}


def nas_model(key: str) -> AppModel:
    """Look up a NAS demand model, e.g. ``nas_model("cg.A")``."""
    try:
        return NAS_MODELS[key]
    except KeyError:
        raise KeyError(
            f"unknown NAS benchmark {key!r}; available: {sorted(NAS_MODELS)}"
        ) from None
