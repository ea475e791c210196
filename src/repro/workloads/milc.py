"""MILC: the paper's canonical memory-bandwidth-bound batch job.

MILC (lattice QCD, su3_rmd) is "known to be memory-intensive and
extremely sensitive to both memory bandwidth and network performance"
(Sec. V-C, refs [93-99]).  In the co-location experiments it is the
workload that *does* feel perturbation, especially at larger problem
sizes where its working set and bandwidth demand grow — the model below
encodes exactly that trend.
"""

from __future__ import annotations

import numpy as np

from .base import AppModel

__all__ = ["milc_model", "MILC_LATTICE_SIZES"]

GBs = 1e9
MiB = 1024**2

#: Per-rank 4-D lattice edge lengths used in the co-location studies.
MILC_LATTICE_SIZES = (8, 12, 16, 24)


def milc_model(lattice: int, gpu: bool) -> AppModel:
    """Demand model for one MILC rank on an L^4 local lattice.

    Bandwidth demand per rank grows with the lattice because the working
    set leaves cache entirely; boundness rises accordingly.  This makes
    larger MILC runs *more* sensitive to co-located memory traffic, the
    Fig. 11b observation.
    """
    if lattice < 4:
        raise ValueError("lattice must be >= 4")
    sites = lattice**4
    # ~61 KB per site for gauge links + momenta at our fidelity cap.
    working_set = float(min(sites * 600, 40 * MiB))
    membw = float(np.interp(lattice, [8, 12, 16, 24], [2.2, 2.9, 3.4, 4.0])) * GBs
    frac_membw = float(np.interp(lattice, [8, 12, 16, 24], [0.42, 0.5, 0.56, 0.62]))
    runtime = sites * 1.0e-6
    return AppModel(
        name=f"milc-l{lattice}" + ("-gpu" if gpu else ""),
        runtime_s=runtime,
        membw_per_rank=membw,
        netbw_per_rank=0.09 * GBs,
        llc_per_rank=working_set,
        frac_membw=frac_membw,
        frac_netbw=0.12,
        gpu_fraction=0.8 if gpu else 0.0,
    )
