"""Experiment harness: one module per paper table/figure, plus sweeps.

Each figure/table module (``fig*``, ``tab*``) exposes ``run(...) ->
result`` and ``format_report(result)``; ``repro run <name>`` prints the
same rows/series the paper reports, and
``tests/experiments/test_experiments.py`` asserts their paper-level
shape.  See DESIGN.md §4 for the experiment index.

Each ``*_sweep`` module is data for the :mod:`repro.experiments.base`
protocol: ``plan_scenarios(...)``, a module-level ``scenario(params,
seed)``, a point dataclass, and a report column spec, registered as a
:class:`~repro.experiments.base.Sweep`.  :func:`repro.sweep.run_sweep`
runs any of them — serially or across a process pool — into one
:class:`~repro.experiments.base.SweepResult` (``repro sweep <name>
--jobs N``).
"""

from . import (
    base,
    autoscale_sweep,
    chaos_sweep,
    fig01_utilization,
    fig07_latency,
    fig08_storage,
    fig09_cpu_sharing,
    fig10_utilization,
    fig11_memory_sharing,
    fig12_gpu_sharing,
    fig13_offloading,
    gpu_scaling_sweep,
    loadstorm_sweep,
    manager_failover_sweep,
    memdurability_sweep,
    tab03_idle_node,
)
from . import certify_sweep  # after the sweeps it composes

__all__ = [
    "base",
    "autoscale_sweep",
    "certify_sweep",
    "chaos_sweep",
    "gpu_scaling_sweep",
    "loadstorm_sweep",
    "manager_failover_sweep",
    "memdurability_sweep",
    "fig01_utilization",
    "fig07_latency",
    "fig08_storage",
    "fig09_cpu_sharing",
    "fig10_utilization",
    "fig11_memory_sharing",
    "fig12_gpu_sharing",
    "fig13_offloading",
    "tab03_idle_node",
]
