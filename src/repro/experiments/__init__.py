"""Experiment harness: one module per paper table/figure, plus sweeps.

Each figure/table module (``fig*``, ``tab*``) exposes ``run(...) ->
result`` and ``format_report(result)``; the benchmark suite
(``benchmarks/``) executes them and prints the same rows/series the
paper reports (``repro run <name>``).  See DESIGN.md for the experiment
index.

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

__all__ = [
    "base",
    "autoscale_sweep",
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
