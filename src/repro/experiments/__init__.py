"""Experiment harness: one module per paper table/figure, plus sweeps.

Each figure/table module (``fig*``, ``tab*``) exposes ``run(...) ->
result`` and ``format_report(result)``; ``repro run <name>`` prints the
same rows/series the paper reports, and
``tests/experiments/test_experiments.py`` asserts their paper-level
shape.  See DESIGN.md §4 for the experiment index.

Each ``*_sweep`` module is data for the :mod:`repro.experiments.base`
protocol: ``plan_scenarios(...)``, a module-level ``scenario(params,
seed)``, a point dataclass, and a report column spec, declared as its
module-level ``SWEEP`` and named in :data:`~repro.experiments.base.SWEEPS`.
:func:`repro.sweep.run_sweep` runs any of them — serially or across a
process pool — into one :class:`~repro.experiments.base.SweepResult`
(``repro sweep <name> --jobs N``).

The package imports nothing but :mod:`~repro.experiments.base`: each
figure and sweep module is imported on use, so a process loads only
the stack of what it runs.
"""

from . import base

__all__ = ["base"]
