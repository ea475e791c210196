"""Experiment harness: the paper's tables and figures, and the repo's sweeps.

Every module here is data for the :mod:`repro.experiments.base`
protocol: ``plan_scenarios(...)``, a module-level ``scenario(params,
seed)``, a point dataclass, and a report column spec, declared as its
module-level ``SWEEP`` and named in :data:`~repro.experiments.base.SWEEPS`.
The figure and table modules (``fig*``, ``tab*``) print the rows the
paper reports (``repro sweep fig07``; ``repro run all`` runs every
one), and ``tests/experiments/test_experiments.py`` asserts their
paper-level shape (DESIGN.md §4 is the index).  The ``*_sweep``
modules are the repo's own experiments beyond the paper.
:func:`repro.sweep.run_sweep` runs any of them — serially or across a
process pool — into one :class:`~repro.experiments.base.SweepResult`
(``repro sweep <name> --jobs N``).

The package imports nothing but :mod:`~repro.experiments.base`: each
figure and sweep module is imported on use, so a process loads only
the stack of what it runs.
"""

from . import base

__all__ = ["base"]
