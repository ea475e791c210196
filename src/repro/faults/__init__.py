"""Fault injection and failure recovery for the rFaaS platform model.

Two halves, one subsystem:

* **Injection** — :class:`FaultPlan` (declarative, JSON-serializable
  schedules of :class:`FaultEvent`\\ s) replayed by an
  :class:`Injector` through public hooks in the manager, fabric,
  executor, and warm pool.  See ``docs/fault_injection.md``.
* **Recovery** — :class:`RetryPolicy` (the client's attempt budget,
  backoff, deadline, and node-exclusion knobs) and
  :class:`DegradedResult` / :class:`RecoveryOutcome` (how an
  invocation actually concluded).

Plus **certification** — :func:`random_plan` draws seeded schedules
over the whole taxonomy and :func:`run_invariants` checks control-plane
invariants (no silent drops, no double grants, single primary per
epoch, monotone epochs) on a finished run; the ``certify`` sweep
(``repro certify``) combines the two.

This package never imports ``repro.rfaas.client`` at import time (the
client imports *us*).
"""

from .certify import random_plan, run_invariants
from .injector import Injector
from .plan import FaultEvent, FaultKind, FaultPlan
from .recovery import DegradedResult, RecoveryOutcome, RetryPolicy

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "Injector",
    "RetryPolicy",
    "RecoveryOutcome",
    "DegradedResult",
    "random_plan",
    "run_invariants",
]
