"""Trace-driven load at million-client scale, and the drivers that apply it.

Load is **open loop** where the question is whether the control plane
keeps up: arrivals do not slow down when the platform backs up, so a
saturated shard shows up as tail latency instead of being hidden by a
polite closed-loop driver (as Jindal et al.'s FDN evaluation insists).

Four pieces:

* :mod:`~repro.loadgen.arrivals` — when requests arrive:
  :class:`PoissonArrivals` (steady state) and :class:`MmppArrivals` (a
  seeded state chain switches between flash crowds and quiet periods);
* :mod:`~repro.loadgen.tenants` — who sends them: :class:`TenantMix`
  draws tenant *indices* from a folded Zipf over a population that is a
  number, not a list, so memory scales with arrivals, not clients;
* :mod:`~repro.loadgen.trace` — :class:`LoadSpec` (the seeded recipe)
  and :class:`WorkloadTrace` (the arrivals).  ``synthesize(spec)`` is
  a pure function of the spec, in any interpreter or worker process;
* :mod:`~repro.loadgen.drivers` — :func:`open_loop` submits at each
  arrival time and :func:`closed_loop` issues the next call when the
  last completes.  They are engine timer chains that keep no reference
  to what they submitted.  Their first step is a zero-delay timer armed
  at creation, the slot a new process's first resume takes; a due
  arrival is submitted inline, a later one fires where a generator's
  ``timeout`` would resume; a completion callback takes the slot of a
  process yielding the same event.  So a driver replays a generator
  driver's timeline, minus the process's exit event.
"""

from .arrivals import MmppArrivals, PoissonArrivals
from .drivers import closed_loop, open_loop
from .tenants import TenantMix
from .trace import LoadSpec, WorkloadTrace, synthesize

__all__ = [
    "PoissonArrivals",
    "MmppArrivals",
    "TenantMix",
    "LoadSpec",
    "WorkloadTrace",
    "synthesize",
    "open_loop",
    "closed_loop",
]
