"""Open-loop, trace-driven workload synthesis at million-client scale.

The load engine answers the question PR 10's sharded control plane
exists for: *what does fine-grained lease churn from a million tenants
look like, and does the control plane keep up?*  It is deliberately
**open loop** — arrivals come from a seeded stochastic process that
does not slow down when the platform backs up, so queueing at a
saturated shard shows up as tail latency instead of being hidden by a
polite closed-loop driver (the distinction Jindal et al.'s FDN
evaluation and the kaas-autoscaling ``load.py`` generator both insist
on).

Three pieces, all plain picklable data:

* :mod:`~repro.loadgen.arrivals` — when requests arrive:
  :class:`PoissonArrivals` (memoryless steady state) and
  :class:`MmppArrivals` (Markov-modulated bursts: a seeded state chain
  switches the instantaneous rate, producing the flash-crowd /
  quiet-period alternation real FaaS traces show).
* :mod:`~repro.loadgen.tenants` — who sends them: :class:`TenantMix`
  draws tenant *indices* from a folded Zipf over a population of a
  million-plus synthetic clients.  The population is a number, not a
  list: memory scales with arrivals observed, never with clients
  modeled.
* :mod:`~repro.loadgen.trace` — the product: :class:`LoadSpec` (the
  seeded recipe) and :class:`WorkloadTrace` (the materialized arrival
  trace), with byte-identical JSON round-trips and pickle support so
  traces survive the parallel sweep fabric and CLI hand-offs.

Determinism contract: ``synthesize(spec)`` is a pure function of the
spec (seed included) — same spec, same trace, in any interpreter, in
any worker process (``tests/loadgen/test_determinism.py`` asserts this
across fresh interpreters).
"""

from .arrivals import MmppArrivals, PoissonArrivals
from .tenants import TenantMix
from .trace import LoadSpec, WorkloadTrace, synthesize

__all__ = [
    "PoissonArrivals",
    "MmppArrivals",
    "TenantMix",
    "LoadSpec",
    "WorkloadTrace",
    "synthesize",
]
