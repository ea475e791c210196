"""Horizontally sharded control plane for million-client lease churn.

The replicated manager of :mod:`repro.controlplane` survives crashes but
still serializes every tenant through one primary.  This package shards
it: a :class:`~repro.shard.ring.HashRing` consistent-hashes tenants onto
N manager shards, each shard batches its mutations through a
:class:`~repro.shard.batch.ShardBatcher` (amortized flush cost, explicit
serialization floor), and :class:`~repro.shard.plane.ShardedControlPlane`
ties them together with cross-shard node migration on drain,
shard-targeted crash injection, and a global no-silent-drops
conservation ledger.

See ``docs/sharding.md`` for the design and the loadstorm experiment
that drives it at 1M+ synthetic clients.
"""

from .plane import ShardConfig, ShardedControlPlane
from .ring import HashRing

__all__ = [
    "HashRing",
    "ShardConfig",
    "ShardedControlPlane",
]
