"""Leases: rFaaS's ephemeral resource allocation mechanism.

rFaaS "allows consecutive invocations to execute on the same resource
allocated with a temporary lease" (Sec. IV).  When the batch system wants
a node back, the executor "cancels existing leases, notifying the client
libraries to redirect further requests to a new lease" (Sec. III-A) —
that notification is the ``on_cancel`` callback here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["LeaseState", "Lease"]


class LeaseState(enum.Enum):
    ACTIVE = "active"
    CANCELLED = "cancelled"     # platform reclaimed the resources
    RELEASED = "released"       # client returned the lease


@dataclass
class Lease:
    """A client's temporary claim on executor resources."""

    client: str
    node_name: str
    cores: int
    # The manager passes env.next_id("rfaas-lease"): ids are per-environment.
    lease_id: int = field(kw_only=True)
    # Control-plane term the grant was fenced under.  0 = granted by a
    # bare (unreplicated) ResourceManager; the replicated control plane
    # (repro.controlplane) stamps its current epoch so takeover
    # reconciliation can tell surviving grants from stale ones.
    epoch: int = 0
    state: LeaseState = LeaseState.ACTIVE
    on_cancel: list[Callable[["Lease"], None]] = field(default_factory=list)

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("a lease holds at least one core")

    @property
    def active(self) -> bool:
        return self.state == LeaseState.ACTIVE

    def cancel(self) -> None:
        """Platform-side revocation; notifies the client library."""
        if self.state != LeaseState.ACTIVE:
            return
        self.state = LeaseState.CANCELLED
        for callback in list(self.on_cancel):
            callback(self)

    def release(self) -> None:
        """Client-side voluntary return."""
        if self.state != LeaseState.ACTIVE:
            return
        self.state = LeaseState.RELEASED
