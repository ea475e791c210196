"""The rFaaS error taxonomy.

Every failure the platform reports to user code derives from
:class:`RFaaSError`, so callers can write one ``except`` arm for
"the platform failed me" and still discriminate when they care::

    RFaaSError(RuntimeError)
    ├── NoCapacityError       no registered node can satisfy a lease
    ├── TerminationError      invocation aborted: executor reclaimed
    │                         (carries ``cause``)
    ├── LeaseRevokedError     a lease was cancelled by the platform
    │                         before/while the client was using it
    │   └── GpuLeaseRevokedError
    │                         a fractional GPU lease (occupancy + device
    │                         memory share) was revoked — the device was
    │                         lost or reclaimed; queued/batched work
    │                         replays on a surviving device (carries
    │                         ``device`` + ``cause``)
    ├── InvocationTimeout     the client-side invocation deadline
    │                         (``RetryPolicy.timeout_s``) elapsed
    ├── AdmissionRejected     the capacity plane's admission gate said
    │                         no before any resources were touched
    │                         (carries ``reason`` + ``tenant``)
    ├── ManagerUnavailableError
    │                         the resource manager has no reachable
    │                         primary replica (it crashed, or the
    │                         client's side of a partition): no lease
    │                         can be granted *right now*, but a standby
    │                         takeover is coming — retryable with
    │                         backoff (carries ``epoch`` + ``cause``)
    ├── StaleEpochError       a fenced ex-primary tried to mutate
    │                         control-plane state after a failover
    │                         bumped the epoch past it; the operation
    │                         was rejected before touching anything
    │                         (carries ``epoch`` + ``current_epoch``)
    ├── MemoryServiceUnavailable
    │                         a memory-service buffer (or a replica
    │                         quorum) is gone: reclaimed, crashed, or
    │                         unreachable (carries ``node_name`` +
    │                         ``cause``) — retryable against another
    │                         replica when one exists
    └── DataLossError         every replica of a memory-service chunk is
                              gone or fails checksum verification; the
                              bytes are unrecoverable (carries ``chunk``
                              + ``replicas_lost``)

``NoCapacityError`` and ``TerminationError`` predate this module and are
re-exported from their historical homes (``repro.rfaas.manager`` and
``repro.rfaas.executor``) so existing imports keep working.

Semantics under recovery (see :mod:`repro.faults.recovery`): the client
treats ``TerminationError`` and ``LeaseRevokedError`` as *retryable* —
the work can redirect to a fresh lease on another node — while
``NoCapacityError`` and ``InvocationTimeout`` terminate the attempt loop
(there is nowhere else to go / no time left to go there).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "RFaaSError",
    "NoCapacityError",
    "TerminationError",
    "LeaseRevokedError",
    "GpuLeaseRevokedError",
    "InvocationTimeout",
    "AdmissionRejected",
    "ManagerUnavailableError",
    "StaleEpochError",
    "MemoryServiceUnavailable",
    "DataLossError",
]


class RFaaSError(RuntimeError):
    """Base class of every rFaaS platform error."""


class NoCapacityError(RFaaSError):
    """No registered node can satisfy the lease request."""


class TerminationError(RFaaSError):
    """Invocation aborted because the executor was reclaimed.

    The client library restarts it on its redirect target.  ``cause``
    names what interrupted the invocation (e.g. ``"reclaim"``, or the
    fault kind injected by :class:`repro.faults.Injector`).
    """

    def __init__(self, message: str, cause: Any = "reclaim"):
        super().__init__(message)
        self.cause = cause


class LeaseRevokedError(RFaaSError):
    """The platform cancelled a lease the client was still setting up or
    using; the client library redirects to a fresh lease elsewhere."""

    def __init__(self, message: str, node_name: Optional[str] = None):
        super().__init__(message)
        self.node_name = node_name


class GpuLeaseRevokedError(LeaseRevokedError):
    """A fractional GPU lease was revoked by the platform.

    GPU leases grant MPS-style *shares* of one device — an SM occupancy
    fraction plus a device-memory reservation — so revocation means the
    device itself was lost or reclaimed, not just one client's slot.
    ``device`` names the accelerator (``node_name`` keeps naming its
    host); ``cause`` says why (``"gpu_device_loss"``, ``"reclaim"``).
    Like its parent, it is *retryable*: the GPU service replays queued
    and in-flight batched invocations on a surviving device.
    """

    def __init__(self, message: str, node_name: Optional[str] = None,
                 device: Optional[str] = None, cause: Any = "reclaim"):
        super().__init__(message, node_name=node_name)
        self.device = device
        self.cause = cause


class InvocationTimeout(RFaaSError):
    """The client-side per-invocation deadline elapsed across retries."""

    def __init__(self, message: str, elapsed_s: float = 0.0, attempts: int = 0):
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.attempts = attempts


class AdmissionRejected(RFaaSError):
    """The admission controller refused the invocation up front.

    Explicit backpressure from the capacity plane (:mod:`repro.capacity`):
    no lease was attempted and no resources were touched.  ``reason`` is
    ``"queue_full"`` (bounded admission queue at depth) or ``"timeout"``
    (queued past the configured wait bound); ``tenant`` names whose quota
    the request was charged against.
    """

    def __init__(self, message: str, reason: str = "queue_full",
                 tenant: Optional[str] = None):
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant


class ManagerUnavailableError(RFaaSError):
    """The resource manager has no reachable primary replica.

    Raised by the replicated control plane (:mod:`repro.controlplane`)
    when a front-door operation — lease, register, revoke — arrives
    while the primary is crashed or on the wrong side of a partition
    and no standby has taken over yet.  The condition is *transient*
    by construction: the failure detector elects a standby within its
    detection timeout (or, with zero standbys, a restarted primary
    eventually rejoins), so the client library treats this as
    retryable with backoff.  ``epoch`` snapshots the control-plane
    epoch at rejection time; ``cause`` says why the primary was out of
    reach (``"crash"``, ``"partition"``).
    """

    def __init__(self, message: str, epoch: int = 0, cause: Any = "crash"):
        super().__init__(message)
        self.epoch = epoch
        self.cause = cause


class StaleEpochError(RFaaSError):
    """A fenced ex-primary attempted a mutation after losing its term.

    The split-brain guard of the replicated control plane: every
    mutation is fenced on the issuing replica's epoch, so an ex-primary
    that was partitioned away while a standby took over (bumping the
    epoch) gets its writes rejected *before* any state changes — it can
    observe, step down, and resync, but never double-grant.  ``epoch``
    is the stale issuer's term; ``current_epoch`` the cluster's.
    """

    def __init__(self, message: str, epoch: int = 0, current_epoch: int = 0):
        super().__init__(message)
        self.epoch = epoch
        self.current_epoch = current_epoch


class MemoryServiceUnavailable(RFaaSError):
    """A memory-service buffer cannot serve the access.

    Raised when the hosted buffer is inactive (the batch system reclaimed
    the memory, the host crashed, or the service was stopped) or when a
    replicated write cannot reach its quorum.  ``node_name`` names the
    host that failed (None when the failure is quorum-wide); ``cause``
    says why (``"inactive"``, ``"quorum"``, ``"partition"``, or the
    injected fault kind).  Distinguishing this from a plain
    ``RuntimeError`` lets clients treat reclaim as *retryable* — the
    durable client fails over to the next replica — while programmer
    errors (out-of-bounds offsets) stay ``ValueError``.
    """

    def __init__(self, message: str, node_name: Optional[str] = None,
                 cause: Any = "inactive"):
        super().__init__(message)
        self.node_name = node_name
        self.cause = cause


class DataLossError(RFaaSError):
    """Every replica of a memory-service chunk is gone or corrupt.

    The terminal failure of the durable memory service: after replica
    failover exhausted all copies of chunk ``chunk`` — each either
    destroyed with its host or rejected by checksum/epoch verification
    (``replicas_lost`` counts them) — the data is unrecoverable.  Only
    reachable when faults outpace the replication factor (e.g. k=1, or
    every replica's host lost inside one repair interval).
    """

    def __init__(self, message: str, chunk: int = -1, replicas_lost: int = 0):
        super().__init__(message)
        self.chunk = chunk
        self.replicas_lost = replicas_lost
