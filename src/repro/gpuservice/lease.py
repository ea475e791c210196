"""Fractional GPU leases: MPS-style occupancy + device-memory shares.

The CPU path leases whole cores through :class:`~repro.rfaas.Lease`;
accelerators are too expensive to hand out whole, so the GPU control
plane leases *fractions* of a device — an SM occupancy share (the MPS
active-thread-percentage knob) plus a device-memory share.  A
:class:`GpuLease` is the unit of both placement (batches for a function
run on its leased device) and reclamation (device loss revokes the
lease with :class:`~repro.rfaas.GpuLeaseRevokedError`, and the service
replays the function's in-flight batches on a surviving device).

The :class:`GpuLeaseManager` is deterministic by construction: grants
pick the least-committed eligible device with the device name as the
tie-break, so no RNG stream is consumed — same registrations + same
grant order ⇒ the same placement, always.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..gpu.device import GpuDevice
from ..rfaas.errors import GpuLeaseRevokedError, NoCapacityError
from ..sim.engine import Environment
from ..telemetry import telemetry_of

__all__ = ["GpuLease", "GpuLeaseState", "GpuLeaseManager"]


class GpuLeaseState:
    """Lifecycle of a fractional lease."""

    ACTIVE = "active"
    RELEASED = "released"
    REVOKED = "revoked"


class GpuLease:
    """A fractional share of one device: SM occupancy + device memory."""

    __slots__ = (
        "lease_id", "function", "node", "device", "occupancy",
        "memory_bytes", "granted_at", "state", "revoked_cause", "_on_revoke",
    )

    def __init__(
        self,
        lease_id: int,
        function: str,
        node: str,
        device: str,
        occupancy: float,
        memory_bytes: int,
        granted_at: float,
    ):
        self.lease_id = lease_id
        self.function = function
        self.node = node
        self.device = device
        self.occupancy = occupancy
        self.memory_bytes = memory_bytes
        self.granted_at = granted_at
        self.state = GpuLeaseState.ACTIVE
        self.revoked_cause: Any = None
        self._on_revoke: list[Callable[["GpuLease"], None]] = []

    @property
    def is_active(self) -> bool:
        return self.state == GpuLeaseState.ACTIVE

    def on_revoke(self, callback: Callable[["GpuLease"], None]) -> None:
        """Register a callback fired (once) when the lease is revoked."""
        self._on_revoke.append(callback)

    def error(self) -> GpuLeaseRevokedError:
        """The error carried by work that was riding this lease."""
        return GpuLeaseRevokedError(
            f"gpu lease {self.lease_id} ({self.function} on {self.device}) "
            f"revoked: {self.revoked_cause}",
            node_name=self.node,
            device=self.device,
            cause=self.revoked_cause,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GpuLease {self.lease_id} {self.function}@{self.device} "
            f"occ={self.occupancy:.2f} {self.state}>"
        )


class GpuLeaseManager:
    """Grants and reclaims fractional shares of a registered device fleet."""

    def __init__(self, env: Environment, max_occupancy: float = 1.0):
        if max_occupancy <= 0:
            raise ValueError("max_occupancy must be positive")
        self.env = env
        self.max_occupancy = max_occupancy
        self._devices: dict[str, tuple[GpuDevice, str]] = {}  # name -> (dev, node)
        self._active: dict[str, list[GpuLease]] = {}          # device -> leases
        self.granted = 0
        self.revoked = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_granted = metrics.counter(
            "repro_gpu_leases_granted_total",
            help="fractional GPU leases granted",
        )
        self._m_revoked = metrics.counter(
            "repro_gpu_leases_revoked_total",
            help="fractional GPU leases revoked by the platform",
        )

    # -- fleet ----------------------------------------------------------------
    def add_device(self, device: GpuDevice, node: str) -> None:
        if device.name in self._devices:
            raise ValueError(f"duplicate device {device.name!r}")
        self._devices[device.name] = (device, node)
        self._active.setdefault(device.name, [])

    def remove_device(self, name: str, cause: Any = "reclaim") -> list[GpuLease]:
        """Drop a device from the fleet, revoking every lease on it."""
        self._devices.pop(name, None)
        victims = self._active.pop(name, [])
        for lease in list(victims):
            self._revoke(lease, cause)
        return victims

    def devices(self) -> list[str]:
        """Registered device names, sorted (the deterministic grant order)."""
        return sorted(self._devices)

    def device_of(self, name: str) -> GpuDevice:
        return self._devices[name][0]

    # -- accounting -----------------------------------------------------------
    def committed_occupancy(self, name: str) -> float:
        return sum(l.occupancy for l in self._active.get(name, ()))

    def committed_memory(self, name: str) -> int:
        return sum(l.memory_bytes for l in self._active.get(name, ()))

    def leases_on(self, name: str) -> tuple[GpuLease, ...]:
        return tuple(self._active.get(name, ()))

    def active_leases(self) -> list[GpuLease]:
        return [l for name in sorted(self._active) for l in self._active[name]]

    # -- grant / release / revoke ---------------------------------------------
    def grant(
        self,
        function: str,
        occupancy: float,
        memory_bytes: int,
        node: Optional[str] = None,
    ) -> GpuLease:
        """Lease a fractional share on the least-committed eligible device.

        Eligibility = the occupancy share fits under ``max_occupancy``
        and the memory share fits in device memory alongside existing
        leases.  Ties break on device name; no randomness is consumed.
        """
        if not 0 < occupancy <= self.max_occupancy:
            raise ValueError("occupancy must be in (0, max_occupancy]")
        if memory_bytes < 1:
            raise ValueError("memory share must be positive")
        best: Optional[str] = None
        best_load = float("inf")
        for name in sorted(self._devices):
            device, host = self._devices[name]
            if node is not None and host != node:
                continue
            load = self.committed_occupancy(name)
            if load + occupancy > self.max_occupancy:
                continue
            if self.committed_memory(name) + memory_bytes > device.spec.memory_bytes:
                continue
            if load < best_load:
                best, best_load = name, load
        if best is None:
            raise NoCapacityError(
                f"no GPU device can host {function!r} "
                f"(occupancy={occupancy}, memory={memory_bytes})"
            )
        lease = GpuLease(
            lease_id=self.env.next_id("gpu-lease"),
            function=function,
            node=self._devices[best][1],
            device=best,
            occupancy=occupancy,
            memory_bytes=memory_bytes,
            granted_at=self.env.now,
        )
        self._active[best].append(lease)
        self.granted += 1
        self._m_granted.inc()
        self._tracer.instant(
            "gpu.lease.granted", track="gpu",
            lease=lease.lease_id, function=function, device=best,
            occupancy=occupancy,
        )
        return lease

    def release(self, lease: GpuLease) -> None:
        """Voluntary hand-back; no error, no callbacks."""
        if not lease.is_active:
            return
        lease.state = GpuLeaseState.RELEASED
        active = self._active.get(lease.device)
        if active and lease in active:
            active.remove(lease)

    def revoke(self, lease: GpuLease, cause: Any = "reclaim") -> None:
        """Platform-initiated reclamation of one lease."""
        if not lease.is_active:
            return
        active = self._active.get(lease.device)
        if active and lease in active:
            active.remove(lease)
        self._revoke(lease, cause)

    def _revoke(self, lease: GpuLease, cause: Any) -> None:
        lease.state = GpuLeaseState.REVOKED
        lease.revoked_cause = cause
        self.revoked += 1
        self._m_revoked.inc()
        self._tracer.instant(
            "gpu.lease.revoked", track="gpu",
            lease=lease.lease_id, function=lease.function,
            device=lease.device, cause=str(cause),
        )
        callbacks, lease._on_revoke = lease._on_revoke, []
        for callback in callbacks:
            callback(lease)
