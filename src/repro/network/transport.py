"""Simulated RDMA transport over the cluster interconnect.

Endpoints open :class:`Connection` objects through a
:class:`NetworkFabric`, then issue two-sided sends or one-sided RDMA
reads/writes.  Timing follows the provider's LogGP parameters plus
dragonfly hop latency, and *bandwidth contention* is modeled physically:
a transfer holds the source node's egress link and the destination
node's ingress link for its serialization time, so concurrent flows
through one NIC queue behind each other.  That contention is exactly what
the memory-service experiment (Fig. 11) and the offloading saturation
point (Fig. 13) measure.

A transfer is not a process but two events: it takes its egress link,
then its ingress link (each a FIFO handed straight to the next waiter
on release), waits out the serialization timer, releases both, and
schedules its completion event itself to land one latency later.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from ..cluster.machine import Cluster
from ..sim.engine import Environment, Event
from .drc import DrcManager
from .fabric import FabricProvider

__all__ = [
    "NetworkFabric",
    "Connection",
    "TransferStats",
    "LinkConditioner",
    "TransferDropped",
]



class TransferDropped(ConnectionError):
    """A transfer failed due to an injected network fault.

    The transfer's event fails with it when the link between the
    endpoints is partitioned or the conditioner's loss model drops the
    message.  The sender observes the failure after the link's base
    latency (it learns from a missing completion, not instantly).
    """

    def __init__(self, message: str, src: Optional[str] = None, dst: Optional[str] = None):
        super().__init__(message)
        self.src = src
        self.dst = dst


class LinkConditioner:
    """Mutable fault state of a fabric, consulted per transfer.

    The fault-injection subsystem (:mod:`repro.faults`) degrades the
    interconnect through this object rather than monkeypatching the
    fabric: ``latency_factor`` multiplies every sampled message latency,
    ``bandwidth_factor`` scales the available bandwidth (0.5 = half the
    nominal bandwidth, doubling serialization time), ``drop_rate``
    drops a seeded fraction of transfers, and :meth:`partition`
    isolates a node set from the rest of the cluster.  Each partition
    is its own island, and a node covered by several partitions stays
    isolated until each of them heals.  Conditions are
    read when a transfer is *issued*, so transfers already queued on a
    NIC link keep the conditions under which they were sent.

    The pristine state (all factors 1, no loss, no partition) is
    byte-for-byte identical to an unconditioned fabric: no random draws,
    no extra events.
    """

    def __init__(self):
        self.latency_factor = 1.0
        self.bandwidth_factor = 1.0
        self.drop_rate = 0.0
        self._drop_rng: Optional[np.random.Generator] = None
        # node -> {island: active partition() calls of that island}
        self._islands: dict[str, dict[frozenset, int]] = {}

    @property
    def pristine(self) -> bool:
        return (
            self.latency_factor == 1.0
            and self.bandwidth_factor == 1.0
            and self.drop_rate == 0.0
            and not self._islands
        )

    # -- degradation ---------------------------------------------------------
    def degrade(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> None:
        """Scale link performance; factors must be positive."""
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise ValueError("degradation factors must be positive")
        self.latency_factor = latency_factor
        self.bandwidth_factor = bandwidth_factor

    def set_loss(self, drop_rate: float, rng: Optional[np.random.Generator] = None) -> None:
        """Drop a random fraction of transfers, seeded by ``rng``."""
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if drop_rate > 0 and rng is None and self._drop_rng is None:
            raise ValueError("a seeded rng is required for message loss")
        self.drop_rate = drop_rate
        if rng is not None:
            self._drop_rng = rng

    def restore(self) -> None:
        """Reset factors and loss (partitions heal separately)."""
        self.latency_factor = 1.0
        self.bandwidth_factor = 1.0
        self.drop_rate = 0.0

    # -- partitions ----------------------------------------------------------
    def partition(self, nodes) -> None:
        """Isolate ``nodes`` from every node outside the set."""
        island = frozenset(nodes)
        for node in island:
            counts = self._islands.setdefault(node, {})
            counts[island] = counts.get(island, 0) + 1

    def heal(self, nodes=None) -> None:
        """Undo one ``partition(nodes)`` call (every partition when
        ``nodes`` is None); a set that matches no active partition is a
        no-op."""
        if nodes is None:
            self._islands.clear()
            return
        island = frozenset(nodes)
        for node in island:
            counts = self._islands.get(node)
            if counts is None or island not in counts:
                continue
            counts[island] -= 1
            if not counts[island]:
                del counts[island]
                if not counts:
                    del self._islands[node]

    def is_blocked(self, src: str, dst: str) -> bool:
        # Two nodes can talk iff every active island holds both or neither.
        return self._islands.get(src) != self._islands.get(dst)

    def should_drop(self) -> bool:
        if self.drop_rate <= 0.0:
            return False
        return float(self._drop_rng.random()) < self.drop_rate


class TransferStats:
    """Aggregate transfer accounting for one fabric.

    A transfer is counted once it has serialized, when its landing is
    scheduled and certain; a run stopped at a horizon counts the
    transfers still in flight to it.
    """

    def __init__(self):
        self.messages = 0
        self.bytes = 0

    def record(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


class _Link:
    """One direction of a NIC: a FIFO held by one transfer at a time."""

    __slots__ = ("busy", "waiters")

    def __init__(self):
        self.busy = False
        self.waiters: deque[Callable[[], None]] = deque()

    def acquire(self, then: Callable[[], None]) -> None:
        """Call ``then`` once this link is held (now, if it is free)."""
        if self.busy:
            self.waiters.append(then)
        else:
            self.busy = True
            then()

    def release(self) -> None:
        """Hand the link straight to the next waiter, or free it."""
        if self.waiters:
            self.waiters.popleft()()
        else:
            self.busy = False


class Connection:
    """A reliable connected queue pair between two nodes."""

    def __init__(
        self,
        fabric: "NetworkFabric",
        src: str,
        dst: str,
        user: str,
        cred_id: Optional[int],
    ):
        self.conn_id = fabric.env.next_id("connection")
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.user = user
        self.cred_id = cred_id
        self.closed = False

    # Each op returns an event that fires with the size when the transfer
    # lands, or fails with TransferDropped.
    def send(self, size_bytes: int) -> Event:
        return self.fabric._transfer(self, self.src, self.dst, size_bytes, one_sided=False)

    def recv_response(self, size_bytes: int) -> Event:
        """A response flowing back dst -> src (e.g. invocation result)."""
        return self.fabric._transfer(self, self.dst, self.src, size_bytes, one_sided=False)

    def rdma_read(self, size_bytes: int) -> Event:
        """One-sided read of remote memory (payload flows dst -> src)."""
        return self.fabric._transfer(self, self.dst, self.src, size_bytes, one_sided=True)

    def rdma_write(self, size_bytes: int) -> Event:
        """One-sided write into remote memory (payload flows src -> dst)."""
        return self.fabric._transfer(self, self.src, self.dst, size_bytes, one_sided=True)

    def close(self) -> None:
        self.closed = True


class NetworkFabric:
    """The simulated interconnect for one cluster."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        provider: FabricProvider,
        rng: Optional[np.random.Generator] = None,
        drc: Optional[DrcManager] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.provider = provider
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.drc = drc
        self.stats = TransferStats()
        self.conditioner = LinkConditioner()
        self._egress: dict[str, _Link] = {}
        self._ingress: dict[str, _Link] = {}
        # Node indices never change once assigned, so the topology hop
        # latency for a (src, dst) pair is a constant — cache it.
        self._hop_cache: dict[tuple[str, str], float] = {}

    def _channels(self, node: str) -> tuple[_Link, _Link]:
        egress = self._egress.get(node)
        if egress is None:
            if node not in self.cluster:
                raise KeyError(f"unknown node {node!r}")
            egress = self._egress[node] = _Link()
            self._ingress[node] = _Link()
        return egress, self._ingress[node]

    def _hop_latency(self, src: str, dst: str) -> float:
        pair = (src, dst)
        hop = self._hop_cache.get(pair)
        if hop is None:
            hop = self._hop_cache[pair] = self.cluster.hop_latency(src, dst)
        return hop

    # -- connection management -------------------------------------------------
    def connect(self, src: str, dst: str, user: str, cred_id: Optional[int] = None) -> Event:
        """Establish a connection; yields the :class:`Connection`.

        On uGNI the credential is checked first (DRC, Sec. IV-A); the
        connection setup cost covers QP exchange / credential acquisition.
        """
        if self.provider.requires_credentials():
            if self.drc is None:
                raise RuntimeError("uGNI fabric requires a DrcManager")
            if cred_id is None:
                raise PermissionError("uGNI cross-job connection requires a DRC credential")
            self.drc.authorize(cred_id, user)
        # Validate node names eagerly.
        self._channels(src)
        self._channels(dst)

        def setup():
            yield self.env.timeout(self.provider.connect_s)
            return Connection(self, src, dst, user, cred_id)

        return self.env.process(setup(), name=f"connect:{src}->{dst}")

    # -- data movement ------------------------------------------------------------
    def _timing(self, src: str, dst: str, size_bytes: int,
                one_sided: bool) -> tuple[float, float, bool]:
        """``(serialization, latency, dropped)`` of a transfer issued now,
        drawing its jitter and loss from the fabric's rngs."""
        provider = self.provider
        params = provider.params
        serialization = max(size_bytes * params.G, params.g)
        hop = self._hop_latency(src, dst)
        if one_sided:
            base_latency = provider.one_sided_base_s + hop
        else:
            base_latency = provider.two_sided_base_s + hop
        if params.jitter_sigma == 0.0:
            latency = base_latency
        else:
            latency = base_latency * float(self.rng.lognormal(mean=0.0, sigma=params.jitter_sigma))
        conditioner = self.conditioner
        if conditioner._islands or conditioner.drop_rate > 0.0:
            # Preserves the short-circuit rng semantics of the slow path:
            # should_drop() draws only when the link is not partitioned.
            dropped = conditioner.is_blocked(src, dst) or conditioner.should_drop()
            latency *= conditioner.latency_factor
            serialization /= conditioner.bandwidth_factor
        else:
            dropped = False
            if conditioner.latency_factor != 1.0:
                latency *= conditioner.latency_factor
            if conditioner.bandwidth_factor != 1.0:
                serialization /= conditioner.bandwidth_factor
        return serialization, latency, dropped

    def _transfer(
        self,
        conn: Connection,
        src: str,
        dst: str,
        size_bytes: int,
        one_sided: bool,
    ) -> Event:
        if conn.closed:
            raise RuntimeError("connection is closed")
        if size_bytes < 0:
            raise ValueError("negative transfer size")
        serialization, latency, dropped = self._timing(src, dst, size_bytes, one_sided)
        egress, _ = self._channels(src)
        _, ingress = self._channels(dst)
        env = self.env
        done = Event(env)
        # Timers are live entries, so a transfer a background loop issues
        # (the memservice repair loop does) keeps run() alive until it lands.
        if dropped:
            # The sender learns of the loss after the propagation delay:
            # no completion arrives, the op errors out.
            env.timer(latency, lambda _: done.fail(TransferDropped(
                f"transfer {src}->{dst} ({size_bytes} B) dropped by fault injection",
                src=src, dst=dst,
            )))
            return done

        def serialized(_: Event) -> None:
            # Ingress first, then egress: the release order of the nested
            # acquisition below.
            ingress.release()
            egress.release()
            self.stats.record(size_bytes)
            done.succeed_in(latency, size_bytes)

        egress.acquire(lambda: ingress.acquire(
            lambda: env.timer(serialization, serialized)))
        return done
