"""Admission control in front of the resource manager.

Without admission control, demand beyond the harvested supply turns into
redirect/retry loops: every client hammers ``ResourceManager.lease`` until
its deadline.  The admission controller converts that into explicit,
bounded behaviour:

* **per-tenant token buckets** — each tenant gets its own bucket with
  the same sustained rate and burst allowance; excess arrivals wait
  rather than crowd out others;
* **priority queue** — waiting requests are served by (priority, arrival)
  order, so latency-critical tenants overtake best-effort ones;
* **bounded depth with backpressure** — once the queue is full the
  controller answers *now* with :class:`AdmissionRejected` instead of
  letting the backlog grow without bound.  An optional queue-wait bound
  rejects requests that would wait longer than they are worth.

The controller is deterministic: the serving order depends only on
priorities, arrival order, and bucket arithmetic — no randomness.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..rfaas.errors import AdmissionRejected
from ..sim.engine import Environment
from ..telemetry import telemetry_of
from ..telemetry.context import TraceContext

__all__ = [
    "TenantQuota",
    "TokenBucket",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejected",
]


@dataclass(frozen=True)
class TenantQuota:
    """Sustained request rate plus burst allowance for one tenant."""

    rate_per_s: float = 50.0
    burst: float = 10.0

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.burst < 1:
            raise ValueError("burst must allow at least one request")


class TokenBucket:
    """Lazily refilled token bucket (tokens accrue with simulated time)."""

    __slots__ = ("rate", "capacity", "tokens", "last_t")

    #: Refill slack absorbing float residue: a sleep of exactly ``eta``
    #: must land with enough tokens, or the pump would micro-step time
    #: in ~1e-16 increments and never make progress.
    _EPS = 1e-9

    def __init__(self, quota: TenantQuota, now: float = 0.0):
        self.rate = quota.rate_per_s
        self.capacity = float(quota.burst)
        self.tokens = float(quota.burst)
        self.last_t = now

    def _refill(self, now: float) -> None:
        gap = now - self.last_t
        if gap > 0:
            self.tokens = min(self.capacity, self.tokens + gap * self.rate)
        self.last_t = now

    def try_take(self, now: float) -> bool:
        """Take one request's token if the bucket holds it."""
        self._refill(now)
        if self.tokens >= 1.0 - self._EPS:
            self.tokens = max(0.0, self.tokens - 1.0)
            return True
        return False

    def eta(self, now: float) -> float:
        """Seconds until one token will be available (0 if now)."""
        self._refill(now)
        if self.tokens >= 1.0 - self._EPS:
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass(frozen=True)
class AdmissionConfig:
    """Backpressure and quota knobs of the admission controller."""

    #: Requests allowed to wait; beyond this, reject immediately.
    max_queue_depth: int = 64
    #: Reject a queued request once it has waited this long (None: wait
    #: for tokens however long that takes).
    max_queue_wait_s: Optional[float] = None
    #: Every tenant's quota; each tenant draws from its own bucket.
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self):
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        if self.max_queue_wait_s is not None and self.max_queue_wait_s <= 0:
            raise ValueError("max_queue_wait_s must be positive when set")


class _QueueEntry:
    __slots__ = ("priority", "seq", "tenant", "event", "enqueued_at", "cancelled")

    def __init__(self, priority, seq, tenant, event, enqueued_at):
        self.priority = priority
        self.seq = seq
        self.tenant = tenant
        self.event = event
        self.enqueued_at = enqueued_at
        self.cancelled = False

    def __lt__(self, other: "_QueueEntry") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class AdmissionController:
    """Token-bucket + priority-queue gate in front of the manager."""

    def __init__(self, env: Environment, config: Optional[AdmissionConfig] = None):
        self.env = env
        self.config = config or AdmissionConfig()
        self._buckets: dict[str, TokenBucket] = {}
        self._queue: list[_QueueEntry] = []
        # Live count of queued entries not cancelled: the heap keeps
        # cancelled entries until they surface, so its length overcounts.
        self._depth = 0
        self._seq = itertools.count()
        self._pump = None
        self.admitted = 0
        #: Rejections by reason, read by ``repro_capacity_rejected_total``.
        self.rejected: dict[str, int] = {}
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        metrics.counter(
            "repro_capacity_admitted_total", lambda: self.admitted,
            help="invocations admitted past the quota gate",
        )
        self._metrics = metrics
        self._m_wait = metrics.histogram(
            "repro_capacity_queue_wait_seconds",
            help="time admitted invocations spent queued for quota tokens",
        )
        self._m_depth = metrics.gauge(
            "repro_capacity_queue_depth_count",
            help="requests currently waiting in the admission queue",
        )

    # -- views ---------------------------------------------------------------
    def queue_depth(self) -> int:
        return self._depth

    def bucket_for(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.quota, now=self.env.now)
        return bucket

    # -- the gate ------------------------------------------------------------
    def admit(self, tenant: str, priority: int = 1,
              ctx: Optional[TraceContext] = None):
        """Process body (``yield from`` it): returns seconds spent queued.

        Each request costs one token; :class:`TenantQuota` guarantees a
        full bucket holds one.  Raises :class:`AdmissionRejected` with
        ``reason="queue_full"`` when the bounded queue is at depth, or
        ``reason="timeout"`` when the request waited past
        ``max_queue_wait_s``.
        """
        bucket = self.bucket_for(tenant)
        # Fast path: nothing ahead of us and a token available right now.
        if not self._depth and bucket.try_take(self.env.now):
            self._note_admitted(tenant, 0.0, ctx)
            return 0.0
        if self._depth >= self.config.max_queue_depth:
            self._reject(tenant, "queue_full", ctx)
        entry = _QueueEntry(
            priority, next(self._seq), tenant, self.env.event(), self.env.now,
        )
        heapq.heappush(self._queue, entry)
        self._depth += 1
        self._m_depth.set(self._depth)
        self._ensure_pump()
        max_wait = self.config.max_queue_wait_s
        if max_wait is None:
            yield entry.event
        else:
            timer = self.env.timeout(max_wait)
            yield self.env.any_of([entry.event, timer])
            if not entry.event.triggered:
                # Still queued (the pump succeeds the event as it pops
                # the entry), so this is the only place it is counted out.
                entry.cancelled = True
                self._depth -= 1
                self._m_depth.set(self._depth)
                self._reject(tenant, "timeout", ctx)
        waited = self.env.now - entry.enqueued_at
        self._note_admitted(tenant, waited, ctx)
        return waited

    def _reject(self, tenant: str, reason: str,
                ctx: Optional[TraceContext] = None) -> None:
        if reason not in self.rejected:
            self.rejected[reason] = 0
            self._metrics.counter(
                "repro_capacity_rejected_total", lambda: self.rejected[reason],
                labels={"reason": reason},
                help="invocations rejected by the admission gate, by reason",
            )
        self.rejected[reason] += 1
        self._tracer.instant(
            "capacity.reject", track="capacity", ctx=ctx,
            tenant=tenant, reason=reason,
        )
        raise AdmissionRejected(
            f"tenant {tenant!r} rejected: {reason}", reason=reason, tenant=tenant,
        )

    def _note_admitted(self, tenant: str, waited: float,
                       ctx: Optional[TraceContext] = None) -> None:
        self.admitted += 1
        self._m_wait.observe(waited)
        self._tracer.instant(
            "capacity.admit", track="capacity", ctx=ctx,
            tenant=tenant, waited_s=waited,
        )

    # -- the pump -------------------------------------------------------------
    def _ensure_pump(self) -> None:
        if self._pump is None or self._pump.triggered:
            self._pump = self.env.process(self._drain(), name="admission-pump")

    def _drain(self):
        """Serve queued entries in (priority, arrival) order as tokens accrue."""
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            bucket = self.bucket_for(head.tenant)
            eta = bucket.eta(self.env.now)
            if eta > 0:
                yield self.env.timeout(eta)
                continue  # re-examine: a higher-priority entry may have arrived
            bucket.try_take(self.env.now)
            heapq.heappop(self._queue)
            self._depth -= 1
            self._m_depth.set(self._depth)
            head.event.succeed()
