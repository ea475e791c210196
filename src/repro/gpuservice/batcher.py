"""Invocation batching: coalesce queued GPU requests into one launch.

Inference-style GPU functions are dominated by per-launch fixed costs
(context setup, kernel launch overhead) and leave SMs underfilled at
batch size 1.  The batcher queues submitted invocations per
``(device, function)`` and flushes a *batch* — one coalesced kernel
sequence — when either trigger fires:

* **size** — the queue reaches ``max_batch_size`` (flush immediately);
* **time** — the oldest queued request has waited ``max_wait_s`` (flush
  whatever is queued, so a trickle of traffic is never stranded).

The race between the two triggers is resolved with a generation
counter per queue: every flush bumps the generation, and a pending
max-wait timer that wakes into a newer generation does nothing.  Timers
are therefore never interrupted — they simply expire into no-ops —
which keeps the event timeline identical whether a batch filled early
or not, a property the byte-determinism tests lean on.

With ``max_batch_size=1`` the batcher degenerates to a synchronous
fast path: every enqueue flushes immediately and no timer is ever
scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from ..sim.engine import Environment

__all__ = ["BatchPolicy", "GpuBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """When a queued batch is flushed to the device."""

    #: Flush as soon as this many requests are queued.
    max_batch_size: int = 8
    #: Flush whatever is queued once the oldest request waited this long.
    max_wait_s: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s <= 0:
            raise ValueError("max_wait_s must be positive")


class GpuBatcher:
    """Per-(device, function) request queues with size/time flush triggers.

    ``flush`` is called synchronously as ``flush(device, function,
    requests, trigger)`` whenever a batch forms; the owner (the GPU
    service) turns it into a batch-execution process.
    """

    def __init__(
        self,
        env: Environment,
        policy: BatchPolicy,
        flush: Callable[[str, str, list, str], None],
    ):
        self.env = env
        self.policy = policy
        self._flush_fn = flush
        self._queues: dict[Hashable, list] = {}
        self._gen: dict[Hashable, int] = {}
        self.flushes_on_size = 0
        self.flushes_on_timer = 0

    # -- queue state ----------------------------------------------------------
    def pending(self, key: Hashable) -> int:
        return len(self._queues.get(key, ()))

    def pending_total(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def keys(self) -> list:
        return sorted(k for k, q in self._queues.items() if q)

    # -- enqueue / flush ------------------------------------------------------
    def enqueue(self, device: str, function: str, request: Any) -> None:
        """Queue one request; may flush synchronously (size trigger)."""
        key = (device, function)
        queue = self._queues.setdefault(key, [])
        queue.append(request)
        if len(queue) >= self.policy.max_batch_size:
            self._fire(key, trigger="size")
        elif len(queue) == 1:
            generation = self._gen.get(key, 0)
            self.env.process(
                self._timer(key, generation),
                name=f"gpu-batch-timer:{device}:{function}",
            )

    def _timer(self, key: Hashable, generation: int):
        yield self.env.timeout(self.policy.max_wait_s)
        # A newer generation means the queue flushed (size trigger or a
        # drain) while we slept; this timer belongs to a dead batch.
        if self._gen.get(key, 0) == generation and self._queues.get(key):
            self._fire(key, trigger="timer")

    def _fire(self, key: Hashable, trigger: str) -> None:
        batch = self._queues.pop(key, [])
        self._gen[key] = self._gen.get(key, 0) + 1
        if not batch:
            return
        if trigger == "size":
            self.flushes_on_size += 1
        else:
            self.flushes_on_timer += 1
        device, function = key
        self._flush_fn(device, function, batch, trigger)

    def drain(self, device: Optional[str] = None) -> list:
        """Remove and return queued requests without flushing them.

        Used on device loss: the requests queued behind a dead device
        must be re-routed, not launched.  Generations are bumped so
        pending timers expire into no-ops.
        """
        drained: list = []
        for key in self.keys():
            if device is not None and key[0] != device:
                continue
            drained.extend(self._queues.pop(key, ()))
            self._gen[key] = self._gen.get(key, 0) + 1
        return drained
