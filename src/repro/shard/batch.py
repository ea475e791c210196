"""Per-shard batched application of control-plane operations.

Each shard serializes its mutations through one :class:`ShardBatcher`
process — the sim-time model of a manager's single-threaded RPC loop.
Callers :meth:`submit` an operation and get an :class:`~repro.sim.engine.Event`
back immediately (open-loop callers never block each other); the
batcher drains its FIFO in batches of up to ``max_batch``, charging

    ``batch_overhead_s + per_op_s * len(batch)``

of sim time per flush.  Amortizing the per-batch overhead across many
queued ops is what makes a loaded shard *more* efficient per op than an
idle one — and the fixed ``per_op_s`` floor is what saturates a single
shard and motivates adding more (the throughput-vs-shards curve the
loadstorm sweep reports).

Conservation accounting is built in: every submitted op is eventually
*applied* (event succeeds with the result) or *failed* (event fails
with the platform error) — ``ops_submitted == ops_applied + ops_failed
+ depth()`` holds at every instant, and the sharded plane sums these
per-shard ledgers into its global no-silent-drops invariant.  ``apply``
fails an op in one of two ways.  It *returns* an exception instance
for an expected answer (a capacity denial): the batcher fails the event
with it, and nothing is raised.  It *raises* for an outage (an
unavailable or fenced shard): the batcher catches the exception and
fails the event with it.  A returned exception has no traceback, so a
denial keeps no frame — and through the frame no batch — alive.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..sim.engine import Environment, Event

__all__ = ["BatchOp", "ShardBatcher"]


class BatchOp:
    """One queued control-plane mutation awaiting its batch slot."""

    __slots__ = ("kind", "payload", "event", "submitted_s")

    def __init__(self, kind: str, payload: Any, event: Event, submitted_s: float):
        self.kind = kind          # "grant" | "release"
        self.payload = payload
        self.event = event
        self.submitted_s = submitted_s


class ShardBatcher:
    """FIFO batcher in front of one shard's manager."""

    def __init__(
        self,
        env: Environment,
        index: int,
        apply: Callable[[BatchOp], Any],
        max_batch: int = 32,
        batch_overhead_s: float = 5e-4,
        per_op_s: float = 2e-4,
        on_flush: Optional[Callable[[int, int], None]] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batch_overhead_s < 0 or per_op_s < 0:
            raise ValueError("batch costs must be non-negative")
        self.env = env
        self.index = index
        self.max_batch = max_batch
        self.batch_overhead_s = batch_overhead_s
        self.per_op_s = per_op_s
        self._apply = apply
        self._on_flush = on_flush   # (shard_index, batch_size) per flush
        self._queue: deque[BatchOp] = deque()
        self._wake: Optional[Event] = None
        self.ops_submitted = 0
        self.ops_applied = 0
        self.ops_failed = 0
        self.batches = 0
        self._process = env.process(self._run(), name=f"shard-{index}-batcher")

    def depth(self) -> int:
        return len(self._queue)

    def submit(self, kind: str, payload: Any) -> Event:
        """Enqueue one op; the returned event resolves when it applies."""
        op = BatchOp(kind, payload, self.env.event(), self.env.now)
        self._queue.append(op)
        self.ops_submitted += 1
        if self._wake is not None:
            wake, self._wake = self._wake, None
            wake.succeed()
        return op.event

    def _run(self):
        while True:
            if not self._queue:
                # Parked on an untriggered event, the batcher holds no
                # queue entry, so an idle batcher never keeps a run alive.
                self._wake = self.env.event()
                yield self._wake
            batch = [self._queue.popleft()
                     for _ in range(min(self.max_batch, len(self._queue)))]
            # The serialization cost: fixed flush overhead amortized
            # over the ops that were waiting when the flush started.
            yield self.env.timeout(
                self.batch_overhead_s + self.per_op_s * len(batch)
            )
            self._settle(batch)
            # Parked, the batcher pins no settled op (nor its result).
            del batch

    def _settle(self, batch: list[BatchOp]) -> None:
        """Apply one flushed batch: every op's event succeeds or fails."""
        self.batches += 1
        for op in batch:
            try:
                value = self._apply(op)
            except Exception as exc:
                self.ops_failed += 1
                op.event.fail(exc)
                continue
            if isinstance(value, BaseException):
                self.ops_failed += 1
                op.event.fail(value)
            else:
                self.ops_applied += 1
                op.event.succeed(value)
        if self._on_flush is not None:
            self._on_flush(self.index, len(batch))
