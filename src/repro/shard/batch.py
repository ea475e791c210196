"""Per-shard batched application of control-plane operations.

Each shard serializes its mutations through one :class:`ShardBatcher`
— the sim-time model of a manager's single-threaded RPC loop.
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
with the platform error) — at every instant ``ops_submitted`` equals
``ops_applied + ops_failed + depth()`` plus the batch in flight, and
the sharded plane sums these per-shard ledgers into its global
no-silent-drops invariant.  ``apply``
fails an op in one of two ways.  It *returns* an exception instance
for an expected answer (a capacity denial): the batcher fails the event
with it, and nothing is raised.  It *raises* for an outage (an
unavailable or fenced shard): the batcher catches the exception and
fails the event with it.  A returned exception has no traceback, so a
denial keeps no frame — and through the frame no batch — alive.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..sim.engine import Environment, Event

if TYPE_CHECKING:
    from .plane import ShardConfig

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
    """FIFO batcher in front of one shard's manager.

    It runs on engine timers, not a process.  The first :meth:`submit` to
    an idle batcher arms a zero-delay flush, so every op submitted
    earlier at that instant joins the batch; each flush arms the timer
    that settles its batch ``batch_overhead_s + per_op_s * n`` later
    and then flushes again while ops are queued.
    """

    def __init__(
        self,
        env: Environment,
        index: int,
        apply: Callable[[BatchOp], Any],
        config: ShardConfig,
        on_flush: Callable[[int, int], None],
    ):
        self.env = env
        self.index = index
        self.config = config
        self._apply = apply
        self._on_flush = on_flush   # (shard_index, batch_size) per flush
        self._queue: deque[BatchOp] = deque()
        #: A flush is armed or a batch is in flight.
        self._busy = False
        self.ops_submitted = 0
        self.ops_applied = 0
        self.ops_failed = 0
        self.batches = 0

    def depth(self) -> int:
        return len(self._queue)

    def submit(self, kind: str, payload: Any) -> Event:
        """Enqueue one op; the returned event resolves when it applies."""
        op = BatchOp(kind, payload, self.env.event(), self.env.now)
        self._queue.append(op)
        self.ops_submitted += 1
        if not self._busy:
            self._busy = True
            self.env.timer(0.0, self._flush)
        return op.event

    def _flush(self, _timer: Optional[Event] = None) -> None:
        """Pop the next batch and arm its settle timer, or go idle."""
        queue = self._queue
        if not queue:
            self._busy = False
            return
        config = self.config
        batch = [queue.popleft() for _ in range(min(config.max_batch, len(queue)))]
        # The serialization cost: fixed flush overhead amortized over
        # the ops that were waiting when the flush started.
        self.env.timer(config.batch_overhead_s + config.per_op_s * len(batch),
                       self._settle, batch)

    def _settle(self, timer: Event) -> None:
        """Apply one flushed batch (every op's event succeeds or fails),
        then flush the next."""
        batch: list[BatchOp] = timer.value
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
        self._on_flush(self.index, len(batch))
        self._flush()
