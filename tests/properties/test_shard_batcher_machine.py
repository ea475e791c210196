"""A state-machine test of the shard batcher.

Hypothesis interleaves submits at the current instant with the passage
of sim time, and after every step compares the batcher with a reference
model: a FIFO of queued ops, the one batch in flight, and the ops
ledger.  Each op's outcome is drawn at submit: ``apply`` returns a
value, returns an exception instance (a capacity denial) or raises (an
outage).

The model flushes the way a single-threaded RPC loop would.  The first
submit to an idle batcher arms a flush at that instant; a flush takes
the first ``min(max_batch, depth)`` queued ops and settles them exactly
``batch_overhead_s + per_op_s * n`` later, then flushes again while ops
are queued.  Costs are dyadic, so model and engine times agree exactly.
"""

from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.shard import ShardConfig
from repro.shard.batch import ShardBatcher
from repro.sim import Environment

OUTCOMES = ("value", "returned", "raised")
COSTS = (0.0, 0.25, 0.5, 1.0)


class Denied(Exception):
    """The returned failure: an expected answer, never raised."""


class Outage(Exception):
    """The raised failure."""


class ShardBatcherMachine(RuleBasedStateMachine):

    @initialize(max_batch=st.integers(min_value=1, max_value=4),
                overhead=st.sampled_from(COSTS),
                per_op=st.sampled_from(COSTS))
    def build(self, max_batch, overhead, per_op):
        self.env = Environment()
        self.config = ShardConfig(max_batch=max_batch,
                                  batch_overhead_s=overhead, per_op_s=per_op)
        self.batcher = ShardBatcher(self.env, 0, self._apply, self.config,
                                    self._flushed)
        self.outcome: list[str] = []         # op id -> drawn outcome
        self.results: dict[int, tuple] = {}  # op id -> what its event gave
        self.applied: list[tuple] = []       # (time, op id) per apply call
        self.flushes: list[tuple] = []       # (time, batch size) per settle
        # The reference model.
        self.queue: deque[int] = deque()
        self.flush_at = None                 # instant of the armed flush
        self.in_flight: list[int] = []
        self.settle_at = None
        self.batches: list[tuple] = []       # (settle time, op ids) per batch
        self.settled = {"value": 0, "failed": 0}

    # -- the batcher's collaborators ---------------------------------------------
    def _apply(self, op):
        op_id = op.payload
        self.applied.append((self.env.now, op_id))
        outcome = self.outcome[op_id]
        if outcome == "raised":
            raise Outage(op_id)
        if outcome == "returned":
            return Denied(op_id)
        return op_id

    def _flushed(self, index, size):
        self.flushes.append((self.env.now, size))

    def _await(self, op_id, event):
        try:
            value = yield event
        except (Denied, Outage) as exc:
            self.results[op_id] = (type(exc).__name__, exc.args[0])
        else:
            self.results[op_id] = ("value", value)

    # -- the reference model -----------------------------------------------------
    def _flush(self, now):
        """Model flush at ``now``: take the FIFO head, or go idle."""
        self.flush_at = None
        if not self.queue:
            return
        count = min(self.config.max_batch, len(self.queue))
        self.in_flight = [self.queue.popleft() for _ in range(count)]
        self.settle_at = now + (self.config.batch_overhead_s
                                + self.config.per_op_s * count)

    def _advance_model(self, horizon):
        while True:
            if self.flush_at is not None and self.flush_at <= horizon:
                self._flush(self.flush_at)
            elif self.settle_at is not None and self.settle_at <= horizon:
                now, self.settle_at = self.settle_at, None
                self.batches.append((now, self.in_flight))
                for op_id in self.in_flight:
                    kind = "value" if self.outcome[op_id] == "value" else "failed"
                    self.settled[kind] += 1
                self.in_flight = []
                self._flush(now)
            else:
                return

    # -- rules -------------------------------------------------------------------
    @rule(outcome=st.sampled_from(OUTCOMES))
    def submit(self, outcome):
        op_id = len(self.outcome)
        self.outcome.append(outcome)
        event = self.batcher.submit("grant", op_id)
        self.env.process(self._await(op_id, event))
        self.queue.append(op_id)
        if self.flush_at is None and self.settle_at is None:
            self.flush_at = self.env.now

    @rule(dt=st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0)))
    def advance(self, dt):
        horizon = self.env.now + dt
        self.env.run(until=horizon)
        self._advance_model(horizon)

    # -- invariants --------------------------------------------------------------
    @invariant()
    def batches_are_the_fifo_head_and_settle_on_time(self):
        # on_flush follows each batch's apply calls, so its sizes cut
        # the apply log into the batches actually settled.
        batches, start = [], 0
        for time, size in self.flushes:
            chunk = self.applied[start:start + size]
            start += size
            assert [t for t, _ in chunk] == [time] * size
            batches.append((time, [op_id for _, op_id in chunk]))
        assert start == len(self.applied)
        assert batches == self.batches

    @invariant()
    def ledger_accounts_for_every_op(self):
        batcher = self.batcher
        assert batcher.depth() == len(self.queue)
        assert batcher.ops_applied == self.settled["value"]
        assert batcher.ops_failed == self.settled["failed"]
        assert batcher.ops_submitted == (
            batcher.ops_applied + batcher.ops_failed + batcher.depth()
            + len(self.in_flight)
        )

    @invariant()
    def each_event_carries_its_outcome(self):
        names = {"value": "value", "returned": "Denied", "raised": "Outage"}
        assert self.results == {
            op_id: (names[self.outcome[op_id]], op_id)
            for _time, batch in self.batches for op_id in batch
        }

    def teardown(self):
        if hasattr(self, "env"):
            # Drained, the batcher settles everything and goes idle.
            self.env.run()
            self._advance_model(float("inf"))
            self.batches_are_the_fifo_head_and_settle_on_time()
            assert self.batcher.depth() == 0 and not self.in_flight
            assert len(self.results) == len(self.outcome)


ShardBatcherMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestShardBatcher = ShardBatcherMachine.TestCase
