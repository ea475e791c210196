"""MPI-style communication between FaaS-allocated ranks (Sec. IV-F).

"An HPC function can also implement the same computation and
communication logic as an MPI process ... functions can represent
full-fledged computations with communication and synchronization."

This communicator runs over the simulated RDMA fabric: each rank lives on
a cluster node (where its function lease placed it) and exchanges
messages through per-rank mailboxes, with transfer timing provided by the
fabric's LogGP model and bandwidth contention by its per-node channels.
Collectives use binomial trees, the textbook algorithms MPI
implementations default to at these scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..network.transport import Connection, NetworkFabric
from ..sim.engine import Environment, Process
from ..sim.resources import FilterStore

__all__ = ["MpiMessage", "Communicator"]



@dataclass(frozen=True)
class MpiMessage:
    source: int
    dest: int
    tag: int
    size_bytes: int
    payload: Any = None


class Communicator:
    """A fixed set of ranks with point-to-point and collective ops."""

    def __init__(self, env: Environment, fabric: NetworkFabric,
                 rank_nodes: list[str], user: str = "mpifn"):
        if not rank_nodes:
            raise ValueError("need >= 1 rank")
        self.comm_id = env.next_id("communicator")
        self.env = env
        self.fabric = fabric
        self.rank_nodes = list(rank_nodes)
        self.user = user
        self._mailboxes = [FilterStore(env) for _ in rank_nodes]
        self._connections: dict[tuple[int, int], Connection] = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    @property
    def size(self) -> int:
        return len(self.rank_nodes)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside communicator of size {self.size}")

    # -- connection management ------------------------------------------------
    def _connection(self, src: int, dst: int):
        """Process: lazily establish the (src, dst) queue pair."""
        key = (src, dst)
        conn = self._connections.get(key)
        if conn is None:
            conn = yield self.fabric.connect(
                self.rank_nodes[src], self.rank_nodes[dst], user=self.user
            )
            self._connections[key] = conn
        return conn

    # -- point-to-point ------------------------------------------------------------
    def send(self, source: int, dest: int, size_bytes: int,
             tag: int = 0, payload: Any = None) -> Process:
        """Eager-protocol send: completes when the payload lands."""
        self._check_rank(source)
        self._check_rank(dest)
        if size_bytes < 0:
            raise ValueError("negative message size")

        def run():
            if source != dest:
                conn = yield from self._connection(source, dest)
                yield conn.send(size_bytes)
            self.messages_sent += 1
            self.bytes_sent += size_bytes
            message = MpiMessage(source, dest, tag, size_bytes, payload)
            self._mailboxes[dest].put(message)
            return message

        return self.env.process(run(), name=f"mpi-send-{source}->{dest}")

    def recv(self, dest: int, source: Optional[int] = None,
             tag: Optional[int] = None) -> Process:
        """Blocking receive with MPI matching (ANY_SOURCE/ANY_TAG = None)."""
        self._check_rank(dest)

        def match(msg: MpiMessage) -> bool:
            return (source is None or msg.source == source) and (
                tag is None or msg.tag == tag
            )

        def run():
            message = yield self._mailboxes[dest].get(match)
            return message

        return self.env.process(run(), name=f"mpi-recv-{dest}")

    # -- collectives -----------------------------------------------------------------
    def _binomial_peers(self, rank: int, root: int) -> tuple[Optional[int], list[int]]:
        """Parent and children of ``rank`` in a binomial tree rooted at root.

        Standard construction on virtual ranks (shifted so the root is 0):
        scanning bits from the lowest, a rank's parent clears its lowest
        set bit; its children set each bit below that.
        """
        size = self.size
        virtual = (rank - root) % size
        parent: Optional[int] = None
        children: list[int] = []
        mask = 1
        while mask < size:
            if virtual & mask:
                parent = ((virtual - mask) + root) % size
                break
            child = virtual + mask
            if child < size:
                children.append((child + root) % size)
            mask <<= 1
        return parent, children

    def bcast(self, rank: int, root: int, size_bytes: int, value: Any = None) -> Process:
        """Per-rank participation in a binomial-tree broadcast.

        Every rank must call this; the returned process yields the
        broadcast value once it has arrived (and been forwarded).
        """
        self._check_rank(rank)
        self._check_rank(root)
        tag = -2 - self.comm_id  # reserved collective tag

        def run():
            parent, children = self._binomial_peers(rank, root)
            if rank == root:
                value_here = value
            else:
                message = yield self.recv(rank, source=parent, tag=tag)
                value_here = message.payload
            for child in children:
                yield self.send(rank, child, size_bytes, tag=tag, payload=value_here)
            return value_here

        return self.env.process(run(), name=f"mpi-bcast-{rank}")

    def reduce(self, rank: int, root: int, size_bytes: int, value: Any,
               op=lambda a, b: a + b) -> Process:
        """Binomial-tree reduction; the root's process yields the result."""
        self._check_rank(rank)
        self._check_rank(root)
        tag = -1000 - self.comm_id

        def run():
            parent, children = self._binomial_peers(rank, root)
            accumulated = value
            # Receive children in descending subtree order (mirrors bcast).
            for child in reversed(children):
                message = yield self.recv(rank, source=child, tag=tag)
                accumulated = op(accumulated, message.payload)
            if parent is not None:
                yield self.send(rank, parent, size_bytes, tag=tag, payload=accumulated)
                return None
            return accumulated

        return self.env.process(run(), name=f"mpi-reduce-{rank}")

    def allreduce(self, rank: int, size_bytes: int, value: Any,
                  op=lambda a, b: a + b) -> Process:
        """Reduce to rank 0 then broadcast (the small-communicator default)."""

        def run():
            reduced = yield self.reduce(rank, 0, size_bytes, value, op)
            result = yield self.bcast(rank, 0, size_bytes, value=reduced)
            return result

        return self.env.process(run(), name=f"mpi-allreduce-{rank}")
