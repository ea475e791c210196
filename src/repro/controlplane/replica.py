"""The replicated commit log and the replicas that take turns leading it.

The commit log is the control plane's only replicated record: a
:class:`ManagerReplica` is a role (rank, epoch, heartbeat) over it and
holds no copy of its own.  "What a standby would know after takeover"
is never a guess — it is :func:`replay` of the log, the one interpreter
of :class:`LogRecord` ops, which takeover reconciliation and the
certification invariants (:mod:`repro.faults.certify`) both call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["ReplicaRole", "LogRecord", "LogReplay", "ManagerReplica", "replay"]


class ReplicaRole(enum.Enum):
    """Where a replica stands in the current epoch."""

    PRIMARY = "primary"    # serves all front-door mutations
    STANDBY = "standby"    # follows the primary's log, ready to take over
    DOWN = "down"          # crashed until it rejoins
    FENCED = "fenced"      # ex-primary expelled by a takeover; must rejoin


@dataclass(frozen=True)
class LogRecord:
    """One fenced, replicated control-plane mutation.

    ``op`` is one of ``register`` / ``remove`` / ``grant`` / ``revoke``
    / ``release``; ``payload`` carries the op-specific fields (node
    name, lease id, sizes).  Records are totally ordered by ``index``
    and stamped with the ``epoch`` they were committed under — the
    certification invariants (:mod:`repro.faults.certify`) replay this
    log to prove no double-grant and epoch monotonicity.
    """

    index: int
    epoch: int
    op: str
    at_s: float
    payload: dict[str, Any]


class LogReplay:
    """The state a replay of the commit log implies.

    ``registrations`` maps a node to its ``register_node`` keyword
    arguments; ``leases`` maps each live lease id to its grant payload;
    ``granted_cores`` is the cores those leases hold per node.
    ``problems`` lists every record that contradicts the state before
    it: a node registered twice, a lease granted while live or on an
    unregistered node (neither grant is applied), and a node granted
    more cores than it registered.
    """

    def __init__(self):
        self.registrations: dict[str, dict] = {}
        self.leases: dict[int, dict] = {}
        self.granted_cores: dict[str, int] = {}
        self.problems: list[str] = []

    def apply(self, record: LogRecord) -> None:
        payload = record.payload
        if record.op == "register":
            node = payload["node"]
            if node in self.registrations:
                self.problems.append(
                    f"log[{record.index}]: node {node} registered twice"
                )
            self.registrations[node] = payload["registration"]
            self.granted_cores.setdefault(node, 0)
        elif record.op == "remove":
            # Leases die with their node.
            node = payload["node"]
            self.registrations.pop(node, None)
            self.granted_cores.pop(node, None)
            for lid in [lid for lid, grant in self.leases.items()
                        if grant["node"] == node]:
                del self.leases[lid]
        elif record.op == "grant":
            self._grant(record)
        elif record.op in ("revoke", "release"):
            grant = self.leases.pop(payload["lease_id"], None)
            if grant is not None and grant["node"] in self.granted_cores:
                self.granted_cores[grant["node"]] -= int(grant["cores"])
        else:
            raise ValueError(f"unknown log op {record.op!r}")

    def _grant(self, record: LogRecord) -> None:
        payload = record.payload
        lid, node = payload["lease_id"], payload["node"]
        if lid in self.leases:
            self.problems.append(
                f"log[{record.index}]: lease {lid} granted while already "
                f"active on {self.leases[lid]['node']} (double grant)"
            )
            return
        if node not in self.registrations:
            self.problems.append(
                f"log[{record.index}]: lease {lid} granted on "
                f"unregistered node {node}"
            )
            return
        self.leases[lid] = payload
        self.granted_cores[node] += int(payload["cores"])
        capacity = int(self.registrations[node]["cores"])
        if self.granted_cores[node] > capacity:
            self.problems.append(
                f"log[{record.index}]: node {node} over-committed "
                f"({self.granted_cores[node]} cores granted > "
                f"{capacity} registered)"
            )


def replay(log: Iterable[LogRecord]) -> LogReplay:
    """Apply ``log`` in order to empty state."""
    state = LogReplay()
    for record in log:
        state.apply(record)
    return state


@dataclass
class ManagerReplica:
    """One member of the replicated resource-manager group."""

    rank: int
    role: ReplicaRole = ReplicaRole.STANDBY
    #: Epoch this replica was elected, restarted or rejoined under.
    epoch: int = 0
    #: sim time of the last heartbeat received from the primary.
    last_heartbeat_s: float = 0.0

    @property
    def name(self) -> str:
        return f"rm-{self.rank}"

    @property
    def live(self) -> bool:
        return self.role in (ReplicaRole.PRIMARY, ReplicaRole.STANDBY)
