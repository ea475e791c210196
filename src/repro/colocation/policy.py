"""Co-location admission policy (Sec. III-E / III-F, Fig. 4).

The decision pipeline the paper describes:

1. **Availability** — opt-in only: the batch job must consent (shared
   flag / shared partition) and the node must have the spare resources;
   GPUs are only handed out as whole free devices (GRES).
2. **Hero-job exemption** — jobs above a node-count threshold are never
   co-located (Sec. III-F: large jobs are noise-sensitive; most jobs use
   < 256 nodes, so targeting small/medium jobs captures the utilization
   win without risking scalability).
3. **History** — if this (batch app, function app) pair has run together
   before, admit iff the recorded batch slowdown is acceptable.
4. **Heuristic fallback** — no history: preview the interference model's
   predicted slowdowns for the candidate mix (the stress-factor
   comparison of resource requirement modeling) and admit iff the batch
   job stays under the threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..cluster.node import Node
from ..interference.model import ResourceDemand
from ..rfaas.load import NodeLoadRegistry
from ..slurm.partition import gres_available_gpus
from .history import CoLocationRecord, HistoryDB

__all__ = ["Decision", "PolicyConfig", "CoLocationPolicy"]


class Decision(enum.Enum):
    ADMIT = "admit"
    NO_CONSENT = "no_consent"
    NO_RESOURCES = "no_resources"
    HERO_JOB = "hero_job"
    HISTORY_REJECT = "history_reject"
    HEURISTIC_REJECT = "heuristic_reject"

    @property
    def admitted(self) -> bool:
        return self is Decision.ADMIT


@dataclass(frozen=True)
class PolicyConfig:
    """Thresholds for admission."""

    max_batch_slowdown: float = 1.05     # tolerate <= 5% batch impact
    hero_job_nodes: int = 256            # exempt jobs at/above this scale
    reserve_cores: int = 0               # cores kept free per node

    def __post_init__(self):
        if self.max_batch_slowdown < 1.0:
            raise ValueError("max_batch_slowdown must be >= 1")
        if self.hero_job_nodes < 1 or self.reserve_cores < 0:
            raise ValueError("invalid thresholds")


class CoLocationPolicy:
    """Decides whether a function may join a node."""

    def __init__(
        self,
        loads: NodeLoadRegistry,
        history: Optional[HistoryDB] = None,
        config: Optional[PolicyConfig] = None,
    ):
        self.loads = loads
        self.history = history if history is not None else HistoryDB()
        self.config = config or PolicyConfig()
        # Decision accounting for the ablation bench.
        self.decisions: dict[Decision, int] = {d: 0 for d in Decision}

    def _done(self, decision: Decision) -> Decision:
        self.decisions[decision] += 1
        return decision

    def decide(
        self,
        node: Node,
        candidate: ResourceDemand,
        batch_app: Optional[str],
        *,
        consent: bool = True,
        batch_nodes: int = 1,
        needs_gpus: int = 0,
        memory_bytes: int = 0,
    ) -> Decision:
        """Run the full admission pipeline for one candidate function."""
        # 1. Availability.
        if not consent:
            return self._done(Decision.NO_CONSENT)
        free_cores = node.free_cores - self.config.reserve_cores
        if (
            candidate.cores > free_cores
            or memory_bytes > node.free_memory
            or needs_gpus > gres_available_gpus(node)
        ):
            return self._done(Decision.NO_RESOURCES)
        # 2. Hero jobs are exempt from disaggregation.
        if batch_nodes >= self.config.hero_job_nodes:
            return self._done(Decision.HERO_JOB)
        # 3. History, the primary metric.
        if batch_app is not None and candidate.label and self.history.has(batch_app, candidate.label):
            expected = self.history.expected_batch_slowdown(batch_app, candidate.label)
            if expected > self.config.max_batch_slowdown:
                return self._done(Decision.HISTORY_REJECT)
            return self._done(Decision.ADMIT)
        # 4. Heuristic: preview the interference model.  The relevant
        # quantity is the *marginal* impact — predicted slowdown relative
        # to each tenant's current slowdown (a job already paying its own
        # frequency/cache costs must not have those counted against the
        # candidate).
        current = self.loads.slowdowns(node.name)
        preview = self.loads.preview_slowdown(node.name, candidate)
        worst_ratio = max(
            (preview[k] / current.get(k, 1.0) for k in preview if k != "<candidate>"),
            default=1.0,
        )
        if worst_ratio > self.config.max_batch_slowdown:
            return self._done(Decision.HEURISTIC_REJECT)
        return self._done(Decision.ADMIT)

    def observe(
        self,
        batch_app: str,
        function_app: str,
        batch_slowdown: float,
        function_slowdown: float,
    ) -> None:
        """Feed an observed co-location back into the history (Fig. 4)."""
        self.history.record(
            CoLocationRecord(
                batch_app=batch_app,
                function_app=function_app,
                batch_slowdown=batch_slowdown,
                function_slowdown=function_slowdown,
            )
        )
