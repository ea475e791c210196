"""Global co-location history (Sec. III-E, Fig. 4).

HPC systems serve a limited application catalog (~25 apps cover two
thirds of core-hours), so the serverless resource manager can afford a
global history: "for each co-location, we record the runtime of the batch
job and the function, and compare it later against an exclusive run with
the same parameters."  The history is the *primary* metric for estimating
interference; a preview of the interference model is the cold-start
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CoLocationRecord", "HistoryDB"]


@dataclass(frozen=True)
class CoLocationRecord:
    """Outcome of one observed co-location."""

    batch_app: str
    function_app: str
    batch_slowdown: float      # co-located runtime / exclusive runtime
    function_slowdown: float

    def __post_init__(self):
        if self.batch_slowdown < 1.0 - 1e-6 or self.function_slowdown < 1.0 - 1e-6:
            raise ValueError("slowdowns must be >= 1 (ratio to exclusive run)")


class HistoryDB:
    """Per-(batch app, function app) slowdown history with running means."""

    def __init__(self):
        self._records: dict[tuple[str, str], list[CoLocationRecord]] = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())

    def record(self, record: CoLocationRecord) -> None:
        key = (record.batch_app, record.function_app)
        self._records.setdefault(key, []).append(record)

    def has(self, batch_app: str, function_app: str) -> bool:
        return (batch_app, function_app) in self._records

    def expected_batch_slowdown(self, batch_app: str, function_app: str) -> Optional[float]:
        records = self._records.get((batch_app, function_app))
        if not records:
            return None
        return sum(r.batch_slowdown for r in records) / len(records)
