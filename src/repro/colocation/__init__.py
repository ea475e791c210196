"""Co-location policies: history and admission."""

from .history import CoLocationRecord, HistoryDB
from .policy import CoLocationPolicy, Decision, PolicyConfig

__all__ = [
    "CoLocationRecord",
    "HistoryDB",
    "CoLocationPolicy",
    "Decision",
    "PolicyConfig",
]
