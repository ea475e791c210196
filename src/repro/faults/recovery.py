"""Client-side failure recovery: retry policies and degraded results.

This generalizes the redirect loop that used to live inline in
``RFaaSClient._invoke``: every invocation runs under a
:class:`RetryPolicy` (attempt budget, exponential backoff, an
optional per-invocation deadline, and node-exclusion memory), and
callers who need more than a bare
:class:`~repro.rfaas.messages.InvocationResult` can ask for a
:class:`DegradedResult` that says *how* the invocation ended:
first-try success, recovered-after-retries, gave up, timed out, or
rejected for lack of capacity.

The default policy is four attempts with zero backoff and no deadline;
fault-tolerant callers opt into backoff and deadlines explicitly.  A
retry always leases away from the node that failed it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily everywhere else: ``repro.rfaas.client`` imports
    # this module, so a module-level rfaas import here would be a cycle.
    from ..rfaas.messages import InvocationResult

__all__ = ["RetryPolicy", "RecoveryOutcome", "DegradedResult"]


class RecoveryOutcome(enum.Enum):
    """How an invocation's attempt loop concluded."""

    OK = "ok"                    # first attempt succeeded
    RECOVERED = "recovered"      # succeeded after >= 1 retry
    REJECTED = "rejected"        # no capacity anywhere (not retryable)
    GAVE_UP = "gave_up"          # attempt budget exhausted
    TIMED_OUT = "timed_out"      # per-invocation deadline elapsed


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the client's recovery loop.

    * ``max_attempts`` — total tries, including the first (so
      ``max_attempts=1`` disables redirects entirely);
    * ``backoff_base_s`` — wait before the first retry; doubles (by
      ``backoff_multiplier``) per further retry, capped at
      ``backoff_max_s``.  0 retries immediately (historical behaviour);
    * ``timeout_s`` — per-invocation deadline across all attempts; on
      expiry a running execution is aborted and the invocation reports
      ``TIMED_OUT``.  ``None`` disables.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.0
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 10.0
    timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def backoff(self, retry_index: int) -> float:
        """Seconds to wait before retry number ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        if self.backoff_base_s <= 0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_multiplier ** (retry_index - 1)
        return min(delay, self.backoff_max_s)


@dataclass
class DegradedResult:
    """An invocation result plus the story of how it got there."""

    result: "InvocationResult"
    outcome: RecoveryOutcome
    attempts: int                 # leases tried (>= 1 unless rejected up front)
    retries: int                  # attempts - successful first try
    elapsed_s: float              # invoke() call to completion
    recovery_s: float = 0.0       # first failure to completion (0 = no failure)
    backoff_s: float = 0.0        # total time spent waiting between attempts
    error: Optional[Exception] = None   # last platform error observed

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def degraded(self) -> bool:
        """Did recovery machinery have to engage at all?"""
        return self.outcome is not RecoveryOutcome.OK
