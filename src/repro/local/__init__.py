"""Live process-based runtime: real function execution on local workers."""

from .runtime import LocalRuntime, RuntimeStats, resolve_target
from .serialization import payload_nbytes, serialize

__all__ = [
    "LocalRuntime",
    "RuntimeStats",
    "resolve_target",
    "payload_nbytes",
    "serialize",
]
