"""Payload serialization for the live runtime.

Invocation payloads cross a process boundary; pickle protocol 5 keeps
numpy arrays zero-copy on the sending side (out-of-band buffers), which
matters because the offloading model's ``Data_inv`` term is exactly this
serialized size.
"""

from __future__ import annotations

import pickle
from typing import Any

__all__ = ["serialize", "payload_nbytes"]

_PROTOCOL = 5


def serialize(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=_PROTOCOL)


def payload_nbytes(obj: Any) -> int:
    """Serialized size of ``obj`` — the Data_inv of Eq. 1's bandwidth term."""
    return len(serialize(obj))
