"""Network substrate: LogGP model, fabric providers, RDMA transport, DRC."""

from .drc import Credential, DrcError, DrcManager
from .fabric import EFA, IBVERBS, PROVIDERS, TCP, UGNI, FabricProvider
from .logp import LogGPParams
from .transport import (
    Connection,
    LinkConditioner,
    NetworkFabric,
    TransferDropped,
    TransferStats,
)

__all__ = [
    "Credential",
    "DrcError",
    "DrcManager",
    "EFA",
    "IBVERBS",
    "PROVIDERS",
    "TCP",
    "UGNI",
    "FabricProvider",
    "LogGPParams",
    "Connection",
    "NetworkFabric",
    "TransferStats",
    "LinkConditioner",
    "TransferDropped",
]
