"""Workloads: demand models for simulation, plus the two numpy kernels
(Black-Scholes pricing and particle transport) that Fig. 13 runs live."""

from .base import AppModel
from .blackscholes import (
    OptionBatch,
    generate_options,
    price_chunk,
    price_options,
    split_batch,
)
from .lulesh import LULESH_PROBLEM_SIZES, lulesh_model
from .milc import MILC_LATTICE_SIZES, milc_model
from .nas import NAS_MODELS, nas_model
from .openmc_like import (
    ReactorModel,
    TransportResult,
    run_transport,
    transport_chunk,
)
from .rodinia import RODINIA_BENCHMARKS, RodiniaBenchmark, rodinia_benchmark

__all__ = [
    "AppModel",
    "OptionBatch",
    "generate_options",
    "price_chunk",
    "price_options",
    "split_batch",
    "LULESH_PROBLEM_SIZES",
    "lulesh_model",
    "MILC_LATTICE_SIZES",
    "milc_model",
    "NAS_MODELS",
    "nas_model",
    "ReactorModel",
    "TransportResult",
    "run_transport",
    "transport_chunk",
    "RODINIA_BENCHMARKS",
    "RodiniaBenchmark",
    "rodinia_benchmark",
]
