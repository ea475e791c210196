"""Cluster hardware model: nodes, specs, machine, interconnect topology."""

from .machine import Cluster, build_daint, group_interleave
from .node import Allocation, AllocationError, Node
from .specs import AULT, AULT_EPYC, DAINT_GPU, DAINT_MC, GpuSpec, NodeSpec, PRESETS
from .topology import DragonflyTopology

__all__ = [
    "Cluster",
    "build_daint",
    "group_interleave",
    "Allocation",
    "AllocationError",
    "Node",
    "AULT",
    "AULT_EPYC",
    "DAINT_GPU",
    "DAINT_MC",
    "GpuSpec",
    "NodeSpec",
    "PRESETS",
    "DragonflyTopology",
]
