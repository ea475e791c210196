"""Interference substrate: demand vectors and the contention model."""

from .model import InterferenceModel, PlacementError, ResourceDemand

__all__ = [
    "InterferenceModel",
    "PlacementError",
    "ResourceDemand",
]
