"""Container images.

Images matter to the FaaS platform for two reasons: their format decides
which runtimes can run them (Table II) and their size drives cold-start
cost (pull + unpack + start, Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ImageFormat", "Image"]

MiB = 1024**2


class ImageFormat:
    DOCKER = "docker"
    SINGULARITY = "singularity"   # SIF, not Docker-compatible


@dataclass(frozen=True)
class Image:
    """An immutable container image."""

    name: str
    size_bytes: int
    format: str = ImageFormat.DOCKER
    # Memory footprint of a started container (runtime + loaded function).
    runtime_memory_bytes: int = 256 * MiB

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("image size must be positive")
        if self.runtime_memory_bytes <= 0:
            raise ValueError("runtime memory must be positive")
        if self.format not in (ImageFormat.DOCKER, ImageFormat.SINGULARITY):
            raise ValueError(f"unknown image format {self.format!r}")
