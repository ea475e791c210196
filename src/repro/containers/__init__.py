"""Container substrate: images, runtimes (Table II), warm pools."""

from .image import Image, ImageFormat
from .runtime import DOCKER, RUNTIMES, SARUS, SINGULARITY, ContainerRuntime
from .warmpool import AcquireResult, ContainerState, WarmContainer, WarmPool

__all__ = [
    "Image",
    "ImageFormat",
    "DOCKER",
    "RUNTIMES",
    "SARUS",
    "SINGULARITY",
    "ContainerRuntime",
    "AcquireResult",
    "ContainerState",
    "WarmContainer",
    "WarmPool",
]
