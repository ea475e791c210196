"""Container runtimes: Docker, Singularity, Sarus (Table II).

The paper argues classical cloud sandboxes are unsuitable for HPC
(Sec. IV-C): Docker lacks batch-system and native-MPI integration and
raises privilege-escalation concerns, while HPC-native runtimes
(Singularity, Sarus) provide automatic device access, SLURM integration,
and dynamic relinking of the host MPI.  Each runtime here carries the
Table II feature matrix plus a cold/warm timing model used by the warm
pool and the FaaS executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .image import Image, ImageFormat

__all__ = ["ContainerRuntime", "DOCKER", "SINGULARITY", "SARUS", "RUNTIMES"]


@dataclass(frozen=True)
class ContainerRuntime:
    """A container system's capabilities and timing parameters."""

    name: str
    image_formats: tuple[str, ...]
    has_registry_support: bool
    automatic_device_access: bool      # GPUs/NICs without plugins
    automatic_resource_limits: bool    # via SLURM cgroups
    batch_system_integration: bool     # launchable under SLURM
    native_mpi_support: bool           # host-MPI relinking
    rootless: bool
    # Timing model (seconds).
    create_start_s: float              # sandbox create + start, image local
    unpack_bandwidth: float            # bytes/s for image unpack/extract
    warm_attach_s: float               # dispatch into an already-running container

    def supports_image(self, image: Image) -> bool:
        return image.format in self.image_formats

    def cold_start_time(self, image: Image) -> float:
        """Cold start with the image already on the node's filesystem.

        Pull cost is separate (it depends on the storage backend); this is
        the 'hundreds of milliseconds in the best case' of Sec. IV-B.
        """
        if not self.supports_image(image):
            raise ValueError(f"{self.name} cannot run {image.format} images")
        return self.create_start_s + image.size_bytes / self.unpack_bandwidth


DOCKER = ContainerRuntime(
    name="docker",
    image_formats=(ImageFormat.DOCKER,),
    has_registry_support=True,
    automatic_device_access=False,     # through plugins only
    automatic_resource_limits=True,    # native cgroups
    batch_system_integration=False,
    native_mpi_support=False,
    rootless=False,                    # default daemon model
    create_start_s=0.45,
    unpack_bandwidth=600e6,
    warm_attach_s=2e-3,
)

SINGULARITY = ContainerRuntime(
    name="singularity",
    image_formats=(ImageFormat.SINGULARITY,),
    has_registry_support=False,
    automatic_device_access=True,
    automatic_resource_limits=True,
    batch_system_integration=True,
    native_mpi_support=True,
    rootless=True,
    create_start_s=0.12,
    unpack_bandwidth=1.5e9,            # SIF is a single flat image
    warm_attach_s=0.5e-3,
)

SARUS = ContainerRuntime(
    name="sarus",
    image_formats=(ImageFormat.DOCKER,),
    has_registry_support=True,
    automatic_device_access=True,
    automatic_resource_limits=True,
    batch_system_integration=True,
    native_mpi_support=True,
    rootless=True,
    create_start_s=0.15,
    unpack_bandwidth=1.2e9,
    warm_attach_s=0.5e-3,
)

RUNTIMES: dict[str, ContainerRuntime] = {
    r.name: r for r in (DOCKER, SINGULARITY, SARUS)
}
