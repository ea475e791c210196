"""Container image and runtime (Table II) tests."""

import pytest

from repro.containers import (
    DOCKER,
    Image,
    ImageFormat,
    RUNTIMES,
    SARUS,
    SINGULARITY,
)

MiB = 1024**2


def img(fmt=ImageFormat.DOCKER, size=500 * MiB):
    return Image(name="ubuntu:20.04", size_bytes=size, format=fmt)


def test_image_validation():
    with pytest.raises(ValueError):
        Image("x", size_bytes=0)
    with pytest.raises(ValueError):
        Image("x", size_bytes=1, runtime_memory_bytes=0)
    with pytest.raises(ValueError):
        Image("x", size_bytes=1, format="oci?")


def test_table2_feature_matrix():
    """The Table II comparison, encoded as behaviour."""
    # Image format: Docker native, Singularity custom, Sarus Docker-compatible.
    assert DOCKER.supports_image(img(ImageFormat.DOCKER))
    assert not DOCKER.supports_image(img(ImageFormat.SINGULARITY))
    assert SINGULARITY.supports_image(img(ImageFormat.SINGULARITY))
    assert not SINGULARITY.supports_image(img(ImageFormat.DOCKER))
    assert SARUS.supports_image(img(ImageFormat.DOCKER))
    # Repositories: Docker and Sarus have registries, Singularity none.
    assert DOCKER.has_registry_support and SARUS.has_registry_support
    assert not SINGULARITY.has_registry_support
    # Device support: automatic for the HPC runtimes, plugins for Docker.
    assert not DOCKER.automatic_device_access
    assert SINGULARITY.automatic_device_access and SARUS.automatic_device_access
    # Batch system + MPI: HPC runtimes only.
    for runtime in (SINGULARITY, SARUS):
        assert runtime.batch_system_integration and runtime.native_mpi_support
    assert not DOCKER.batch_system_integration and not DOCKER.native_mpi_support


def test_cold_start_hundreds_of_ms():
    image = img()
    for runtime in (DOCKER, SARUS):
        cold = runtime.cold_start_time(image)
        assert 0.1 < cold < 2.0, f"{runtime.name}: {cold}"
        assert runtime.warm_attach_s < cold / 50


def test_cold_start_grows_with_image_size():
    small = Image("s", size_bytes=50 * MiB)
    large = Image("l", size_bytes=2000 * MiB)
    assert SARUS.cold_start_time(large) > SARUS.cold_start_time(small)


def test_cold_start_format_mismatch_raises():
    with pytest.raises(ValueError):
        SINGULARITY.cold_start_time(img(ImageFormat.DOCKER))


def test_runtimes_registry():
    assert set(RUNTIMES) == {"docker", "singularity", "sarus"}
