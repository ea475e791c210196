"""Classical cloud FaaS baseline: gateway, central scheduling, storage detours."""

from .platform import CloudFaaSPlatform, CloudInvocation

__all__ = ["CloudFaaSPlatform", "CloudInvocation"]
