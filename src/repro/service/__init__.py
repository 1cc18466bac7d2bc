"""Coruscant-as-a-service: the resilient batched kernel gateway.

Serves the PIM kernels of the catalogue in
:mod:`repro.service.kernels` behind admission control, deadlines,
deterministic retry/backoff, per-device-profile circuit breakers, and
graceful drain. Stdlib only — `asyncio` + HTTP/JSON.

Entry points: ``python -m repro.cli serve`` (HTTP),
:class:`~repro.service.client.ServiceClient` (in-process, blocking),
:class:`~repro.service.gateway.Gateway` (asyncio).
"""

from repro.service.admission import AdmissionPolicy, ProfileQueues
from repro.service.breaker import RequestBreaker, RequestBreakerConfig
from repro.service.client import ServiceClient
from repro.service.dispatch import ProfileDispatcher, RetryConfig
from repro.service.gateway import Gateway, run_gateway
from repro.service.kernels import KERNELS
from repro.service.profiles import DeviceProfile, default_profiles
from repro.service.protocol import (
    BadRequest,
    KernelFault,
    KernelRequest,
    ServiceReject,
    ServiceResponse,
)

__all__ = [
    "AdmissionPolicy",
    "BadRequest",
    "DeviceProfile",
    "Gateway",
    "KERNELS",
    "KernelFault",
    "KernelRequest",
    "ProfileDispatcher",
    "ProfileQueues",
    "RequestBreaker",
    "RequestBreakerConfig",
    "RetryConfig",
    "ServiceClient",
    "ServiceReject",
    "ServiceResponse",
    "default_profiles",
    "run_gateway",
]
