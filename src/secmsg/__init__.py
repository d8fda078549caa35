"""Encrypted point-to-point and collective messaging over TCP, with a
benchmark harness and latency-model fitting for the encrypted paths."""

from .aead import (
    AesGcmProvider,
    Frame,
    FRAME_OVERHEAD,
    IntegrityError,
    ProviderError,
    SecretKey,
    available_backends,
    create_provider,
)
from .transport import (
    ProcessGroup,
    RequestHandle,
    StartupError,
    TransportError,
    read_roster,
    waitall,
    write_roster,
)

__version__ = "0.1.0"

__all__ = [
    "AesGcmProvider",
    "Frame",
    "FRAME_OVERHEAD",
    "IntegrityError",
    "ProviderError",
    "SecretKey",
    "available_backends",
    "create_provider",
    "ProcessGroup",
    "RequestHandle",
    "StartupError",
    "TransportError",
    "read_roster",
    "waitall",
    "write_roster",
    "__version__",
]
