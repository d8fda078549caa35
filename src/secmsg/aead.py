"""AES-GCM message framing with a fresh random nonce per message.

A sealed message travels as ``nonce || ciphertext || tag``: 12 nonce bytes
up front, the 16-byte authentication tag at the end, 28 bytes of expansion
total regardless of plaintext length.

A provider is any object with ``seal(bytes) -> Frame`` and
``open(Frame) -> bytes``; ``open`` raises ``IntegrityError`` when a frame
fails authentication, as ``Frame.from_bytes`` does for a short buffer.
The transport and the collectives need nothing more: neither derives a
plaintext length from a frame, so a provider whose frames expand by
other than 28 bytes works with both.
``create_provider`` builds one by backend name from ``BACKENDS``, which
holds one entry, ``AesGcmProvider`` (the ``cryptography`` package's
AES-GCM), until other ciphers are registered beside it.

The large-message path makes no copy beyond the AES work: ``seal``
encrypts straight into the one buffer that becomes the wire body,
``Frame`` is a view over such a buffer (``to_bytes``/``from_bytes`` wrap
it, never copy it), and ``open`` decrypts from memoryviews.

Importing this module sets the process's glibc heap policy (see
``_keep_freed_heap_mapped``): buffers of up to 32 MiB come from the heap
instead of their own mappings, and up to 64 MiB of free heap per arena
stays mapped, so the large frames of consecutive messages reuse memory
that is already faulted in.  It does not load ``cryptography``; the
first ``AesGcmProvider`` does.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

NONCE_LEN = 12
TAG_LEN = 16
FRAME_OVERHEAD = NONCE_LEN + TAG_LEN  # serialized frame is plaintext + 28

DEFAULT_BACKEND = "aes-gcm"

# glibc mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped() -> None:
    """Stop glibc from handing large freed buffers back to the kernel.

    By default a buffer above the (dynamic) mmap threshold gets its own
    mapping, and free heap above 128 KiB is trimmed; either way every
    message of a few hundred KiB faults its pages in afresh, a few
    microseconds per 4 KiB page.  Raising both thresholds keeps that memory
    mapped for reuse, as MPI libraries do for registered buffers.  Both
    are needed: with only one raised, freed frames still leave the heap.
    The cost is that up to 64 MiB of free heap per arena stays resident.
    Where there is no glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap_mapped()


class IntegrityError(Exception):
    """A frame failed authentication (tampered, truncated, or wrong key)."""


class ProviderError(Exception):
    """No AEAD backend is registered under the requested name."""


@dataclass(frozen=True)
class SecretKey:
    """A 128- or 256-bit AES-GCM key."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) not in (16, 32):
            raise ValueError(
                f"key must be 16 or 32 bytes, got {len(self.data)}"
            )

    @classmethod
    def generate(cls, bits: int = 256) -> "SecretKey":
        if bits not in (128, 256):
            raise ValueError("key size must be 128 or 256 bits")
        return cls(os.urandom(bits // 8))

    @classmethod
    def from_hex(cls, text: str) -> "SecretKey":
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ValueError(f"invalid key hex: {text!r}") from exc
        return cls(raw)

    def __repr__(self) -> str:  # never leak key material in logs
        return f"SecretKey(<{len(self.data) * 8} bits>)"


class Frame:
    """One sealed message held in one buffer: ``nonce || ciphertext || tag``.

    ``nonce`` is the 12-byte prefix and ``ciphertext_and_tag`` a memoryview
    of the rest, with the tag in the last 16 bytes.  ``from_bytes`` wraps
    a received buffer and ``to_bytes`` returns the frame's own buffer;
    neither copies, so the buffer must not be modified while the frame is
    in use.
    """

    __slots__ = ("_buf",)

    @property
    def nonce(self) -> bytes:
        return bytes(self._buf[:NONCE_LEN])

    @property
    def ciphertext_and_tag(self) -> memoryview:
        return memoryview(self._buf)[NONCE_LEN:]

    def to_bytes(self) -> bytes | bytearray:
        return self._buf

    @classmethod
    def from_bytes(cls, raw: bytes | bytearray) -> "Frame":
        if len(raw) < FRAME_OVERHEAD:
            raise IntegrityError(f"frame must be at least {FRAME_OVERHEAD} bytes, got {len(raw)}")
        frame = cls()
        frame._buf = raw
        return frame


class AesGcmProvider:
    """Seals and opens frames under one key with ``cryptography``'s AES-GCM.

    Instances are independent and may be used from different threads
    simultaneously; a single instance is not required to support
    concurrent calls.
    """

    backend = "aes-gcm"

    def __init__(self, key: SecretKey | bytes):
        # imported here so that commands doing no crypto (fit, predict,
        # validate) never load the OpenSSL bindings
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        self.key = key if isinstance(key, SecretKey) else SecretKey(key)
        self._aesgcm = AESGCM(self.key.data)

    def seal(self, plaintext: bytes) -> Frame:
        """Encrypt ``plaintext`` under a fresh uniformly random nonce, into
        one new buffer that ``Frame.to_bytes`` returns as is."""
        nonce = os.urandom(NONCE_LEN)
        buf = bytearray(FRAME_OVERHEAD + len(plaintext))
        buf[:NONCE_LEN] = nonce
        self._aesgcm.encrypt_into(nonce, plaintext, None, memoryview(buf)[NONCE_LEN:])
        return Frame.from_bytes(buf)

    def open(self, frame: Frame) -> bytes:
        """Decrypt and authenticate ``frame``, returning the plaintext.

        Raises IntegrityError on any authentication failure; the error is
        deliberately distinct from transport-level failures.
        """
        try:
            return self._aesgcm.decrypt(frame.nonce, frame.ciphertext_and_tag, None)
        except Exception as exc:
            raise IntegrityError("frame failed authentication") from exc


BACKENDS: dict[str, type[AesGcmProvider]] = {
    AesGcmProvider.backend: AesGcmProvider,
}


def available_backends() -> list[str]:
    return sorted(BACKENDS)


def create_provider(backend: str, key: SecretKey | bytes) -> AesGcmProvider:
    try:
        cls = BACKENDS[backend]
    except KeyError:
        known = ", ".join(available_backends())
        raise ProviderError(f"unknown AEAD backend {backend!r} (have: {known})")
    return cls(key)
