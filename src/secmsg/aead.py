"""AES-GCM message sealing with a fresh random nonce per message.

A sealed message, a frame, travels as ``nonce || ciphertext || tag``: 12
nonce bytes up front, the 16-byte authentication tag at the end, 28
bytes of expansion total regardless of plaintext length.

A provider is any object with ``seal(plaintext)``, which returns the
frame as the wire body, and ``open(buf) -> bytes``, which takes any
byte-format buffer and raises ``IntegrityError`` when it is too short
to be a frame or fails authentication.  One instance must take
concurrent calls: a process group opens in its reader threads, one per
peer, while the caller's threads seal and open.  The transport and the
collectives need nothing more: neither derives a plaintext length from
a frame, so a provider whose frames expand by other than 28 bytes works
with both.
``create_provider`` builds one by backend name from ``BACKENDS``, which
holds one entry, ``AesGcmProvider`` (the ``cryptography`` package's
AES-GCM), until other ciphers are registered beside it.

The large-message path makes no copy beyond the AES work: ``seal``
encrypts straight into the buffer it returns, and ``open`` decrypts
from views of the buffer it is given.

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
    def from_hex(cls, text: str) -> "SecretKey":
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            # fromhex names the position of the fault, never the text,
            # which is key material
            raise ValueError(f"invalid key hex ({len(text)} characters): {exc}") from None
        return cls(raw)

    def __repr__(self) -> str:  # never leak key material in logs
        return f"SecretKey(<{len(self.data) * 8} bits>)"


def _frame_view(buf) -> memoryview:
    """A byte view of ``buf``; ``IntegrityError`` if it is too short to be a frame."""
    view = memoryview(buf)
    if len(view) < FRAME_OVERHEAD:
        raise IntegrityError(f"frame must be at least {FRAME_OVERHEAD} bytes, got {len(view)}")
    return view


class Frame(bytearray):
    """The buffer ``AesGcmProvider.seal`` returns, ``nonce || ciphertext || tag``.

    Its two methods only keep the benchmark's frame-packing probe working.
    """

    def to_bytes(self) -> "Frame":
        """This frame itself, not a copy; goes with the next benchmark change."""
        return self

    @staticmethod
    def from_bytes(raw):
        """``raw`` itself, once it passes ``open``'s length check; goes
        with the next benchmark change."""
        _frame_view(raw)
        return raw


class AesGcmProvider:
    """Seals and opens frames under one key with ``cryptography``'s AES-GCM.

    One instance may seal and open from several threads at once, as a
    process group needs.
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
        one new buffer: the frame, which is the wire body."""
        nonce = os.urandom(NONCE_LEN)
        frame = Frame(FRAME_OVERHEAD + len(plaintext))
        frame[:NONCE_LEN] = nonce
        self._aesgcm.encrypt_into(nonce, plaintext, None, memoryview(frame)[NONCE_LEN:])
        return frame

    def open(self, buf) -> bytes:
        """Decrypt and authenticate the frame in ``buf``, any byte-format
        buffer, and return the plaintext.

        Raises IntegrityError when ``buf`` is too short to be a frame or
        fails authentication; the error is deliberately distinct from
        transport-level failures.
        """
        view = _frame_view(buf)
        try:
            return self._aesgcm.decrypt(view[:NONCE_LEN], view[NONCE_LEN:], None)
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
