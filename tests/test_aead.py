import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from secmsg.aead import (
    FRAME_OVERHEAD,
    AesGcmProvider,
    Frame,
    IntegrityError,
    ProviderError,
    SecretKey,
    available_backends,
    create_provider,
)

KEY = SecretKey(bytes(range(32)))


@pytest.fixture()
def provider():
    return AesGcmProvider(KEY)


def test_key_lengths():
    SecretKey(b"x" * 16)
    SecretKey(b"x" * 32)
    for bad in (0, 1, 15, 24, 31, 33):
        with pytest.raises(ValueError):
            SecretKey(b"x" * bad)


def test_key_from_hex_and_repr():
    k = SecretKey.from_hex("00" * 16)
    assert k.data == bytes(16)
    assert "00" * 16 not in repr(k)
    with pytest.raises(ValueError):
        SecretKey.from_hex("not hex")


def test_backend_registry():
    assert "aes-gcm" in available_backends()
    with pytest.raises(ProviderError):
        create_provider("no-such-backend", KEY)


def test_empty_plaintext_frame_is_28_bytes(provider):
    frame = provider.seal(b"")
    assert len(frame.to_bytes()) == 28
    assert provider.open(frame) == b""


def test_1024_byte_frame_is_1052_bytes(provider):
    frame = provider.seal(b"m" * 1024)
    assert len(frame.to_bytes()) == 1052


@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 255, 256, 4096, 65536])
def test_round_trip_and_expansion(provider, length):
    plaintext = os.urandom(length)
    frame = provider.seal(plaintext)
    raw = frame.to_bytes()
    assert len(raw) - length == FRAME_OVERHEAD
    assert provider.open(Frame.from_bytes(raw)) == plaintext


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=4096))
def test_round_trip_property(plaintext):
    provider = AesGcmProvider(KEY)
    assert provider.open(provider.seal(plaintext)) == plaintext


def test_frame_layout_nonce_then_ciphertext(provider):
    frame = provider.seal(b"payload")
    raw = frame.to_bytes()
    assert raw[:12] == frame.nonce
    assert raw[12:] == frame.ciphertext_and_tag
    # the tag is the trailing 16 bytes: truncating it must break auth
    with pytest.raises(IntegrityError):
        Frame.from_bytes(raw[:20])
    with pytest.raises(IntegrityError):
        provider.open(Frame.from_bytes(raw[:-1]))


def test_frame_wraps_and_returns_its_buffer_without_copying(provider):
    raw = provider.seal(b"payload").to_bytes()
    frame = Frame.from_bytes(raw)
    assert frame.ciphertext_and_tag.obj is raw
    assert frame.to_bytes() is raw
    assert provider.open(frame) == b"payload"


def test_every_byte_flip_in_64_byte_frame_rejected(provider):
    plaintext = os.urandom(64 - FRAME_OVERHEAD)
    raw = provider.seal(plaintext).to_bytes()
    assert len(raw) == 64
    for position in range(64):
        corrupted = bytearray(raw)
        corrupted[position] ^= 0x01
        with pytest.raises(IntegrityError):
            provider.open(Frame.from_bytes(bytes(corrupted)))


def test_random_single_bit_flips_rejected(provider):
    rng = __import__("random").Random(20240817)
    raw = provider.seal(os.urandom(256)).to_bytes()
    nbits = len(raw) * 8
    for _ in range(10_000):
        bit = rng.randrange(nbits)
        corrupted = bytearray(raw)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityError):
            provider.open(Frame.from_bytes(bytes(corrupted)))


def test_wrong_key_rejected(provider):
    other = AesGcmProvider(SecretKey(os.urandom(32)))
    frame = provider.seal(b"secret")
    with pytest.raises(IntegrityError):
        other.open(frame)


def test_128_bit_key_round_trip():
    provider = AesGcmProvider(SecretKey(os.urandom(16)))
    assert provider.open(provider.seal(b"short key works")) == b"short key works"


def test_nonce_freshness_100k_seals(provider):
    seen = set()
    for _ in range(100_000):
        nonce = provider.seal(b"").nonce
        assert nonce not in seen
        seen.add(nonce)


def test_independent_instances_same_key_interoperate():
    a = AesGcmProvider(KEY)
    b = AesGcmProvider(KEY)
    assert b.open(a.seal(b"cross")) == b"cross"


def test_cryptography_is_loaded_only_when_a_provider_is_built():
    # fit, predict and validate do no crypto, so importing the CLI must
    # not load the OpenSSL bindings; building a provider does
    script = (
        "import sys, secmsg.cli\n"
        "print('cryptography' in sys.modules)\n"
        "from secmsg.aead import create_provider\n"
        "create_provider('aes-gcm', bytes(32))\n"
        "print('cryptography' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.split() == ["False", "True"]
