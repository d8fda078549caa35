import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from secmsg.aead import (
    FRAME_OVERHEAD,
    AesGcmProvider,
    NONCE_LEN,
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
    # the error names the fault, never the text, which is key material
    with pytest.raises(ValueError, match="position 40") as info:
        SecretKey.from_hex("ab" * 20 + "Zq" + "cd" * 10)
    assert "abab" not in str(info.value) and "cdcd" not in str(info.value)
    with pytest.raises(ValueError, match="3 characters"):
        SecretKey.from_hex("abc")


def test_one_provider_serves_several_threads_at_once(provider):
    # a process group opens on its reader threads while its caller seals
    sizes = [1, 1024, 65536, 300_000]
    start = threading.Barrier(4)
    failures = []

    def round_trips(offset):
        start.wait(10)
        for i in range(120):
            plaintext = os.urandom(sizes[(i + offset) % len(sizes)])
            if provider.open(provider.seal(plaintext)) != plaintext:
                failures.append(len(plaintext))

    threads = [threading.Thread(target=round_trips, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_backend_registry():
    assert "aes-gcm" in available_backends()
    with pytest.raises(ProviderError):
        create_provider("no-such-backend", KEY)


def test_empty_plaintext_frame_is_28_bytes(provider):
    frame = provider.seal(b"")
    assert len(frame) == 28
    assert provider.open(frame) == b""


def test_1024_byte_frame_is_1052_bytes(provider):
    frame = provider.seal(b"m" * 1024)
    assert len(frame) == 1052


@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 255, 256, 4096, 65536])
def test_round_trip_and_expansion(provider, length):
    plaintext = os.urandom(length)
    frame = provider.seal(plaintext)
    assert len(frame) - length == FRAME_OVERHEAD
    assert provider.open(bytes(frame)) == plaintext


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=4096))
def test_round_trip_property(plaintext):
    provider = AesGcmProvider(KEY)
    assert provider.open(provider.seal(plaintext)) == plaintext


def test_frame_layout_nonce_then_ciphertext(provider):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    frame = provider.seal(b"payload")
    # nonce || ciphertext || tag, as AES-GCM itself produces it
    nonce, ciphertext_and_tag = bytes(frame[:NONCE_LEN]), bytes(frame[NONCE_LEN:])
    assert ciphertext_and_tag == AESGCM(KEY.data).encrypt(nonce, b"payload", None)
    # the tag is the trailing 16 bytes: truncating it must break auth
    with pytest.raises(IntegrityError):
        provider.open(frame[:20])
    with pytest.raises(IntegrityError):
        provider.open(frame[:-1])


def test_frame_wraps_and_returns_its_buffer_without_copying(provider):
    # perfbench's frame-packing probe relies on both being identities
    frame = provider.seal(b"payload")
    assert isinstance(frame, bytearray)
    assert frame.to_bytes() is frame
    raw = bytes(frame)
    assert Frame.from_bytes(raw) is raw
    with pytest.raises(IntegrityError):
        Frame.from_bytes(raw[:FRAME_OVERHEAD - 1])
    assert provider.open(frame) == b"payload"


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview, Frame])
def test_open_takes_any_byte_buffer_and_rejects_short_ones(provider, kind):
    frame = provider.seal(b"payload")
    assert provider.open(kind(frame)) == b"payload"
    for length in range(FRAME_OVERHEAD):
        with pytest.raises(IntegrityError):
            provider.open(kind(frame[:length]))


def test_every_byte_flip_in_64_byte_frame_rejected(provider):
    plaintext = os.urandom(64 - FRAME_OVERHEAD)
    raw = provider.seal(plaintext)
    assert len(raw) == 64
    for position in range(64):
        corrupted = bytearray(raw)
        corrupted[position] ^= 0x01
        with pytest.raises(IntegrityError):
            provider.open(corrupted)


def test_random_single_bit_flips_rejected(provider):
    rng = __import__("random").Random(20240817)
    raw = provider.seal(os.urandom(256))
    nbits = len(raw) * 8
    for _ in range(10_000):
        bit = rng.randrange(nbits)
        corrupted = bytearray(raw)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityError):
            provider.open(corrupted)


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
        nonce = bytes(provider.seal(b"")[:NONCE_LEN])
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
