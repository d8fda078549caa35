import os
import platform
import resource
import sys
import threading

import pytest

from helpers import TEST_KEY, PaddedFrameProvider, run_ranks
from secmsg.aead import FRAME_OVERHEAD, NONCE_LEN, create_provider
from secmsg.collectives import (
    CollectiveIntegrityError,
    ProtocolError,
    alltoall,
    alltoallv,
    allgather,
    bcast,
    encrypted_allgather,
    encrypted_alltoall,
    encrypted_alltoallv,
    encrypted_bcast,
)
from secmsg.transport import HEADER, TransportError


class RecordingProvider:
    """Counts seal/open calls and remembers every nonce issued."""

    def __init__(self, key=TEST_KEY):
        self._inner = create_provider("aes-gcm", key)
        self.seal_calls = 0
        self.open_calls = 0
        self.nonces = []
        self.frame_lengths = []

    def seal(self, plaintext):
        self.seal_calls += 1
        frame = self._inner.seal(plaintext)
        self.nonces.append(bytes(frame[:NONCE_LEN]))
        self.frame_lengths.append(len(frame))
        return frame

    def open(self, buf):
        self.open_calls += 1
        return self._inner.open(buf)


def alltoall_oracle(sendbufs, rank):
    """recvbuf[i] at ``rank`` is what rank i addressed to ``rank``."""
    return [sendbufs[src][rank] for src in range(len(sendbufs))]


def both_providers(g):
    """The group's AES-GCM provider, and one whose frames are 40 bytes
    longer: the collectives must need nothing of a provider but seal and
    open."""
    return g.provider, PaddedFrameProvider()


def test_single_rank_degenerate_collectives():
    def fn(g):
        provider = g.provider
        assert encrypted_alltoall(g, provider, [b"self"]) == [b"self"]
        assert encrypted_allgather(g, provider, b"mine") == [b"mine"]
        assert encrypted_bcast(g, provider, 0, b"root") == b"root"
        assert encrypted_alltoallv(g, provider, [b"xyz"], [3]) == [b"xyz"]
        return True

    assert run_ranks(1, fn) == [True]


def test_plaintext_alltoall_matches_transpose_oracle():
    n = 4
    sendbufs = [[bytes([src * n + dst]) * 32 for dst in range(n)] for src in range(n)]

    def fn(g):
        return alltoall(g, sendbufs[g.rank])

    results = run_ranks(n, fn, with_provider=False)
    for rank in range(n):
        assert results[rank] == alltoall_oracle(sendbufs, rank)


@pytest.mark.parametrize("root", [0, 3])
def test_plaintext_bcast_roots(root):
    body = os.urandom(16384)

    def fn(g):
        return bcast(g, root, body if g.rank == root else None)

    assert run_ranks(4, fn, with_provider=False) == [body] * 4


def test_encrypted_alltoall_matches_oracle():
    n = 4
    length = 256
    sendbufs = [[bytes([src * n + dst]) * length for dst in range(n)] for src in range(n)]

    def fn(g):
        return [encrypted_alltoall(g, p, sendbufs[g.rank]) for p in both_providers(g)]

    results = run_ranks(n, fn)
    for rank in range(n):
        assert results[rank] == [alltoall_oracle(sendbufs, rank)] * 2


def test_encrypted_alltoall_rejects_unequal_lengths():
    def fn(g):
        if g.rank == 0:
            with pytest.raises(ValueError):
                encrypted_alltoall(g, g.provider, [b"a", b"bb"])
        return True

    assert run_ranks(2, fn) == [True, True]


def test_encrypted_bcast_16k_all_ranks_equal_root():
    body = os.urandom(16384)

    def fn(g):
        return encrypted_bcast(g, g.provider, 0, body if g.rank == 0 else None)

    assert run_ranks(4, fn) == [body] * 4


@pytest.mark.parametrize("root", [0, 1, 2])
def test_bcast_on_non_power_of_two_group(root):
    body = os.urandom(2048)

    def fn(g):
        return bcast(g, root, body if g.rank == root else None)

    assert run_ranks(3, fn, with_provider=False) == [body] * 3


def test_encrypted_allgather_across_threshold():
    threshold = 4096
    length = threshold  # at the threshold: rendezvous path, same contract
    def fn(g):
        mine = bytes([g.rank]) * length
        return [encrypted_allgather(g, p, mine) for p in both_providers(g)]

    results = run_ranks(4, fn, threshold=threshold)
    expected = [bytes([i]) * length for i in range(4)]
    assert results == [[expected] * 2] * 4


def test_zero_length_elements_round_trip_as_empty():
    def fn(g):
        provider = RecordingProvider()
        out = encrypted_alltoall(g, provider, [b""] * g.size)
        assert set(provider.frame_lengths) == {FRAME_OVERHEAD}
        return out

    results = run_ranks(2, fn)
    assert results == [[b"", b""], [b"", b""]]


def test_alltoall_seal_and_open_counts_equal_peer_count():
    # the self element never leaves the process, so it is not sealed
    n = 4

    def fn(g):
        provider = RecordingProvider()
        encrypted_alltoall(g, provider, [bytes(8)] * n)
        return provider.seal_calls, provider.open_calls

    assert run_ranks(n, fn) == [(n - 1, n - 1)] * n


def test_nonce_distinct_across_elements_of_one_call():
    n = 4

    def fn(g):
        provider = RecordingProvider()
        encrypted_alltoall(g, provider, [bytes(64)] * n)
        return provider.nonces

    for nonces in run_ranks(n, fn):
        assert len(set(nonces)) == len(nonces) == n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encrypted_collectives_seal_and_open_only_peer_traffic(n):
    def counts(call):
        provider = RecordingProvider()
        call(provider)
        return provider.seal_calls, provider.open_calls

    def fn(g):
        return {
            "alltoall": counts(lambda p: encrypted_alltoall(g, p, [bytes(8)] * n)),
            "alltoallv": counts(lambda p: encrypted_alltoallv(g, p, [bytes(8)] * n, [8] * n)),
            "allgather": counts(lambda p: encrypted_allgather(g, p, bytes(8))),
            "bcast": counts(lambda p: encrypted_bcast(g, p, 0, bytes(8) if g.rank == 0 else None)),
        }

    has_peer = int(n > 1)
    for rank, result in enumerate(run_ranks(n, fn)):
        assert result == {
            "alltoall": (n - 1, n - 1),
            "alltoallv": (n - 1, n - 1),
            "allgather": (has_peer, n - 1),
            "bcast": (has_peer, 0) if rank == 0 else (0, 1),
        }


def test_encrypted_self_slot_is_the_callers_object():
    def fn(g):
        sendbuf = [bytearray([g.rank, peer]) for peer in range(g.size)]
        received = encrypted_alltoall(g, g.provider, sendbuf)
        assert received[g.rank] is sendbuf[g.rank]
        assert encrypted_alltoallv(g, g.provider, sendbuf, [2] * g.size)[g.rank] is sendbuf[g.rank]
        mine = bytearray([g.rank])
        assert encrypted_allgather(g, g.provider, mine)[g.rank] is mine
        if g.rank == 0:
            assert encrypted_bcast(g, g.provider, 0, mine) is mine
        else:
            encrypted_bcast(g, g.provider, 0)
        return [bytes(element) for element in received]

    assert run_ranks(2, fn) == [
        [bytes([0, 0]), bytes([1, 0])],
        [bytes([0, 1]), bytes([1, 1])],
    ]


@pytest.mark.parametrize("collective", ["alltoall", "allgather"])
@pytest.mark.parametrize("length", [1024, 131072], ids=["eager", "rendezvous"])
def test_peer_elements_travel_sealed(collective, length):
    # n=2: each rank sends its peer one message whose body is the sealed
    # element (plaintext + 28); a rendezvous adds the one-byte CTS this
    # rank answers its peer's RTS with
    threshold = 131072

    def call(g):
        element = bytes([g.rank]) * length
        if collective == "alltoall":
            return encrypted_alltoall(g, g.provider, [element] * 2)
        return encrypted_allgather(g, g.provider, element)

    def fn(g):
        before = g.bytes_sent
        received = call(g)
        return received, g.bytes_sent - before

    cts = 1 if length + FRAME_OVERHEAD >= threshold else 0
    expected = [bytes([0]) * length, bytes([1]) * length]
    for received, sent in run_ranks(2, fn, threshold=threshold):
        assert received == expected
        assert sent == HEADER.size + length + FRAME_OVERHEAD + cts

    # rank 1 seals under a different key, so each rank rejects its peer's
    # element and names the peer
    def tampered(g):
        with pytest.raises(CollectiveIntegrityError) as info:
            call(g)
        return info.value.source_rank

    assert run_ranks(2, tampered, threshold=threshold, keys=[TEST_KEY, bytes(32)]) == [1, 0]


def test_allgather_seals_own_element_once():
    def fn(g):
        provider = RecordingProvider()
        encrypted_allgather(g, provider, b"elem")
        return provider.seal_calls

    assert run_ranks(4, fn) == [1, 1, 1, 1]


def test_integrity_failure_names_source_rank():
    # rank 1 seals under a different key, so its elements fail to open
    keys = [TEST_KEY, bytes(32)]

    def fn(g):
        provider = g.provider
        try:
            encrypted_alltoall(g, provider, [bytes(16)] * 2)
        except CollectiveIntegrityError as exc:
            return exc.source_rank
        return None

    results = run_ranks(2, fn, keys=keys)
    assert results[0] == 1  # rank 0 rejects rank 1's element
    assert results[1] == 0


def test_alltoallv_matches_oracle_with_mod3_lengths():
    n = 3
    sendbufs = [
        [bytes([src]) * ((src + dst) % 3) for dst in range(n)] for src in range(n)
    ]

    def fn(g):
        recv_lengths = [(src + g.rank) % 3 for src in range(n)]
        return [
            encrypted_alltoallv(g, p, sendbufs[g.rank], recv_lengths) for p in both_providers(g)
        ]

    results = run_ranks(n, fn)
    for rank in range(n):
        assert results[rank] == [alltoall_oracle(sendbufs, rank)] * 2


def test_alltoallv_equal_lengths_reduces_to_alltoall():
    n = 2
    sendbufs = [[bytes([src * n + dst]) * 64 for dst in range(n)] for src in range(n)]

    def fn(g):
        fixed = encrypted_alltoall(g, g.provider, sendbufs[g.rank])
        variable = encrypted_alltoallv(g, g.provider, sendbufs[g.rank], [64] * n)
        return fixed, variable

    for fixed, variable in run_ranks(n, fn):
        assert fixed == variable


def test_alltoallv_inconsistent_lengths_fails_before_data():
    def fn(g):
        if g.rank == 0:
            sendbuf = [b"", b"xxxx"]      # 4 bytes headed to rank 1
            recv_lengths = [0, 5]         # but expects 5 back (actual: 3)
        else:
            sendbuf = [b"abc", b"yy"]     # 3 bytes headed to rank 0
            recv_lengths = [7, 2]         # but expects 7 back (actual: 4)
        data_bytes_before = g.bytes_sent
        # the message quotes the lengths the caller passed, not frame lengths
        with pytest.raises(ProtocolError, match="^rank 0 will send 4 bytes to rank 1, which expects 7$"):
            encrypted_alltoallv(g, g.provider, sendbuf, recv_lengths)
        # only the length vectors moved, no element data
        meta_traffic = g.bytes_sent - data_bytes_before
        return meta_traffic

    wait = run_ranks(2, fn)
    for meta in wait:
        assert meta == 12 + 8 * 2  # one header plus 2n u32s


@pytest.mark.parametrize(
    "wrong_about, encrypted",
    [("from_peer", False), ("self", False), ("from_peer", True), ("self", True)],
    ids=["from_peer", "self", "from_peer-encrypted", "self-encrypted"],
)
def test_alltoallv_one_sided_mismatch_fails_on_every_rank(wrong_about, encrypted):
    # rank 0 alone is wrong about one element: rank 1's in one case, its
    # own in the other, so no peer sees it in the lengths it is sent; the
    # barrier keeps every group open until all ranks have left alltoallv,
    # so a rank left blocked in recv is not released by a peer closing
    n = 3
    finished = threading.Barrier(n, timeout=10)
    sendbufs = [[bytes([src]) * (src + dst + 1) for dst in range(n)] for src in range(n)]

    def fn(g):
        recv_lengths = [src + g.rank + 1 for src in range(n)]
        if g.rank == 0:
            recv_lengths[1 if wrong_about == "from_peer" else 0] += 1
        try:
            if encrypted:
                encrypted_alltoallv(g, g.provider, sendbufs[g.rank], recv_lengths)
            else:
                alltoallv(g, sendbufs[g.rank], recv_lengths)
        except ProtocolError as exc:
            verdict = str(exc)
        else:
            verdict = None
        finished.wait()
        return verdict

    expected = {
        "from_peer": "rank 1 will send 2 bytes to rank 0, which expects 3",
        "self": "rank 0 will send 1 bytes to rank 0, which expects 2",
    }[wrong_about]
    assert run_ranks(n, fn, timeout=20) == [expected] * n


@pytest.mark.parametrize("bad", [-1, -FRAME_OVERHEAD, 1 << 32])
def test_alltoallv_recv_length_outside_u32_fails_before_sending(bad):
    def fn(g):
        before = g.bytes_sent
        for call in (alltoallv, lambda g, *a: encrypted_alltoallv(g, g.provider, *a)):
            with pytest.raises(ValueError):
                call(g, [b"", b""], [0, bad] if g.rank == 0 else [bad, 0])
        return g.bytes_sent - before

    assert run_ranks(2, fn) == [0, 0]


class Oversized:
    """A send element that claims 2**32 bytes without holding them."""

    def __len__(self):
        return 1 << 32


def test_alltoallv_send_length_outside_u32_fails_before_sending():
    def fn(g):
        before = g.bytes_sent
        for call in (alltoallv, lambda g, *a: encrypted_alltoallv(g, g.provider, *a)):
            with pytest.raises(ValueError):
                call(g, [b"", Oversized()] if g.rank == 0 else [Oversized(), b""], [0, 0])
        return g.bytes_sent - before

    assert run_ranks(2, fn) == [0, 0]


def test_alltoall_self_slot_is_the_callers_object():
    def fn(g):
        sendbuf = [bytearray([g.rank, peer]) for peer in range(g.size)]
        received = alltoall(g, sendbuf)
        assert received[g.rank] is sendbuf[g.rank]
        return [bytes(element) for element in received]

    assert run_ranks(2, fn, with_provider=False) == [
        [bytes([0, 0]), bytes([1, 0])],
        [bytes([0, 1]), bytes([1, 1])],
    ]


def test_plaintext_allgather_and_alltoallv():
    n = 3

    def fn(g):
        gathered = allgather(g, bytes([g.rank]) * 4)
        sendbuf = [bytes([g.rank]) * 2 for _ in range(n)]
        varied = alltoallv(g, sendbuf, [2] * n)
        return gathered, varied

    for rank, (gathered, varied) in enumerate(run_ranks(n, fn, with_provider=False)):
        assert gathered == [bytes([i]) * 4 for i in range(n)]
        assert varied == [bytes([i]) * 2 for i in range(n)]


@pytest.mark.parametrize("encrypted", [False, True], ids=["plain", "encrypted"])
def test_allgather_unequal_lengths_fails_on_every_rank(encrypted):
    # rank 2 contributes 20 bytes, the others 10; the barrier keeps every
    # group open until all ranks have left allgather, so a rank left
    # blocked in recv is not released by a peer closing its connections
    finished = threading.Barrier(3, timeout=10)

    def fn(g):
        element = bytes(20 if g.rank == 2 else 10)
        try:
            if encrypted:
                encrypted_allgather(g, g.provider, element)
            else:
                allgather(g, element)
        except ProtocolError as exc:
            verdict = str(exc)
        else:
            verdict = None
        finished.wait()
        return verdict

    assert run_ranks(3, fn) == [
        "rank 2 contributed 20 bytes, expected 10",
        "rank 2 contributed 20 bytes, expected 10",
        "rank 0 contributed 10 bytes, expected 20",
    ]


@pytest.mark.parametrize(
    "n, call",
    [
        (2, lambda g: alltoall(g, [b"x"] * (1 if g.rank == 0 else 2))),
        (2, lambda g: encrypted_alltoall(g, g.provider, [b"x", b"yy" if g.rank == 0 else b"y"])),
        (2, lambda g: bcast(g, 0)),
        (4, lambda g: bcast(g, 0)),
        (2, lambda g: encrypted_bcast(g, g.provider, 0)),
        (2, lambda g: alltoallv(g, [b"x", b"y"], [1, -1] if g.rank == 0 else [1, 1])),
        (2, lambda g: encrypted_alltoallv(
            g, g.provider, [b"x", b"y"], [1, -1] if g.rank == 0 else [1, 1])),
    ],
    ids=["alltoall", "encrypted_alltoall", "bcast", "bcast-4-ranks", "encrypted_bcast",
         "alltoallv", "encrypted_alltoallv"],
)
def test_a_rank_that_abandons_a_collective_releases_its_peers(n, call):
    # rank 0 alone passes bad arguments (the bcast root supplies no
    # body), catches the ValueError and leaves its group normally; every
    # peer still waiting on it, directly or through another rank, must
    # fail with a TransportError instead of blocking
    def fn(g):
        try:
            call(g)
        except (ValueError, TransportError) as exc:
            return exc
        return None

    results = run_ranks(n, fn, timeout=20)
    assert isinstance(results[0], ValueError), results
    assert all(isinstance(r, TransportError) for r in results[1:]), results


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy that keeps freed frames mapped is glibc's",
)
def test_encrypted_alltoall_256k_does_not_fault_pages_in_per_op():
    # freed 256 KiB frames must be reused, not unmapped or trimmed and
    # faulted in again by the next op (64 faults per frame each time)
    ops = 100

    def fn(g):
        sendbuf = [os.urandom(256 * 1024) for _ in range(g.size)]
        for _ in range(20):
            encrypted_alltoall(g, g.provider, sendbuf)
        g.barrier()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(ops):
            encrypted_alltoall(g, g.provider, sendbuf)
        g.barrier()
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / ops

    faults_per_op = run_ranks(2, fn)[0]
    assert faults_per_op < 16
