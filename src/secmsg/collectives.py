"""Encrypted collectives: seal every outgoing element, run the plaintext
collective, open every incoming element.

The plaintext collectives are deliberately simple: broadcast walks a
binomial tree, and ``alltoall`` is the one pairwise exchange.  It is
rank-ordered (the lower rank of each pair sends first), which keeps
rendezvous handshakes strictly sequential per connection: the transport
reads a rendezvous body straight after its RTS header, so a connection
must not carry rendezvous transfers in both directions at once (if it
does, both ranks fail with ``ConnectionLost``).  ``allgather``
runs ``alltoall`` and then checks the contributed lengths; ``alltoallv``
allgathers every rank's length vectors, checks the whole geometry and
then runs ``alltoall``.  Both check only after an exchange has completed
on every rank, so every rank sees the same lengths and reaches the same
verdict.

Self-addressed elements bypass the wire but are still sealed and opened,
so every rank performs exactly ``n`` seal calls and ``n`` open calls in
an all-to-all of group size ``n``.  The sealed frames go out as plain
messages, so the transport's eager/rendezvous split falls on the frame
length (plaintext + 28), not on the plaintext length as it does for the
point-to-point encrypted calls.
"""

from __future__ import annotations

import struct

from .aead import AesGcmProvider, Frame, FRAME_OVERHEAD, IntegrityError
from .transport import COLLECTIVE_TAG, MAX_BODY, ProcessGroup, TransportError


class ProtocolError(TransportError):
    """The ranks disagree about the collective's buffer geometry."""


class CollectiveIntegrityError(IntegrityError):
    """An element failed authentication; carries the offending source rank."""

    def __init__(self, source_rank: int):
        super().__init__(f"element from rank {source_rank} failed authentication")
        self.source_rank = source_rank


def _exchange(g: ProcessGroup, peer: int, payload: bytes) -> bytes:
    # lower rank sends first; the higher receives first, so the pair
    # never has two rendezvous handshakes crossing on one connection
    if g.rank < peer:
        g.send(peer, COLLECTIVE_TAG, payload)
        return g.recv(peer, COLLECTIVE_TAG)
    received = g.recv(peer, COLLECTIVE_TAG)
    g.send(peer, COLLECTIVE_TAG, payload)
    return received


def alltoall(g: ProcessGroup, sendbuf: list[bytes]) -> list[bytes]:
    """Each rank i receives sendbuf[i] of every rank; pairwise exchange.

    The self slot of the result is the caller's own ``sendbuf[g.rank]``
    object, not a copy.
    """
    if len(sendbuf) != g.size:
        raise ValueError(f"sendbuf must have {g.size} elements, got {len(sendbuf)}")
    recvbuf = list(sendbuf)
    for peer in range(g.size):
        if peer != g.rank:
            recvbuf[peer] = _exchange(g, peer, sendbuf[peer])
    return recvbuf


def allgather(g: ProcessGroup, element: bytes) -> list[bytes]:
    """Every rank ends up with [rank 0's element, ..., rank n-1's element].

    Lengths are checked only after every exchange has completed, so a
    mismatch raises ProtocolError on every rank instead of leaving a peer
    blocked on an exchange that will never come.
    """
    result = alltoall(g, [element] * g.size)
    for peer, received in enumerate(result):
        if len(received) != len(element):
            raise ProtocolError(
                f"rank {peer} contributed {len(received)} bytes, expected {len(element)}"
            )
    return result


def bcast(g: ProcessGroup, root: int, body: bytes | None = None) -> bytes:
    """Binomial-tree broadcast; returns the root's body at every rank.

    The root gets back the object it was given, not a copy, as does the
    self slot of ``alltoall``.
    """
    if not 0 <= root < g.size:
        raise ValueError(f"root {root} out of range for group of {g.size}")
    if g.rank == root:
        if body is None:
            raise ValueError("root must supply a body")
        data = body
    else:
        data = b""

    vrank = (g.rank - root) % g.size
    mask = 1
    while mask < g.size:
        if vrank & mask:
            src = (vrank - mask + root) % g.size
            data = g.recv(src, COLLECTIVE_TAG)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < g.size:
            dest = (vrank + mask + root) % g.size
            g.send(dest, COLLECTIVE_TAG, data)
        mask >>= 1
    return data


def _check_arguments(n: int, sendbuf: list[bytes], recv_lengths: list[int]) -> None:
    if len(sendbuf) != n or len(recv_lengths) != n:
        raise ValueError(f"sendbuf and recv_lengths must each have {n} elements")
    if not all(0 <= length <= MAX_BODY for length in recv_lengths):
        raise ValueError(f"recv_lengths must be in [0, {MAX_BODY}]")


def alltoallv(g: ProcessGroup, sendbuf: list[bytes], recv_lengths: list[int]) -> list[bytes]:
    """Variable-length all-to-all.

    ``recv_lengths[i]`` is the number of bytes this rank expects from
    rank i.  Every rank first gathers every rank's send and receive
    length vectors and checks the whole n x n geometry, so a mismatch
    anywhere raises ProtocolError on every rank before any data moves.
    """
    n = g.size
    _check_arguments(n, sendbuf, recv_lengths)
    lengths = struct.Struct(f"<{2 * n}I")
    mine = lengths.pack(*(len(element) for element in sendbuf), *recv_lengths)
    rows = [lengths.unpack(row) for row in allgather(g, mine)]
    for src in range(n):
        for dst in range(n):
            if rows[src][dst] != rows[dst][n + src]:
                raise ProtocolError(
                    f"rank {src} will send {rows[src][dst]} bytes to rank {dst}, "
                    f"which expects {rows[dst][n + src]}"
                )
    return alltoall(g, sendbuf)


def _seal_all(provider: AesGcmProvider, elements: list[bytes]) -> list[bytes]:
    return [provider.seal(element).to_bytes() for element in elements]


def _open_from(provider: AesGcmProvider, blob: bytes, source_rank: int) -> bytes:
    try:
        return provider.open(Frame.from_bytes(blob))
    except (IntegrityError, ValueError) as exc:
        raise CollectiveIntegrityError(source_rank) from exc


def encrypted_alltoall(
    g: ProcessGroup, provider: AesGcmProvider, sendbuf: list[bytes]
) -> list[bytes]:
    """All-to-all of sealed elements; each element gets a fresh nonce."""
    if len(sendbuf) != g.size:
        raise ValueError(f"sendbuf must have {g.size} elements, got {len(sendbuf)}")
    lengths = {len(element) for element in sendbuf}
    if len(lengths) > 1:
        raise ValueError("alltoall elements must all have the same length")
    enc_sendbuf = _seal_all(provider, sendbuf)
    enc_recvbuf = alltoall(g, enc_sendbuf)
    return [_open_from(provider, blob, src) for src, blob in enumerate(enc_recvbuf)]


def encrypted_allgather(
    g: ProcessGroup, provider: AesGcmProvider, element: bytes
) -> list[bytes]:
    """Allgather where each rank seals its own element exactly once."""
    sealed = provider.seal(element).to_bytes()
    enc_all = allgather(g, sealed)
    return [_open_from(provider, blob, src) for src, blob in enumerate(enc_all)]


def encrypted_bcast(
    g: ProcessGroup, provider: AesGcmProvider, root: int, body: bytes | None = None
) -> bytes:
    """Broadcast with one seal at the root and one open per rank."""
    sealed = None
    if g.rank == root:
        if body is None:
            raise ValueError("root must supply a body")
        sealed = provider.seal(body).to_bytes()
    frame = bcast(g, root, sealed)
    return _open_from(provider, frame, root)


def encrypted_alltoallv(
    g: ProcessGroup,
    provider: AesGcmProvider,
    sendbuf: list[bytes],
    recv_lengths: list[int],
) -> list[bytes]:
    """Variable-length encrypted all-to-all.

    Encrypted elements are each 28 bytes longer than their plaintext, so
    the wire-level length vector is recomputed with the frame expansion
    added per element.
    """
    _check_arguments(g.size, sendbuf, recv_lengths)
    enc_sendbuf = _seal_all(provider, sendbuf)
    enc_recv_lengths = [length + FRAME_OVERHEAD for length in recv_lengths]
    enc_recvbuf = alltoallv(g, enc_sendbuf, enc_recv_lengths)
    return [_open_from(provider, blob, src) for src, blob in enumerate(enc_recvbuf)]
