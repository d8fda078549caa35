"""Encrypted collectives: seal every element bound for a peer, run the
plaintext collective, open every element a peer sent.

The plaintext collectives are deliberately simple: broadcast walks a
binomial tree, and ``alltoall`` is the one pairwise exchange.  It is
rank-ordered (the lower rank of each pair sends first), which keeps
rendezvous handshakes strictly sequential per connection: the transport
reads a rendezvous body straight after its RTS header, so a connection
must not carry rendezvous transfers in both directions at once (if it
does, both ranks fail with ``ConnectionLost``).

Lengths are checked on what the caller passed, never on sealed frames.
``alltoallv`` and ``encrypted_alltoallv`` allgather every rank's length
vectors and check the whole geometry before anything is sealed or any
element moves; ``allgather`` and ``encrypted_allgather`` check the
contributed lengths after the exchange, the encrypted one after opening.
Each check runs only once an exchange has completed on every rank, so
every rank sees the same lengths and reaches the same verdict, and a
``ProtocolError`` quotes the caller's plaintext lengths.  The
collectives therefore need nothing of a provider but ``seal`` and
``open``, whatever a frame's expansion.

Only bytes that leave the process are sealed.  A self-addressed element
never reaches the wire, so it is neither sealed nor opened: the self
slot of the result is the caller's own object, as in ``alltoall``.  In
an all-to-all of group size ``n`` every rank therefore makes exactly
``n - 1`` seal calls and ``n - 1`` open calls; ``encrypted_allgather``
seals its element once (not at all when ``n == 1``) and opens the
``n - 1`` peer frames; the ``encrypted_bcast`` root seals once when it
has a peer and opens nothing, and every other rank opens once.  The
sealed frames go out, unwrapped, as plain messages, so the transport's
eager/rendezvous split falls on the frame length (plaintext + 28), not
on the plaintext length as it does for the point-to-point encrypted
calls.
"""

from __future__ import annotations

import struct

from .aead import AesGcmProvider, IntegrityError
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


def _check_gathered(gathered: list[bytes], length: int) -> list[bytes]:
    for peer, received in enumerate(gathered):
        if len(received) != length:
            raise ProtocolError(f"rank {peer} contributed {len(received)} bytes, expected {length}")
    return gathered


def allgather(g: ProcessGroup, element: bytes) -> list[bytes]:
    """Every rank ends up with [rank 0's element, ..., rank n-1's element].

    Lengths are checked only after every exchange has completed, so a
    mismatch raises ProtocolError on every rank instead of leaving a peer
    blocked on an exchange that will never come.
    """
    return _check_gathered(alltoall(g, [element] * g.size), len(element))


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


def _check_geometry(g: ProcessGroup, sendbuf: list[bytes], recv_lengths: list[int]) -> None:
    """Check the arguments, then allgather every rank's send and receive
    length vectors and check the whole n x n geometry."""
    n = g.size
    if len(sendbuf) != n or len(recv_lengths) != n:
        raise ValueError(f"sendbuf and recv_lengths must each have {n} elements")
    send_lengths = [len(element) for element in sendbuf]
    if max(send_lengths) > MAX_BODY:
        raise ValueError(f"sendbuf elements must be at most {MAX_BODY} bytes")
    if not all(0 <= length <= MAX_BODY for length in recv_lengths):
        raise ValueError(f"recv_lengths must be in [0, {MAX_BODY}]")
    lengths = struct.Struct(f"<{2 * n}I")
    mine = lengths.pack(*send_lengths, *recv_lengths)
    rows = [lengths.unpack(row) for row in allgather(g, mine)]
    for src in range(n):
        for dst in range(n):
            if rows[src][dst] != rows[dst][n + src]:
                raise ProtocolError(
                    f"rank {src} will send {rows[src][dst]} bytes to rank {dst}, "
                    f"which expects {rows[dst][n + src]}"
                )


def alltoallv(g: ProcessGroup, sendbuf: list[bytes], recv_lengths: list[int]) -> list[bytes]:
    """Variable-length all-to-all.

    ``recv_lengths[i]`` is the number of bytes this rank expects from
    rank i.  Every rank first gathers every rank's send and receive
    length vectors and checks the whole n x n geometry, so a mismatch
    anywhere raises ProtocolError on every rank before any data moves.
    """
    _check_geometry(g, sendbuf, recv_lengths)
    return alltoall(g, sendbuf)


def _open_from(provider: AesGcmProvider, blob: bytes, source_rank: int) -> bytes:
    try:
        return provider.open(blob)
    except IntegrityError as exc:
        raise CollectiveIntegrityError(source_rank) from exc


def _open_peers(
    g: ProcessGroup, provider: AesGcmProvider, received: list[bytes], own: bytes
) -> list[bytes]:
    """Open every frame a peer sent; the self slot becomes ``own``."""
    return [
        own if src == g.rank else _open_from(provider, blob, src)
        for src, blob in enumerate(received)
    ]


def _sealed_alltoall(
    g: ProcessGroup, provider: AesGcmProvider, sendbuf: list[bytes]
) -> list[bytes]:
    sealed = [
        element if dst == g.rank else provider.seal(element)
        for dst, element in enumerate(sendbuf)
    ]
    return _open_peers(g, provider, alltoall(g, sealed), sendbuf[g.rank])


def encrypted_alltoall(
    g: ProcessGroup, provider: AesGcmProvider, sendbuf: list[bytes]
) -> list[bytes]:
    """All-to-all of sealed elements; each element gets a fresh nonce."""
    if len(sendbuf) != g.size:
        raise ValueError(f"sendbuf must have {g.size} elements, got {len(sendbuf)}")
    lengths = {len(element) for element in sendbuf}
    if len(lengths) > 1:
        raise ValueError("alltoall elements must all have the same length")
    return _sealed_alltoall(g, provider, sendbuf)


def encrypted_allgather(
    g: ProcessGroup, provider: AesGcmProvider, element: bytes
) -> list[bytes]:
    """Allgather where each rank seals its own element once, and only if
    it has a peer; the contributed lengths are checked on the opened
    plaintexts."""
    sealed = provider.seal(element) if g.size > 1 else element
    received = alltoall(g, [sealed] * g.size)
    return _check_gathered(_open_peers(g, provider, received, element), len(element))


def encrypted_bcast(
    g: ProcessGroup, provider: AesGcmProvider, root: int, body: bytes | None = None
) -> bytes:
    """Broadcast with one seal at the root, when it has a peer, and one
    open at every other rank; the root gets back its own ``body``."""
    if g.rank == root:
        if body is None:
            raise ValueError("root must supply a body")
        if g.size > 1:
            bcast(g, root, provider.seal(body))
        return body
    return _open_from(provider, bcast(g, root), root)


def encrypted_alltoallv(
    g: ProcessGroup,
    provider: AesGcmProvider,
    sendbuf: list[bytes],
    recv_lengths: list[int],
) -> list[bytes]:
    """Variable-length encrypted all-to-all.

    The geometry is checked on the plaintext lengths, as in ``alltoallv``,
    before anything is sealed; the sealed elements then go through one
    ``alltoall``.
    """
    _check_geometry(g, sendbuf, recv_lengths)
    return _sealed_alltoall(g, provider, sendbuf)
