"""Rank-addressed point-to-point messaging over a TCP mesh.

A process group is fully connected: exactly one TCP connection per
unordered pair of ranks, dialled by the higher rank, which sends its
rank as a 4-byte hello; each rank closes its listener once the mesh is
up.  One deadline, the constructor's ``timeout``, bounds every wait of
start-up, the implicit barrier's included, and any failure to come up
raises ``StartupError``.
Every wire unit leads with its mode byte, and the reader dispatches on
the first byte it reads.  A message starts with a 12-byte little-endian
header ``[u8 mode][3 zero bytes][u32 body_length][u32 tag]``.  Messages
whose payload classifies below the configured threshold are sent eagerly
(header and body written back to back); larger ones use a rendezvous
handshake: the header goes out with mode RTS, the receiver answers with
the one-byte unit ``MODE_CTS`` once a matching receive is posted, and
only then does the body follow.  Encrypted variants send ``seal``'s frame
as the body and ``open`` the body received, both as they are (28 bytes
over the plaintext), and make the eager/rendezvous decision on the
plaintext length, so the split lines up with a benchmark sweep's sizes.
(``collectives`` seals its elements itself and sends the frames as plain
messages, so its split is on the frame length.)

Receives are matched per (source, tag) in arrival order, with two FIFO
queues of ``RequestHandle``s: posted receives that no message has
reached yet, and arrivals that no receive has taken yet.  An arriving
message takes the oldest posted receive or queues a new handle.  A queued
handle holds an eager body as it came, and the receive that takes it
completes it; one without a body is an RTS, and the receive that takes it
sends the CTS.  The handle that a receive returns is the one its message
completes.  An encrypted receive opens the body as it completes, where
the body lands: in the reader thread when the receive was posted first
or the message came by rendezvous, in the receiving thread when an eager
message came first.  Either way it is done only once it holds the
plaintext or its error, and ``open`` runs under no lock of the group.

Per connection, sends go out in the order they were posted: at most one
rendezvous send is in flight at a time, and sends queued behind it drain
once its body is on the wire.  A connection must not carry rendezvous
transfers in both directions at once, because the receiver reads a
rendezvous body straight after its RTS header and so cannot see a CTS
until that body is in.  A rank whose reader sees an RTS while its own
rendezvous send on that connection still awaits CTS raises
``ConnectionLost`` and shuts the connection down, so both ranks fail
with that typed error instead of hanging; ``collectives`` orders its
pairwise exchanges by rank to stay clear of it.

A connection whose read or write fails is shut down, and every send
queued on it and every receive posted or matched on it fails with
``ConnectionLost``; the peer's reader then sees EOF and does the same.
``close()`` is local and waits for no peer: a graceful close lets this
rank's posted sends settle, then fails every connection the same way, so
a peer still waiting on the closed rank reads EOF and ``ConnectionLost``.
Every call made after ``close()`` raises ``ConnectionLost`` too.  The
first cause of a connection's death is kept, and every later send on
that connection raises ``ConnectionLost`` naming it.  A later receive
still takes whatever arrived before the connection died, in arrival
order: a message that arrived whole completes it, and an RTS whose body
never came is failed, so its ``wait()`` raises ``ConnectionLost``.  Only
when nothing is queued for it does the receive call itself raise.

The wire path copies no payload it does not have to.  Each connection's
reader thread reads through a buffered file over the socket: a small
message costs one ``recv`` for header and body together, and a large
body is read straight into the ``bytes`` object the receive returns.
``isend`` keeps a reference to the caller's buffer rather than a
snapshot, so, as with ``MPI_Isend``, a mutable buffer must not be
modified until the send's ``wait()`` returns.

Tags are free-form u32 values; tags at and above 0xFFFFFFF0 are reserved
for internal use (barrier, collectives).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from collections import deque

from .aead import AesGcmProvider

HEADER = struct.Struct("<B3xII")  # mode, body_length, tag; 12 bytes
HELLO = struct.Struct("<I")

MODE_EAGER = 0
MODE_RTS = 1
MODE_CTS = 2  # a one-byte unit, no header
_CTS = bytes([MODE_CTS])

DEFAULT_THRESHOLD = 131072  # plaintext bytes; at or above goes rendezvous

# A reader's receive buffer.  The io default (8 KiB) splits every eager
# message above it over two or three recv calls, and each call hands the
# GIL to the group's other threads; with 64 KiB, a reader that falls
# behind (it opens encrypted bodies) takes several messages per call.
READ_BUFFER = 65536

BARRIER_TAG = 0xFFFFFFFF
COLLECTIVE_TAG = 0xFFFFFFFE

MAX_BODY = 0xFFFFFFFF  # a body length must fit the header's u32


class TransportError(Exception):
    """Base class for connection and protocol failures."""


class StartupError(TransportError):
    """The group could not be brought up (bind failure, missing peer)."""


class ConnectionLost(TransportError):
    pass


def _byte_sized(body) -> bytes | bytearray | memoryview:
    """``body`` itself, or a byte-format view of it, so ``len`` counts bytes."""
    return body if isinstance(body, (bytes, bytearray)) else memoryview(body).cast("B")


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``; ``TimeoutError`` once it has passed."""
    if (left := deadline - time.monotonic()) <= 0:
        raise TimeoutError("start-up deadline passed")
    return left


def read_roster(path: str) -> list[tuple[str, int]]:
    """Parse a roster file of ``rank host port`` lines into an address list."""
    entries: dict[int, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'rank host port'")
            rank, host, port = int(parts[0]), parts[1], int(parts[2])
            if rank in entries:
                raise ValueError(f"{path}:{lineno}: duplicate rank {rank}")
            entries[rank] = (host, port)
    n = len(entries)
    if sorted(entries) != list(range(n)):
        raise ValueError(f"{path}: ranks must be a permutation of 0..{n - 1}")
    return [entries[r] for r in range(n)]


class RequestHandle:
    """Completion handle for a non-blocking send or receive.

    A receive handle carries a body once complete; a send handle carries
    none.  A handle settles once: the first completion or failure wins,
    and a later one is ignored, so a message that arrived whole is never
    hidden behind a later error.  An encrypted receive opens its frame as
    it settles, so once ``done`` its body is the plaintext, or its error
    is whatever ``open`` raised.  ``wait`` is idempotent; waiting on a
    settled handle returns immediately, and, as with ``Event.wait``, a
    ``timeout`` of zero or less polls: a pending handle raises
    ``TimeoutError`` at once.
    """

    # The gate is a bare lock (``threading.Lock``), allocated held and
    # released once, when the handle settles.  A waiter passes through it
    # (acquire, then release), so any number of waiters return.
    __slots__ = ("_gate", "_done", "_error", "_body", "_provider")

    def __init__(self, provider: AesGcmProvider | None = None):
        self._gate = threading.Lock()
        self._gate.acquire()
        self._done = False
        self._error: Exception | None = None
        self._body: bytes | None = None
        self._provider = provider  # opens the body as the handle settles

    @property
    def done(self) -> bool:
        return self._done

    def _settle(self, body: bytes | None = None, error: Exception | None = None) -> None:
        """Complete the handle with ``body``, opened first if the handle
        has a provider, or fail it with ``error``, or with what ``open``
        raised.

        A send is settled by whoever takes it off its connection's send
        queue (under the connection's lock), a posted receive by whoever
        takes it off ``_posted`` (under ``_match_lock``), an eager arrival
        by the receive that takes it off ``_inbound``, and a rendezvous
        arrival by the reader that reads its body.  So no two threads
        settle one handle at once, and this check makes any later settle a
        no-op.  A body is only ever settled with no lock held, so ``open``
        runs under none."""
        if self._done:
            return
        if body is not None and self._provider is not None:
            try:
                body = self._provider.open(body)
            except Exception as exc:  # a faulty provider fails this handle only
                body, error = None, exc
        self._body = body
        self._error = error
        self._done = True
        self._gate.release()

    def wait(self, timeout: float | None = None) -> None:
        if not self._done:
            if self._gate.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                self._gate.release()
            elif not self._done:  # else settled, with another waiter in the gate
                raise TimeoutError(f"request not complete after {timeout}s")
        if self._error is not None:
            raise self._error

    @property
    def data(self) -> bytes:
        if not self._done:
            raise TransportError("request not complete; call wait() first")
        if self._error is not None:
            raise self._error
        if self._body is None:
            raise TransportError("send handles carry no data")
        return self._body


def waitall(handles, timeout: float | None = None) -> None:
    """Complete every handle; order of completion is immaterial."""
    for h in handles:
        h.wait(timeout)


class _Conn:
    def __init__(self, peer: int, sock: socket.socket):
        self.peer = peer
        self.sock = sock
        self.lock = threading.Lock()
        # (mode, handle, header, body) in posting order; while awaiting_cts
        # the head is the rendezvous send whose header is on the wire
        self.out_queue: deque = deque()
        self.awaiting_cts = False
        self.cts_sent = False  # whether the RTS the reader is on has been answered
        self.bytes_out = 0
        self.bytes_in = 0
        self.error: TransportError | None = None  # why it died; None while up
        self.reader: threading.Thread | None = None

    def write(self, data: bytes) -> None:
        # caller holds self.lock
        self.sock.sendall(data)
        self.bytes_out += len(data)

    def lost(self) -> ConnectionLost:
        """A fresh error for a call on this dead connection, naming the cause."""
        return ConnectionLost(f"connection to rank {self.peer} is down: {self.error}")

    def read_exact(self, rfile, n: int) -> bytes:
        data = rfile.read(n)
        if len(data) < n:
            raise ConnectionLost(f"peer {self.peer} closed the connection")
        self.bytes_in += n
        return data


class ProcessGroup:
    """A rank's endpoint in a fully connected TCP process group.

    Construction establishes the mesh and returns only after every rank
    is reachable (an implicit barrier).  One deadline, ``timeout``
    seconds away, bounds every dial, accept, hello read and barrier wait;
    any failure to come up raises ``StartupError`` with its cause
    chained.  ``provider`` enables the encrypted message variants.
    """

    def __init__(
        self,
        rank: int,
        roster: list[tuple[str, int]],
        *,
        provider: AesGcmProvider | None = None,
        threshold: int = DEFAULT_THRESHOLD,
        timeout: float = 30.0,
    ):
        n = len(roster)
        if n < 1:
            raise ValueError("roster must have at least one entry")
        if not 0 <= rank < n:
            raise ValueError(f"rank {rank} out of range for roster of {n}")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.rank = rank
        self.size = n
        self.provider = provider
        self.threshold = threshold
        self._roster = list(roster)
        self._conns: dict[int, _Conn] = {}
        self._closing = False

        # matching engine: per (src, tag), one FIFO of posted receives and
        # one of arrivals no receive has taken yet, both of handles
        self._match_lock = threading.Lock()
        self._posted: dict[tuple[int, int], deque[RequestHandle]] = {}
        self._inbound: dict[tuple[int, int], deque[RequestHandle]] = {}

        if n > 1:
            deadline = time.monotonic() + timeout
            try:
                self._establish_mesh(deadline)
                self._barrier(deadline)
            except Exception as exc:
                self.close(synchronize=False)
                if isinstance(exc, StartupError) or not isinstance(exc, (TransportError, OSError)):
                    raise
                if isinstance(exc, TimeoutError):  # only the barrier's waits leave one uncaught
                    raise StartupError(f"rank {rank}: the start-up barrier missed the deadline") from exc
                raise StartupError(f"rank {rank}: the group did not come up: {exc}") from exc

    # -- mesh formation -------------------------------------------------

    def _establish_mesh(self, deadline: float) -> None:
        host, port = self._roster[self.rank]
        try:
            listener = socket.create_server((host, port), backlog=self.size)
        except OSError as exc:
            raise StartupError(f"rank {self.rank} cannot bind {host}:{port}: {exc}") from exc
        with listener:  # closed as soon as the mesh is up
            # ranks dial their lower-numbered peers; the listener fields the rest
            for peer in range(self.rank):
                self._add_conn(peer, self._dial(peer, deadline))
                self._conns[peer].sock.sendall(HELLO.pack(self.rank))
            expected = set(range(self.rank + 1, self.size))
            while expected:
                try:
                    listener.settimeout(_time_left(deadline))
                    sock, addr = listener.accept()
                    try:
                        peer = self._read_hello(sock, addr, deadline)
                        if peer not in expected:
                            raise StartupError(f"rank {self.rank}: unexpected hello from rank {peer}")
                    except BaseException:
                        sock.close()
                        raise
                except TimeoutError:
                    missing = ", ".join(str(p) for p in sorted(expected))
                    raise StartupError(f"rank {self.rank}: no connection from rank(s) {missing}") from None
                expected.discard(peer)
                self._add_conn(peer, sock)

        for conn in self._conns.values():
            conn.reader = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name=f"secmsg-reader-{self.rank}-{conn.peer}", daemon=True,
            )
            conn.reader.start()

    def _dial(self, peer: int, deadline: float) -> socket.socket:
        host, port = self._roster[peer]
        error: OSError = TimeoutError("no time left to dial")
        while (left := deadline - time.monotonic()) > 0:
            try:
                return socket.create_connection((host, port), timeout=left)
            except OSError as exc:
                error = exc
                time.sleep(0.002)
        raise StartupError(
            f"rank {self.rank} cannot reach rank {peer} at {host}:{port}: {error}"
        ) from error

    def _read_hello(self, sock: socket.socket, addr, deadline: float) -> int:
        raw = b""
        while len(raw) < HELLO.size:
            try:
                sock.settimeout(_time_left(deadline))
                chunk = sock.recv(HELLO.size - len(raw))
            except TimeoutError:
                raise StartupError(
                    f"rank {self.rank}: no hello from {addr[0]}:{addr[1]} before the deadline"
                ) from None
            if not chunk:
                raise StartupError(f"rank {self.rank}: peer hung up during hello")
            raw += chunk
        return HELLO.unpack(raw)[0]

    def _add_conn(self, peer: int, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self._conns[peer] = _Conn(peer, sock)

    # -- properties -----------------------------------------------------

    @property
    def bytes_sent(self) -> int:
        return sum(c.bytes_out for c in self._conns.values())

    @property
    def bytes_received(self) -> int:
        return sum(c.bytes_in for c in self._conns.values())

    # -- inbound engine ---------------------------------------------------

    def _reader_loop(self, conn: _Conn) -> None:
        # the file holds a reference to the socket's descriptor, which
        # close() therefore releases only once this thread closes the file
        rfile = conn.sock.makefile("rb", buffering=READ_BUFFER)
        rdv: RequestHandle | None = None  # the rendezvous receive being read, if any
        try:
            while True:
                first = conn.read_exact(rfile, 1)
                if first[0] == MODE_CTS:
                    self._on_cts(conn)
                    continue
                mode, length, tag = HEADER.unpack(first + conn.read_exact(rfile, HEADER.size - 1))
                if mode == MODE_EAGER:
                    body = conn.read_exact(rfile, length)
                    handle, posted = self._match_arrival(conn.peer, tag, body)
                    if posted:
                        handle._settle(body)
                elif mode == MODE_RTS:
                    if conn.awaiting_cts:
                        # the peer's CTS for our transfer will arrive where
                        # this reader expects body bytes: unrecoverable
                        raise ConnectionLost(
                            f"rank {self.rank}: peer {conn.peer} announced a rendezvous "
                            "transfer while ours to it awaits CTS; a connection must not "
                            "carry rendezvous transfers in both directions at once"
                        )
                    # cleared before a receive can see the RTS and answer it
                    conn.cts_sent = False
                    rdv, posted = self._match_arrival(conn.peer, tag, None)
                    if posted:
                        self._send_cts(conn)
                    # body bytes only start flowing after our CTS goes out
                    body = conn.read_exact(rfile, length)
                    if not conn.cts_sent:
                        raise ConnectionLost(f"peer {conn.peer} sent a body before CTS")
                    rdv._settle(body)
                    rdv = None
                else:
                    raise ConnectionLost(f"peer {conn.peer} sent unknown mode {mode}")
        except (ConnectionLost, OSError) as exc:
            self._on_connection_dead(conn, exc, rdv)
        finally:
            rfile.close()

    def _on_cts(self, conn: _Conn) -> None:
        with conn.lock:
            if not conn.awaiting_cts:
                raise ConnectionLost(f"peer {conn.peer} sent CTS with no transfer pending")
            _, handle, _, body = conn.out_queue[0]
            conn.write(body)
            conn.out_queue.popleft()
            conn.awaiting_cts = False
            handle._settle()
            self._drain_locked(conn)

    def _drain_locked(self, conn: _Conn) -> None:
        # caller holds conn.lock; flush queued sends up to the next
        # rendezvous.  A send leaves the queue only once written, so a
        # failed write leaves it for _on_connection_dead to fail.
        while conn.out_queue and not conn.awaiting_cts:
            mode, handle, header, body = conn.out_queue[0]
            if mode == MODE_EAGER:
                conn.write(header + body)
                conn.out_queue.popleft()
                handle._settle()
            else:
                # set before the header leaves, so the reader cannot see
                # the peer's answering RTS without seeing this flag
                conn.awaiting_cts = True
                conn.write(header)

    def _match_arrival(
        self, src: int, tag: int, body: bytes | None
    ) -> tuple[RequestHandle, bool]:
        """Return ``(handle, True)`` for the oldest receive posted for (src,
        tag), or ``(handle, False)`` for a new handle queued for the next
        receive to take.  A queued handle is not settled here: it holds an
        eager ``body`` as it came, for the receive that takes it to settle
        (and open), or, with no body, is an RTS awaiting its CTS."""
        key = (src, tag)
        with self._match_lock:
            posted = self._posted.get(key)
            if not posted:
                handle = RequestHandle()
                handle._body = body
                self._inbound.setdefault(key, deque()).append(handle)
                return handle, False
            handle = posted.popleft()
            if not posted:
                del self._posted[key]
            return handle, True

    def _send_cts(self, conn: _Conn) -> None:
        with conn.lock:
            conn.cts_sent = True  # before the write, which lets the body come
            conn.write(_CTS)

    def _on_connection_dead(
        self, conn: _Conn, exc: Exception, rdv: RequestHandle | None
    ) -> None:
        """Fail everything still waiting on ``conn``: queued sends, posted
        receives and ``rdv``, the rendezvous receive whose body was being
        read, whether or not a receive has taken it yet.  The socket is
        shut down so the peer's reader sees EOF.  The first cause stays on
        ``conn`` and fails all of it."""
        if conn.error is None:
            conn.error = exc if isinstance(exc, TransportError) else ConnectionLost(str(exc))
        error = conn.error
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with conn.lock:
            conn.awaiting_cts = False
            while conn.out_queue:
                conn.out_queue.popleft()[1]._settle(error=error)
        if rdv is not None:
            rdv._settle(error=error)
        with self._match_lock:
            for (src, _tag), handles in list(self._posted.items()):
                if src != conn.peer:
                    continue
                for h in handles:
                    h._settle(error=error)
                del self._posted[(src, _tag)]

    # -- point-to-point API ----------------------------------------------

    def _conn_to(self, peer: int) -> _Conn:
        if peer == self.rank:
            raise ValueError("self-addressed messages are not supported")
        if not 0 <= peer < self.size:
            raise ValueError(f"rank {peer} out of range for group of {self.size}")
        return self._conns[peer]

    def _post_send(self, dest: int, tag: int, body: bytes, classify_len: int) -> RequestHandle:
        conn = self._conn_to(dest)
        if conn.error is not None:
            raise conn.lost()
        if len(body) > MAX_BODY:
            raise ValueError("message larger than the u32 wire limit")
        handle = RequestHandle()
        mode = MODE_RTS if classify_len >= self.threshold else MODE_EAGER
        try:
            with conn.lock:
                conn.out_queue.append((mode, handle, HEADER.pack(mode, len(body), tag), body))
                self._drain_locked(conn)
        except OSError as exc:  # fails this send and everything queued behind it
            self._on_connection_dead(conn, exc, None)
        return handle

    def _post_recv(self, src: int, tag: int, provider: AesGcmProvider | None) -> RequestHandle:
        conn = self._conn_to(src)
        if self._closing:
            raise conn.lost()
        key = (src, tag)
        with self._match_lock:
            queue = self._inbound.get(key)
            if not queue:
                # _on_connection_dead sets conn.error before it takes this
                # lock to fail the posted receives, so none is left behind
                if conn.error is not None:
                    raise conn.lost()
                handle = RequestHandle(provider)
                self._posted.setdefault(key, deque()).append(handle)
                return handle
            handle = queue.popleft()
            if not queue:
                del self._inbound[key]
        # set before the CTS goes out, so the reader opens the RTS's body
        handle._provider = provider
        if handle._body is not None:  # an eager message, settled in this thread
            handle._settle(handle._body)
        elif not handle.done:  # an RTS awaiting CTS; a dead reader fails it
            try:
                self._send_cts(conn)
            except OSError as exc:
                # the reader, blocked on this RTS's body, is the one that
                # settles the handle: it fails it once the socket is shut
                # down, or has already completed it if the body came whole
                self._on_connection_dead(conn, exc, None)
        return handle

    def isend(self, dest: int, tag: int, body: bytes) -> RequestHandle:
        """Post a send of any bytes-like ``body``.

        No snapshot is taken: a mutable buffer must stay unmodified until
        ``wait()`` returns.
        """
        body = _byte_sized(body)
        return self._post_send(dest, tag, body, classify_len=len(body))

    def irecv(self, src: int, tag: int) -> RequestHandle:
        return self._post_recv(src, tag, provider=None)

    def send(self, dest: int, tag: int, body: bytes) -> None:
        self.isend(dest, tag, body).wait()

    def recv(self, src: int, tag: int) -> bytes:
        h = self.irecv(src, tag)
        h.wait()
        return h.data

    # -- encrypted variants ------------------------------------------------

    def _require_provider(self) -> AesGcmProvider:
        if self.provider is None:
            raise ValueError("group has no AEAD provider configured")
        return self.provider

    def encrypted_isend(self, dest: int, tag: int, body: bytes) -> RequestHandle:
        body = _byte_sized(body)
        frame = self._require_provider().seal(body)
        return self._post_send(dest, tag, frame, classify_len=len(body))

    def encrypted_irecv(self, src: int, tag: int) -> RequestHandle:
        return self._post_recv(src, tag, provider=self._require_provider())

    def encrypted_send(self, dest: int, tag: int, body: bytes) -> None:
        self.encrypted_isend(dest, tag, body).wait()

    def encrypted_recv(self, src: int, tag: int) -> bytes:
        h = self.encrypted_irecv(src, tag)
        h.wait()
        return h.data

    # -- group operations ---------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier over the mesh."""
        self._barrier(None)

    def _barrier(self, deadline: float | None) -> None:
        # with a deadline (start-up), each wait raises TimeoutError at it
        step = 1
        while step < self.size:
            dest = (self.rank + step) % self.size
            src = (self.rank - step) % self.size
            sent = self._post_send(dest, BARRIER_TAG, b"", classify_len=0)
            for h in (self._post_recv(src, BARRIER_TAG, provider=None), sent):
                h.wait(None if deadline is None else _time_left(deadline))
            step <<= 1

    def close(self, *, synchronize: bool = True) -> None:
        """Tear down this rank's end of the mesh, waiting for no peer.

        By default it first waits until every send this rank has posted
        has settled, so an unwaited send still completes; a peer reads all
        that was written before EOF, and one still waiting on this rank
        gets ``ConnectionLost``.  ``synchronize=False`` skips the wait
        (failure paths, or deliberately abrupt shutdown).
        """
        if self._closing:
            return
        if synchronize:
            for conn in self._conns.values():
                with conn.lock:  # sends settle in posting order: wait on the last
                    last = conn.out_queue[-1][1] if conn.out_queue else None
                if last is not None:
                    try:
                        last.wait()
                    except TransportError:
                        pass
        self._closing = True
        closed = ConnectionLost(f"rank {self.rank}: the group is closed")
        for conn in self._conns.values():
            self._on_connection_dead(conn, closed, None)
            try:
                conn.sock.close()
            except OSError:
                pass
        for conn in self._conns.values():
            if conn.reader is not None and conn.reader.is_alive():
                conn.reader.join(timeout=2.0)

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # either way the close is local; on success it first completes
        # this rank's posted sends, on error it drops them
        self.close(synchronize=exc_type is None)
