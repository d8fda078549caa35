"""Rank-addressed point-to-point messaging over a TCP mesh.

A process group is fully connected: exactly one TCP connection per
unordered pair of ranks, dialled by the higher rank, which sends its
rank as a 4-byte hello; each rank closes its listener once the mesh is
up.  One deadline, the constructor's ``timeout``, bounds every wait of
start-up, the implicit barrier's included, and any failure to come up
raises ``StartupError``.
Every wire unit leads with its mode byte, and the receiver dispatches on
that first byte.  A message starts with a 12-byte little-endian
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
the body lands: in the receiving thread when an eager message came
first, else in the thread that drives the progress engine when the body
comes in.  Either way it is done only once it holds the plaintext or its
error, and ``open`` runs under neither the matching lock nor a
connection's lock.

One progress engine per group moves every connection on: one
``select.poll`` over all of them, a receive buffer per connection, and
one lock that whoever drives the engine holds.  A wait on a pending
handle that finds the engine free drives it, timed or not, until its
own handle settles or its deadline passes; so with one caller thread on
two ranks no received message crosses threads, and a rank blocked on
one peer still answers an RTS or a CTS from another, as MPI's progress
rule asks.  Every other wait parks at its handle's gate while the
group's progress thread drives for it.  That thread also drives while no
caller does, but once a caller has driven, it stays off for
``PROGRESS_PAUSE`` at a time, so the caller's next wait finds the engine
free; a parked wait rouses it at once, and so does a thread that stops
driving while a parked wait is still pending.  The cost: threads that
wait at once do not take turns driving; the progress thread drives for
all but one, and each message it settles for a parked wait is handed off
to that wait's thread through the handle's gate.

A caller that drives for its own wait first polls every connection
without blocking, and yields the CPU (``os.sched_yield``) between empty
polls; it stops at a ready connection, after ``SPIN`` (50 µs), or at its
deadline, whichever comes first, and only then sleeps in ``poll``.
That ``poll`` over every connection is the one place where whoever
drives sleeps: such a caller, the progress thread and ``close()``.  A
reply that comes within the spin costs no wake-up of a sleeping thread,
which was about half of a small message's one-way time on loopback.
The progress thread, ``close()`` and every parked wait never spin, so a
rank whose callers do not wait burns no CPU.  On a 2-vCPU KVM host, the spin took
1 KiB ping-pong between two process ranks from a median 21.7 to 11.6 µs
per message when each rank has a CPU of its own, and from 20.1 to
22.4 µs when both ranks share one CPU, where the yield lets the peer
run during the spin (without it, 72 µs).

Per connection, sends go out in the order they were posted: at most one
rendezvous send is in flight at a time, and sends queued behind it drain
once its body is on the wire.  One thread serves every connection, so
the engine never blocks on a body: after a CTS it writes the rendezvous
body as the socket takes it, and polls for the socket to take the rest.
A connection must not carry rendezvous transfers in both directions at
once, because the receiver takes the bytes after an RTS header as its
body and so cannot see a CTS until that body is in.  A rank that
receives an RTS while its own rendezvous send on that connection still
awaits CTS raises ``ConnectionLost`` and shuts the connection down, so
both ranks fail with that typed error instead of hanging; ``collectives``
orders its pairwise exchanges by rank to stay clear of it.

A connection whose read or write fails is shut down, and every send
queued on it and every receive posted or matched on it fails with
``ConnectionLost``; the peer then reads EOF and does the same.
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

The wire path copies no payload it does not have to.  A message that is
whole in its connection's receive buffer leaves it as one slice, so a
small message costs one ``recv`` for header and body together, and a
body longer than what is buffered is received straight into its own
``bytearray``, which the receive returns.  ``isend`` keeps a reference
to the caller's buffer rather than a snapshot, so, as with
``MPI_Isend``, a mutable buffer must not be modified until the send's
``wait()`` returns.

Tags are free-form u32 values; a send or receive posted with a tag outside
[0, 0xFFFFFFFF] raises ``ValueError``.  Tags at and above 0xFFFFFFF0 are
reserved for internal use (barrier, collectives).
"""

from __future__ import annotations

import os
import select
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

# A connection's receive buffer.  With 64 KiB, an engine that falls
# behind (it opens encrypted bodies) takes several messages per recv
# call, and each call it saves is a hand-off of the interpreter lock.
READ_BUFFER = 65536

# How long the progress thread stays off the engine once a waiting caller
# has driven it, so that the caller's next wait finds the engine free.
# It looks back this often and drives once no caller has driven since
# its last look.  A wait that parks rouses it, and so does a thread that
# stops driving while such a wait is pending; so the pause delays only units
# that no thread waits for, such as an RTS for a receive that is only
# polled.
PROGRESS_PAUSE = 0.002

# How long a caller that drives the engine for its own wait polls without
# blocking before it sleeps.  A message that comes within the spin costs
# no wake-up of a sleeping thread; a yield between empty polls lets a
# peer that shares this CPU run meanwhile.
SPIN = 50e-6

BARRIER_TAG = 0xFFFFFFFF
COLLECTIVE_TAG = 0xFFFFFFFE

MAX_BODY = 0xFFFFFFFF  # a body length must fit the header's u32

_POLLIN = select.POLLIN
_POLLOUT = select.POLLOUT
_POLL_READ = select.POLLIN | select.POLLHUP | select.POLLERR | select.POLLNVAL


class TransportError(Exception):
    """Base class for connection and protocol failures."""


class StartupError(TransportError):
    """The group could not be brought up (bind failure, missing peer)."""


class ConnectionLost(TransportError):
    pass


def _byte_sized(body) -> bytes | bytearray | memoryview:
    """``body`` itself, or a byte-format view of it, so ``len`` counts bytes."""
    return body if isinstance(body, (bytes, bytearray)) else memoryview(body).cast("B")


def _check_tag(tag: int) -> None:
    """Reject a tag that the header's u32 field cannot carry."""
    if not 0 <= tag <= 0xFFFFFFFF:
        raise ValueError(f"tag {tag} outside [0, 0xFFFFFFFF]")


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
    ``TimeoutError`` at once.  A ``wait`` on a pending handle that finds
    its group's progress engine free drives it in the calling thread
    until the handle settles or the timeout passes; any other parks at
    the handle's gate while the group's progress thread drives.
    """

    # The gate is a bare lock (``threading.Lock``), allocated held and
    # released once, when the handle settles.  A waiter passes through it
    # (acquire, then release), so any number of waiters return.
    __slots__ = ("_gate", "_done", "_error", "_body", "_provider", "_group")

    def __init__(self, provider: AesGcmProvider | None = None, group: ProcessGroup | None = None):
        self._gate = threading.Lock()
        self._gate.acquire()
        self._done = False
        self._error: Exception | None = None
        self._body: bytes | bytearray | None = None
        self._provider = provider  # opens the body as the handle settles
        self._group = group  # whose progress engine settles it

    @property
    def done(self) -> bool:
        return self._done

    def _settle(self, body: bytes | bytearray | None = None, error: Exception | None = None) -> None:
        """Complete the handle with ``body``, opened first if the handle
        has a provider, or fail it with ``error``, or with what ``open``
        raised.

        A send is settled by whoever takes it off its connection's send
        queue (under the connection's lock), a posted receive by whoever
        takes it off ``_posted`` (under ``_match_lock``), an eager arrival
        by the receive that takes it off ``_inbound``, and a rendezvous
        arrival by the thread that drives the engine when its body comes
        in.  So no two threads settle one handle at once, and this check
        makes any later settle a no-op.  A body is only ever settled with
        neither the matching lock nor a connection's lock held, so
        ``open`` runs under neither."""
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
            group = self._group
            deadline = None if timeout is None else time.monotonic() + timeout
            if group._engine.acquire(blocking=False):
                group._drive(self, deadline)
            if not self._done:  # park, while the progress thread drives
                left = -1 if deadline is None else max(deadline - time.monotonic(), 0)
                if left:
                    group._waiting.append(self)
                    group._rouse()
                    try:
                        if self._gate.acquire(timeout=left):
                            self._gate.release()
                    finally:
                        group._waiting.remove(self)
                if not self._done:  # else settled, with another waiter in the gate
                    raise TimeoutError(f"request not complete after {timeout}s")
        if self._error is not None:
            raise self._error

    @property
    def data(self) -> bytes | bytearray:
        """The received body.  A plaintext receive may return a
        ``bytearray`` (a slice of the receive buffer, or the buffer a
        large body was received into), which the caller owns."""
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
    """One TCP connection of a group: its send queue and its receive state.

    The receive state belongs to whoever drives the group's engine.  The
    first ``end`` bytes of ``buf`` are received and not yet dispatched:
    part of a header, or whole units that an exception cut a parse short
    before.  ``body`` is a body longer than what was buffered, being
    received straight into its own ``bytearray``.
    """

    def __init__(self, peer: int, sock: socket.socket):
        self.peer = peer
        self.sock = sock
        self.fd = sock.fileno()
        self.lock = threading.Lock()
        # (mode, handle, header, body) in posting order; while awaiting_cts
        # the head is the rendezvous send whose header is on the wire, and
        # while unsent is set, the one whose body is going out
        self.out_queue: deque = deque()
        self.awaiting_cts = False
        self.unsent: memoryview | None = None  # what the socket has not taken of that body
        self.cts_owed = False  # a CTS to write once that body is out
        self.cts_sent = False  # whether the RTS being read has been answered
        self.bytes_out = 0
        self.bytes_in = 0
        self.error: TransportError | None = None  # why it died; None while up
        self.buf = bytearray(READ_BUFFER)
        self.view = memoryview(self.buf)
        self.end = 0
        self.rdv: RequestHandle | None = None  # the rendezvous receive whose body comes next
        self.body: bytearray | None = None
        self.got = 0  # bytes of body received so far
        self.body_tag: int | None = None  # body's eager tag; None for the body of rdv

    def write(self, data: bytes) -> None:
        # caller holds self.lock
        self.sock.sendall(data)
        self.bytes_out += len(data)

    def lost(self) -> ConnectionLost:
        """A fresh error for a call on this dead connection, naming the cause."""
        return ConnectionLost(f"connection to rank {self.peer} is down: {self.error}")


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

        # progress engine: whoever holds _engine polls every live connection
        self._engine = threading.Lock()
        self._poll = select.poll()
        self._live: dict[int, _Conn] = {}  # by descriptor, until retired
        self._unparsed: list[_Conn] = []  # whole units an exception left buffered
        self._led = False  # a caller drove the engine since the progress thread looked
        self._waiting: list[RequestHandle] = []  # the handles of parked waits
        self._wake = threading.Event()  # ends the progress thread's pause early
        self._progress: threading.Thread | None = None

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

        self._progress = threading.Thread(
            target=self._progress_loop, name=f"secmsg-progress-{self.rank}", daemon=True
        )
        self._progress.start()

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
        conn = self._conns[peer] = _Conn(peer, sock)
        self._live[conn.fd] = conn
        self._poll.register(conn.fd, _POLLIN)

    # -- properties -----------------------------------------------------

    @property
    def bytes_sent(self) -> int:
        return sum(c.bytes_out for c in self._conns.values())

    @property
    def bytes_received(self) -> int:
        return sum(c.bytes_in for c in self._conns.values())

    # -- progress engine ----------------------------------------------------

    def _drive(self, handle: RequestHandle, deadline: float | None) -> None:
        """Drive the engine, which the calling thread holds, until
        ``handle`` settles or ``deadline`` passes (a zero timeout polls
        once); then free it."""
        try:
            while not handle._done and self._live:
                self._step(deadline, spin=True)
                if deadline is not None and time.monotonic() >= deadline:
                    break
        finally:
            self._release()

    def _progress_loop(self) -> None:
        """Drive the engine while no caller does, until every connection
        is retired.  While a parked wait is pending it drives one step at
        a time, so that a caller whose wait it served drives its next."""
        while self._live:
            if not self._led and self._engine.acquire(blocking=False):
                self._wake.clear()  # a rouse is spent once it drives
                try:
                    while self._live:
                        self._step(None)
                        if self._waiting:
                            break
                finally:
                    self._release()
            else:
                self._led = False
                self._wake.wait(PROGRESS_PAUSE)
                self._wake.clear()

    def _rouse(self) -> None:
        """Have the progress thread drive now, for a wait that does not."""
        self._led = False
        if not self._wake.is_set():
            self._wake.set()

    def _release(self) -> None:
        """Free the engine, and with it decide who drives next: the
        progress thread at once if a parked wait is still pending, else
        the next caller that waits, the progress thread staying off for
        a full pause."""
        # set before ``_waiting`` is read, so that a wait parking from
        # here on, whose rouse clears it, is not overruled
        self._led = True
        pending = False
        if self._waiting:  # with nobody parked, nothing to scan
            self._wake.clear()  # a rouse for a wait already served is spent
            pending = any(not h._done for h in tuple(self._waiting))
        self._engine.release()
        if pending:
            self._rouse()

    def _step(self, deadline: float | None, spin: bool = False) -> None:
        """Wait until ``deadline`` at most (``None``: without a bound) for
        connections to be ready, and move each ready one on.  With
        ``spin``, which only a caller's ``_drive`` sets, first poll without
        blocking for ``SPIN`` at most, yielding the CPU between empty
        polls; a spin that reaches ``deadline`` ends the step there.  Then
        sleep in ``poll``, the one place where every driver sleeps: a
        caller's ``_drive`` once its spin ends, the progress thread and
        ``close()``."""
        if self._unparsed:  # whole units that an exception left buffered
            conn = self._unparsed.pop()
            if conn.error is None:
                self._advance(conn, 0)
            return
        ready = []
        if spin:
            stop = time.monotonic() + SPIN
            while not (ready := self._poll.poll(0)):
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    return
                if now >= stop:
                    break
                os.sched_yield()
        if not ready:
            ms = None if deadline is None else max(deadline - time.monotonic(), 0) * 1000
            ready = self._poll.poll(ms)
        for fd, events in ready:
            self._advance(self._live[fd], events)

    def _advance(self, conn: _Conn, events: int) -> None:
        """Move ``conn`` on by the poll ``events`` on it: write what its
        socket takes of the body in flight, receive what it has and
        dispatch every whole unit (with no events, only dispatch).  A
        failed read or write or a protocol violation kills the
        connection, and a dead one is retired."""
        try:
            if events & _POLLOUT:
                with conn.lock:
                    self._send_body(conn)
            if events & _POLL_READ:
                self._receive(conn)
            elif not events:
                self._parse(conn)
        except (ConnectionLost, OSError) as exc:
            self._on_connection_dead(conn, exc)
        except BaseException:  # a caller's KeyboardInterrupt, say
            self._unparsed.append(conn)
            raise
        if conn.error is not None:
            self._retire(conn)

    def _receive(self, conn: _Conn) -> None:
        """Receive what ``conn`` has: into the body being received, or
        into the buffer, whose whole units are then dispatched."""
        body = conn.body
        n = conn.sock.recv_into(conn.view[conn.end:] if body is None else memoryview(body)[conn.got:])
        if not n:
            raise ConnectionLost(f"peer {conn.peer} closed the connection")
        conn.bytes_in += n
        if body is None:
            conn.end += n
            self._parse(conn)
            return
        if conn.body_tag is None and not conn.cts_sent:
            raise ConnectionLost(f"peer {conn.peer} sent a body before CTS")
        conn.got += n
        if conn.got == len(body):
            conn.body = None
            self._land(conn, conn.body_tag, body)

    def _parse(self, conn: _Conn) -> None:
        """Dispatch every whole unit in ``conn``'s buffer.  An eager body
        that is not all there goes on in its own buffer, and so does the
        body of an RTS; what is left, part of a header, moves to the front."""
        buf, end = conn.buf, conn.end
        pos = 0
        try:
            while pos < end:
                if buf[pos] == MODE_CTS:
                    pos += 1
                    self._on_cts(conn)
                    continue
                if end - pos < HEADER.size:
                    break
                mode, length, tag = HEADER.unpack_from(buf, pos)
                pos += HEADER.size
                if mode == MODE_RTS:
                    self._on_rts(conn, tag, length)
                    if pos < end:  # sent before this rank could answer
                        raise ConnectionLost(f"peer {conn.peer} sent a body before CTS")
                    break
                if mode != MODE_EAGER:
                    raise ConnectionLost(f"peer {conn.peer} sent unknown mode {mode}")
                stop = pos + length
                if stop > end:  # received straight into its own buffer from here on
                    conn.body = bytearray(length)
                    conn.body[: end - pos] = conn.view[pos:end]
                    conn.got, conn.body_tag = end - pos, tag
                    pos = end
                    break
                body = buf[pos:stop]
                pos = stop
                self._land(conn, tag, body)
        finally:
            conn.end = end - pos
            if pos and conn.end:
                buf[: conn.end] = buf[pos:end]

    def _land(self, conn: _Conn, tag: int | None, body: bytearray) -> None:
        """Dispatch a whole body: an eager message's under ``tag``, or,
        with ``tag`` None, the body of ``conn.rdv``."""
        if tag is None:
            handle, conn.rdv = conn.rdv, None
        else:
            handle, posted = self._match_arrival(conn, tag, body)
            if not posted:
                return
        handle._settle(body)

    def _on_rts(self, conn: _Conn, tag: int, length: int) -> None:
        if conn.awaiting_cts:
            # the peer's CTS for our transfer will arrive where this
            # connection expects body bytes: unrecoverable
            raise ConnectionLost(
                f"rank {self.rank}: peer {conn.peer} announced a rendezvous "
                "transfer while ours to it awaits CTS; a connection must not "
                "carry rendezvous transfers in both directions at once"
            )
        # cleared before a receive can see the RTS and answer it
        conn.cts_sent = False
        conn.rdv, posted = self._match_arrival(conn, tag, None)
        if posted:
            self._send_cts(conn)
        # nothing but the body may come next: it goes straight into its own buffer
        conn.body, conn.got, conn.body_tag = bytearray(length), 0, None

    def _on_cts(self, conn: _Conn) -> None:
        with conn.lock:
            if not conn.awaiting_cts:
                raise ConnectionLost(f"peer {conn.peer} sent CTS with no transfer pending")
            conn.awaiting_cts = False
            conn.unsent = memoryview(conn.out_queue[0][3])
            self._send_body(conn)

    def _send_body(self, conn: _Conn) -> None:
        """Write what the socket takes of the rendezvous body in flight,
        and poll for it to take more; once the body is out, settle its
        send and write what waited behind it.  The caller holds
        ``conn.lock`` and drives the engine."""
        try:
            while conn.unsent:
                n = conn.sock.send(conn.unsent, socket.MSG_DONTWAIT)
                conn.bytes_out += n
                conn.unsent = conn.unsent[n:]
        except BlockingIOError:
            self._poll.modify(conn.fd, _POLLIN | _POLLOUT)
            return
        if conn.unsent is None:  # the connection died, failing the send
            return
        self._poll.modify(conn.fd, _POLLIN)
        conn.unsent = None
        conn.out_queue.popleft()[1]._settle()
        if conn.cts_owed:
            conn.cts_owed = False
            conn.write(_CTS)
        self._drain_locked(conn)

    def _drain_locked(self, conn: _Conn) -> None:
        # caller holds conn.lock; flush queued sends up to the next
        # rendezvous.  A send leaves the queue only once written, so a
        # failed write leaves it for _on_connection_dead to fail.
        while conn.out_queue and not conn.awaiting_cts and conn.unsent is None:
            mode, handle, header, body = conn.out_queue[0]
            if mode == MODE_EAGER:
                conn.write(header + body)
                conn.out_queue.popleft()
                handle._settle()
            else:
                # set before the header leaves, so the engine cannot see
                # the peer's answering RTS without seeing this flag
                conn.awaiting_cts = True
                conn.write(header)

    def _match_arrival(
        self, conn: _Conn, tag: int, body: bytearray | None
    ) -> tuple[RequestHandle, bool]:
        """Return ``(handle, True)`` for the oldest receive posted for (peer,
        tag), or ``(handle, False)`` for a new handle queued for the next
        receive to take.  A queued handle is not settled here: it holds an
        eager ``body`` as it came, for the receive that takes it to settle
        (and open), or, with no body, is an RTS awaiting its CTS."""
        key = (conn.peer, tag)
        with self._match_lock:
            posted = self._posted.get(key)
            if not posted:
                handle = RequestHandle(group=self)
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
            if conn.unsent is None:
                conn.write(_CTS)
            else:  # not into the middle of the body going out
                conn.cts_owed = True

    def _on_connection_dead(self, conn: _Conn, exc: Exception) -> None:
        """Fail the queued sends and posted receives of ``conn``, and shut
        its socket down, so that the peer reads EOF and this rank's engine
        retires it.  The first cause stays on ``conn`` and fails all of it."""
        if conn.error is None:
            conn.error = exc if isinstance(exc, TransportError) else ConnectionLost(str(exc))
        error = conn.error
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with conn.lock:
            conn.awaiting_cts = False
            conn.unsent = None
            while conn.out_queue:
                conn.out_queue.popleft()[1]._settle(error=error)
        with self._match_lock:
            for (src, _tag), handles in list(self._posted.items()):
                if src != conn.peer:
                    continue
                for h in handles:
                    h._settle(error=error)
                del self._posted[(src, _tag)]

    def _retire(self, conn: _Conn) -> None:
        """Stop polling the dead ``conn``, and fail the rendezvous receive
        whose body it still owed, matched or not."""
        self._poll.unregister(conn.fd)
        del self._live[conn.fd]
        rdv, conn.rdv = conn.rdv, None
        if rdv is not None:
            rdv._settle(error=conn.error)
        if not self._live:
            self._wake.set()  # the progress thread exits now rather than after its pause

    # -- point-to-point API ----------------------------------------------

    def _conn_to(self, peer: int) -> _Conn:
        if peer == self.rank:
            raise ValueError("self-addressed messages are not supported")
        if not 0 <= peer < self.size:
            raise ValueError(f"rank {peer} out of range for group of {self.size}")
        return self._conns[peer]

    def _send_conn(self, dest: int, tag: int) -> _Conn:
        """The live connection a send to ``dest`` under ``tag`` goes out on;
        checked before any work is spent on the body."""
        conn = self._conn_to(dest)
        if conn.error is not None:
            raise conn.lost()
        _check_tag(tag)
        return conn

    def _post_send(self, conn: _Conn, tag: int, body: bytes, classify_len: int) -> RequestHandle:
        if len(body) > MAX_BODY:
            raise ValueError("message larger than the u32 wire limit")
        handle = RequestHandle(group=self)
        mode = MODE_RTS if classify_len >= self.threshold else MODE_EAGER
        try:
            with conn.lock:
                conn.out_queue.append((mode, handle, HEADER.pack(mode, len(body), tag), body))
                self._drain_locked(conn)
        except OSError as exc:  # fails this send and everything queued behind it
            self._on_connection_dead(conn, exc)
        return handle

    def _post_recv(self, src: int, tag: int, provider: AesGcmProvider | None) -> RequestHandle:
        conn = self._conn_to(src)
        if self._closing:
            raise conn.lost()
        _check_tag(tag)
        key = (src, tag)
        with self._match_lock:
            queue = self._inbound.get(key)
            if not queue:
                # _on_connection_dead sets conn.error before it takes this
                # lock to fail the posted receives, so none is left behind
                if conn.error is not None:
                    raise conn.lost()
                handle = RequestHandle(provider, self)
                self._posted.setdefault(key, deque()).append(handle)
                return handle
            handle = queue.popleft()
            if not queue:
                del self._inbound[key]
        # set before the CTS goes out, so whoever receives the RTS's body opens it
        handle._provider = provider
        if handle._body is not None:  # an eager message, settled in this thread
            handle._settle(handle._body)
        elif not handle.done:  # an RTS awaiting CTS; whoever receives its body settles it
            try:
                self._send_cts(conn)
            except OSError as exc:
                # the engine, which awaits this RTS's body, is the one that
                # settles the handle: it fails it as it retires the shut
                # down connection, or has already completed it if the body
                # came whole
                self._on_connection_dead(conn, exc)
        return handle

    def isend(self, dest: int, tag: int, body: bytes) -> RequestHandle:
        """Post a send of any bytes-like ``body``.

        No snapshot is taken: a mutable buffer must stay unmodified until
        ``wait()`` returns.
        """
        conn = self._send_conn(dest, tag)
        body = _byte_sized(body)
        return self._post_send(conn, tag, body, classify_len=len(body))

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
        provider = self._require_provider()
        conn = self._send_conn(dest, tag)
        body = _byte_sized(body)
        return self._post_send(conn, tag, provider.seal(body), classify_len=len(body))

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
            conn = self._send_conn(dest, BARRIER_TAG)
            sent = self._post_send(conn, BARRIER_TAG, b"", classify_len=0)
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
            self._on_connection_dead(conn, closed)
        with self._engine:  # each shut down connection is retired before its descriptor closes
            while self._live:
                self._step(None)
        for conn in self._conns.values():
            try:
                conn.sock.close()
            except OSError:
                pass
        if self._progress is not None:
            self._progress.join(timeout=2.0)

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # either way the close is local; on success it first completes
        # this rank's posted sends, on error it drops them
        self.close(synchronize=exc_type is None)
