import array
import os
import socket
import sys
import threading
import time

import pytest

from helpers import TEST_KEY, PaddedFrameProvider, free_roster, run_ranks, write_roster
from secmsg.aead import FRAME_OVERHEAD, IntegrityError
from secmsg.transport import (
    HEADER,
    HELLO,
    MODE_RTS,
    ConnectionLost,
    ProcessGroup,
    RequestHandle,
    StartupError,
    TransportError,
    read_roster,
    waitall,
)

DATA = 7
SYNC = 8


def test_single_rank_group_is_trivial():
    with ProcessGroup(0, [("127.0.0.1", 1)]) as g:
        assert g.size == 1 and g.rank == 0
        assert len(g._conns) == 0
        g.barrier()


def test_four_rank_mesh_has_six_connections():
    def fn(g):
        return len(g._conns)

    counts = run_ranks(4, fn, with_provider=False)
    assert counts == [3, 3, 3, 3]
    assert sum(counts) // 2 == 6  # one connection per unordered pair


def test_duplicate_port_fails_startup():
    roster = free_roster(2)
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", 0))
    try:
        taken = blocker.getsockname()[1]
        with pytest.raises(StartupError):
            ProcessGroup(1, [roster[0], ("127.0.0.1", taken)], timeout=2)
    finally:
        blocker.close()


def test_unreachable_peer_names_missing_rank():
    roster = free_roster(2)  # nobody is listening on roster[0]
    with pytest.raises(StartupError, match="rank 0"):
        ProcessGroup(1, roster, timeout=1.5)


def _connect_when_listening(addr, start) -> socket.socket:
    while True:
        try:
            return socket.create_connection(addr, timeout=2)
        except ConnectionRefusedError:
            assert time.monotonic() - start < 5, "rank 0 never listened"
            time.sleep(0.01)


def test_silent_connection_cannot_stall_startup():
    # a stray connection that never sends its hello must not hold rank 0
    # past its deadline, and rank 1 must learn the group never came up
    roster = free_roster(2)
    errors = [None, None]
    finished = [None, None]

    def rank(r):
        try:
            ProcessGroup(r, roster, timeout=2).close()
        except Exception as exc:
            errors[r] = exc
        finished[r] = time.monotonic()

    threads = [threading.Thread(target=rank, args=(r,), daemon=True) for r in range(2)]
    start = time.monotonic()
    threads[0].start()
    silent = _connect_when_listening(roster[0], start)
    try:
        threads[1].start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads), "start-up stalled past its deadline"
        assert all(isinstance(e, StartupError) for e in errors), errors
        host, port = silent.getsockname()
        assert f"no hello from {host}:{port}" in str(errors[0])  # the silent party, not rank 1
        assert max(finished) - start < 2 + 3
        silent.settimeout(5)
        assert silent.recv(1) == b""  # rank 0 closed the stray connection
    finally:
        silent.close()


def test_peer_silent_after_hello_cannot_stall_the_startup_barrier():
    # a client that sends a valid hello for rank 1 and then nothing leaves
    # rank 0 in its start-up barrier; the deadline must still end it
    roster = free_roster(2)
    outcome = []

    def rank0():
        try:
            ProcessGroup(0, roster, timeout=2).close()
        except Exception as exc:
            outcome.append(exc)
        outcome.append(time.monotonic())

    thread = threading.Thread(target=rank0, daemon=True)
    start = time.monotonic()
    thread.start()
    fake = _connect_when_listening(roster[0], start)
    try:
        fake.sendall(HELLO.pack(1))
        thread.join(2 + 3)
        assert not thread.is_alive(), "the start-up barrier outlived its deadline"
        error, finished = outcome
        assert isinstance(error, StartupError), error
        assert "start-up barrier missed the deadline" in str(error)
        assert finished - start < 2 + 3
        fake.settimeout(5)
        while fake.recv(4096):  # rank 0's barrier message, then EOF
            pass
    finally:
        fake.close()


def test_roster_file_round_trip(tmp_path):
    path = tmp_path / "roster.txt"
    roster = [("127.0.0.1", 9001), ("10.0.0.2", 9002), ("10.0.0.3", 9003)]
    write_roster(str(path), roster)
    assert read_roster(str(path)) == roster
    path.write_text("0 a 1\n0 b 2\n")
    with pytest.raises(ValueError, match="duplicate rank"):
        read_roster(str(path))
    path.write_text("0 a 1\n2 b 2\n")
    with pytest.raises(ValueError, match="permutation"):
        read_roster(str(path))


def test_zero_byte_message():
    def fn(g):
        if g.rank == 0:
            g.send(1, DATA, b"")
        else:
            return g.recv(0, DATA)

    assert run_ranks(2, fn, with_provider=False)[1] == b""


def test_two_mebibyte_rendezvous_round_trip():
    body = os.urandom(2 * 1024 * 1024)

    def fn(g):
        if g.rank == 0:
            g.send(1, DATA, body)
            return g.recv(1, SYNC)
        received = g.recv(0, DATA)
        g.send(0, SYNC, b"done")
        return received == body

    results = run_ranks(2, fn, with_provider=False)
    assert results[1] is True


def test_fifo_order_per_channel_across_modes():
    threshold = 4096
    bodies = [bytes([i]) * (1 if i % 3 else threshold + i) for i in range(24)]

    def fn(g):
        if g.rank == 0:
            for body in bodies:
                g.send(1, DATA, body)
        else:
            return [g.recv(0, DATA) for _ in bodies]

    received = run_ranks(2, fn, threshold=threshold, with_provider=False)[1]
    assert received == bodies


def test_unmatched_tag_blocks_until_matching_send():
    def fn(g):
        if g.rank == 1:
            h = g.irecv(0, 99)
            with pytest.raises(TimeoutError):
                h.wait(timeout=0.3)
            g.send(0, SYNC, b"go")
            h.wait(timeout=10)
            return h.data
        g.recv(1, SYNC)
        g.send(1, 99, b"late")

    assert run_ranks(2, fn, with_provider=False)[1] == b"late"


def test_tag_mismatch_never_matches():
    def fn(g):
        if g.rank == 0:
            g.send(1, 5, b"five")
            g.send(1, 6, b"six")
        else:
            six = g.recv(0, 6)
            five = g.recv(0, 5)
            return five, six

    assert run_ranks(2, fn, with_provider=False)[1] == (b"five", b"six")


def test_isend_then_wait_matches_blocking_send():
    def fn(g):
        if g.rank == 0:
            h = g.isend(1, DATA, b"payload")
            h.wait()
            h.wait()  # idempotent
            assert h.done
        else:
            return g.recv(0, DATA)

    assert run_ranks(2, fn, with_provider=False)[1] == b"payload"


def test_64_outstanding_receives_then_waitall():
    bodies = [bytes([i % 256]) * 512 for i in range(64)]

    def fn(g):
        if g.rank == 0:
            waitall([g.isend(1, DATA, b) for b in bodies])
        else:
            handles = [g.irecv(0, DATA) for _ in range(64)]
            waitall(handles)
            return [h.data for h in handles]

    assert run_ranks(2, fn, with_provider=False)[1] == bodies


def test_64_outstanding_rendezvous_sends():
    body = os.urandom(8192)

    def fn(g):
        if g.rank == 0:
            waitall([g.isend(1, DATA, body) for _ in range(64)])
        else:
            handles = [g.irecv(0, DATA) for _ in range(64)]
            waitall(handles)
            return all(h.data == body for h in handles)

    assert run_ranks(2, fn, threshold=4096, with_provider=False)[1] is True


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_pingpong_pattern_across_threshold(offset):
    threshold = 8192
    size = threshold + offset

    def fn(g):
        body = bytes(size)
        peer = 1 - g.rank
        for _ in range(4):
            if g.rank == 0:
                g.send(peer, DATA, body)
                g.recv(peer, DATA)
            else:
                g.recv(peer, DATA)
                g.send(peer, DATA, body)
        return True

    assert run_ranks(2, fn, threshold=threshold, with_provider=False) == [True, True]


@pytest.mark.parametrize("reply_len", [199, 455, 200])
def test_eager_reply_crossing_a_pending_rendezvous(reply_len):
    # 199 and 455 have 0xC7 as the low byte of their length: a reader that
    # took a bare 0xC7 byte for CTS by sniffing a header's first byte would
    # mistake their header for a CTS
    body = os.urandom(200_000)
    reply = os.urandom(reply_len)

    def fn(g):
        if g.rank == 0:
            h = g.isend(1, DATA, body)
            got = g.recv(1, SYNC)
            h.wait()
            return got
        # the start-up barrier brought one header; a second one is rank 0's
        # RTS, so rank 0 is awaiting CTS when the reply goes out
        deadline = time.monotonic() + 10
        while g.bytes_received < 2 * HEADER.size and time.monotonic() < deadline:
            time.sleep(0.001)
        assert g.bytes_received == 2 * HEADER.size
        g.send(0, SYNC, reply)
        return g.recv(0, DATA) == body

    assert run_ranks(2, fn, with_provider=False, timeout=20) == [reply, True]


def test_crossing_rendezvous_transfers_fail_fast_on_both_ranks():
    # each rank's RTS crosses the other's; a CTS would land where the
    # peer's reader expects body bytes, so both ranks must fail, typed
    body = os.urandom(200_000)

    def fn(g):
        peer = 1 - g.rank
        h = g.isend(peer, DATA, body)
        with pytest.raises(ConnectionLost) as recv_error:
            g.recv(peer, DATA)
        with pytest.raises(ConnectionLost):
            h.wait(timeout=10)
        return str(recv_error.value)

    messages = run_ranks(2, fn, with_provider=False, timeout=20)
    assert any("both directions" in m for m in messages)


def _poll_until(condition) -> None:
    deadline = time.monotonic() + 10
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert condition()


@pytest.mark.parametrize("posted", ["before_rts", "after_rts", "after_death"])
def test_matched_rendezvous_receive_fails_when_connection_dies(posted):
    # rank 1 announces a body it never sends and drops the connection;
    # rank 0's receive is matched to that announcement before the drop,
    # or, "after_death", posted once the dead connection left it queued
    may_drop = threading.Event()

    def fn(g):
        if g.rank == 0:
            if posted == "before_rts":
                h = g.irecv(1, DATA)
                g.barrier()
            else:
                g.barrier()
                _poll_until(lambda: (1, DATA) in g._inbound)
                if posted == "after_rts":
                    h = g.irecv(1, DATA)
            may_drop.set()
            if posted == "after_death":
                _poll_until(lambda: g._conns[1].error is not None)
                with pytest.raises(ConnectionLost):
                    g.irecv(1, DATA).wait(timeout=10)
            else:
                with pytest.raises(ConnectionLost):
                    h.wait(timeout=10)
            return True
        g.barrier()
        conn = g._conns[0]
        with conn.lock:
            conn.write(HEADER.pack(MODE_RTS, 200_000, DATA))
        assert may_drop.wait(10)
        g.close(synchronize=False)
        return True

    assert run_ranks(2, fn, with_provider=False, timeout=20) == [True, True]


def test_rendezvous_body_sent_before_cts_fails_the_connection():
    # rank 1 writes an RTS and its body without waiting for CTS; no
    # receive is posted at rank 0, so its reader must see the violation
    def fn(g):
        if g.rank == 1:
            conn = g._conns[0]
            with conn.lock:
                conn.write(HEADER.pack(MODE_RTS, 1000, DATA) + bytes(1000))
            _poll_until(lambda: conn.error is not None)  # rank 0 dropped it
            return True
        _poll_until(lambda: g._conns[1].error is not None)
        assert "before CTS" in str(g._conns[1].error)
        with pytest.raises(ConnectionLost, match="before CTS"):
            g.irecv(1, DATA).wait(timeout=10)
        return True

    assert run_ranks(2, fn, with_provider=False, timeout=30) == [True, True]


def test_body_before_cts_fails_after_an_answered_rendezvous():
    # the CTS that answered the first RTS must not count for the next one
    def fn(g):
        if g.rank == 1:
            g.send(0, DATA, bytes(2000))
            conn = g._conns[0]
            with conn.lock:
                conn.write(HEADER.pack(MODE_RTS, 1000, DATA) + bytes(1000))
            _poll_until(lambda: conn.error is not None)
            return True
        assert g.recv(1, DATA) == bytes(2000)
        _poll_until(lambda: g._conns[1].error is not None)
        assert "before CTS" in str(g._conns[1].error)
        return True

    assert run_ranks(2, fn, threshold=1024, with_provider=False, timeout=30) == [True, True]


def test_receive_takes_a_message_that_arrived_before_the_connection_died():
    def fn(g):
        if g.rank == 0:
            g.send(1, DATA, b"last")
            g.close(synchronize=False)
            return True
        _poll_until(lambda: g._conns[0].error is not None)
        got = g.recv(0, DATA)
        with pytest.raises(ConnectionLost):
            g.recv(0, DATA)
        return got

    assert run_ranks(2, fn, with_provider=False, timeout=30) == [True, b"last"]


class _FailingWrites:
    """A socket stand-in whose writes fail; every other attribute is the socket's."""

    def __init__(self, sock):
        self._sock = sock

    def sendall(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.mark.parametrize("write", ["send", "cts"])
def test_failed_socket_write_fails_both_ranks_with_connection_lost(write):
    # rank 0's next write (its eager send, or the CTS for rank 1's
    # rendezvous send) fails; both ranks must see the typed error
    def fn(g):
        if write == "send":
            if g.rank == 1:
                h = g.irecv(0, DATA)
                g.barrier()
                with pytest.raises(ConnectionLost):
                    h.wait(timeout=10)
                return True
            g.barrier()
            g._conns[1].sock = _FailingWrites(g._conns[1].sock)
            with pytest.raises(ConnectionLost):
                g.send(1, DATA, b"never written")
            return True
        g.barrier()
        if g.rank == 1:
            with pytest.raises(ConnectionLost):
                g.isend(0, DATA, os.urandom(200_000)).wait(timeout=10)
            return True
        deadline = time.monotonic() + 10
        while (1, DATA) not in g._inbound and time.monotonic() < deadline:
            time.sleep(0.001)
        g._conns[1].sock = _FailingWrites(g._conns[1].sock)
        with pytest.raises(ConnectionLost):
            g.irecv(1, DATA).wait(timeout=10)
        return True

    assert run_ranks(2, fn, with_provider=False, timeout=30) == [True, True]


def test_calls_after_close_raise_transport_error():
    def fn(g):
        peer = 1 - g.rank
        g.close()
        with pytest.raises(TransportError):
            g.irecv(peer, DATA)
        with pytest.raises(TransportError):
            g.send(peer, DATA, b"after close")
        with pytest.raises(TransportError):
            g.encrypted_send(peer, DATA, b"after close")
        return True

    assert run_ranks(2, fn) == [True, True]


def test_a_rank_that_leaves_without_its_promised_send_releases_the_receiver():
    def fn(g):
        if g.rank == 0:
            return None  # leaves normally, never sending what rank 1 waits for
        with pytest.raises(ConnectionLost):
            g.recv(0, DATA)
        return True

    assert run_ranks(2, fn, with_provider=False, timeout=20) == [None, True]


def test_graceful_close_completes_sends_no_one_waited_on():
    # rank 0 closes with a rendezvous send it never waited on; rank 1
    # takes the eager messages only once rank 0's close() has returned,
    # so every body must come through the teardown intact
    eager = [os.urandom(size) for size in (0, 1, 1000, 100_000)]
    large = os.urandom(300_000)
    closed = threading.Event()

    def fn(g):
        if g.rank == 0:
            for body in eager:
                g.send(1, DATA, body)
            g.isend(1, SYNC, large)
            g.close()
            closed.set()
            return True
        rendezvous = g.irecv(0, SYNC)
        assert closed.wait(20), "rank 0's close() did not return"
        got = [g.recv(0, DATA) for _ in eager]
        rendezvous.wait(timeout=10)
        return got == eager and rendezvous.data == large

    assert run_ranks(2, fn, with_provider=False, timeout=60) == [True, True]


def test_graceful_close_with_nothing_queued_writes_nothing():
    def fn(g):
        before = g.bytes_sent
        g.close()
        return g.bytes_sent - before

    assert run_ranks(3, fn, with_provider=False) == [0, 0, 0]


@pytest.mark.parametrize("state", ["posted", "matched"])
def test_close_fails_a_receive_posted_before_it(state):
    # rank 1 keeps the connection up until rank 0 has checked, so only
    # rank 0's own close() can fail the receive; "matched" leaves it
    # matched to an RTS whose body never comes
    checked = threading.Event()

    def fn(g):
        if g.rank == 1:
            g.barrier()
            conn = g._conns[0]
            with conn.lock:  # rank 1's reader cannot act on a CTS until checked
                if state == "matched":
                    conn.write(HEADER.pack(MODE_RTS, 200_000, DATA))
                assert checked.wait(20)
            return True
        h = g.irecv(1, DATA)
        g.barrier()
        if state == "matched":
            deadline = time.monotonic() + 10
            while (1, DATA) in g._posted and time.monotonic() < deadline:
                time.sleep(0.001)
        g.close(synchronize=False)
        with pytest.raises(ConnectionLost):
            h.wait(timeout=10)
        checked.set()
        return True

    assert run_ranks(2, fn, with_provider=False, timeout=60) == [True, True]


def test_eager_burst_arrives_intact_in_order_with_exact_byte_count():
    # sizes around the 12-byte header, the 8 KiB read buffer and the
    # eager threshold
    sizes = [0, 1, 11, 12, 13, 8191, 8192, 8193, 131071]
    bodies = [os.urandom(n) for n in sizes]

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)  # rank 1 has read its byte counter
            waitall([g.isend(1, DATA, b) for b in bodies], timeout=10)
            g.recv(1, SYNC)  # ... and read it again
            return None
        before = g.bytes_received
        g.send(0, SYNC, b"")
        got = [g.recv(0, DATA) for _ in sizes]
        received = g.bytes_received - before
        g.send(0, SYNC, b"")
        return got, received

    got, received = run_ranks(2, fn, with_provider=False)[1]
    assert got == bodies
    assert received == sum(HEADER.size + n for n in sizes)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closing_groups_releases_every_descriptor():
    run_ranks(2, lambda g: None, with_provider=False)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(20):
        run_ranks(2, lambda g: None, with_provider=False)
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("size", [1000, 200_000])
def test_isend_delivers_bytearray_and_memoryview_bodies(size):
    data = os.urandom(size)
    words = array.array("I", data[: size // 4 * 4])
    bodies = [bytearray(data), memoryview(data), memoryview(data)[1:], memoryview(words)]
    expected = [data, data, data[1:], words.tobytes()]

    def fn(g):
        if g.rank == 0:
            for body in bodies:
                g.send(1, DATA, body)
            return None
        return [g.recv(0, DATA) for _ in bodies]

    assert run_ranks(2, fn, with_provider=False)[1] == expected


def test_wait_on_completed_handle_returns_immediately():
    def fn(g):
        if g.rank == 0:
            g.send(1, DATA, b"x")
        else:
            h = g.irecv(0, DATA)
            h.wait()
            start = time.perf_counter()
            h.wait()
            h.wait(0)
            assert time.perf_counter() - start < 0.05
            return h.data

    assert run_ranks(2, fn, with_provider=False)[1] == b"x"


@pytest.mark.parametrize("encrypted", [False, True])
def test_wait_with_timeout_at_or_below_zero_polls_a_pending_handle(encrypted):
    # as with Event.wait: a pending handle raises TimeoutError at once,
    # and a wait that timed out leaves the handle to complete later
    body = os.urandom(1024)

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            (g.encrypted_send if encrypted else g.send)(1, DATA, body)
            return None
        h = (g.encrypted_irecv if encrypted else g.irecv)(0, DATA)
        for timeout in (0, -1):
            start = time.perf_counter()
            with pytest.raises(TimeoutError):
                h.wait(timeout)
            assert time.perf_counter() - start < 1.0
        with pytest.raises(TimeoutError):
            h.wait(0.05)
        g.send(0, SYNC, b"")
        h.wait()
        h.wait(0)
        return h.data

    assert run_ranks(2, fn, with_provider=encrypted, timeout=30)[1] == body


def test_first_settle_of_a_handle_wins():
    delivered = RequestHandle()
    delivered._settle(b"arrived whole")
    delivered._settle(error=ConnectionLost("late failure"))
    delivered.wait(0)
    assert delivered.data == b"arrived whole"

    first = ConnectionLost("first cause")
    failed = RequestHandle()
    failed._settle(error=first)
    failed._settle(error=ConnectionLost("second cause"))
    failed._settle(b"too late")
    with pytest.raises(ConnectionLost) as info:
        failed.wait(0)
    assert info.value is first


def test_self_send_and_bad_rank_rejected():
    with ProcessGroup(0, [("127.0.0.1", 1)]) as g:
        with pytest.raises(ValueError):
            g.send(0, DATA, b"self")
        with pytest.raises(ValueError):
            g.irecv(3, DATA)


# -- encrypted variants ----------------------------------------------------


def test_encrypted_round_trip_wire_body_is_plaintext_plus_28():
    body = os.urandom(1024)

    def fn(g):
        if g.rank == 0:
            before = g.bytes_sent
            g.encrypted_send(1, DATA, body)
            delta = g.bytes_sent - before
            assert delta == HEADER.size + len(body) + FRAME_OVERHEAD
            return delta
        return g.encrypted_recv(0, DATA)

    results = run_ranks(2, fn)
    assert results[1] == body
    assert results[0] == 12 + 1052


def test_eavesdropper_sees_no_plaintext_substring():
    body = os.urandom(4096)
    captured = []

    def fn(g):
        if g.rank == 0:
            conn = g._conns[1]
            original = conn.write

            def tap(data):
                captured.append(bytes(data))
                return original(data)

            conn.write = tap
            g.encrypted_send(1, DATA, body)
            g.send(1, SYNC, b"bye")
        else:
            g.encrypted_recv(0, DATA)
            g.recv(0, SYNC)

    run_ranks(2, fn)
    wire = b"".join(captured)
    assert len(wire) >= len(body) + FRAME_OVERHEAD
    for start in range(0, len(body) - 64, 64):
        assert body[start : start + 64] not in wire


def test_plaintext_send_does_leak_on_the_wire():
    # sanity check of the tap used above: without encryption the payload
    # must be visible verbatim
    body = os.urandom(4096)
    captured = []

    def fn(g):
        if g.rank == 0:
            conn = g._conns[1]
            original = conn.write

            def tap(data):
                captured.append(bytes(data))
                return original(data)

            conn.write = tap
            g.send(1, DATA, body)
        else:
            g.recv(0, DATA)

    run_ranks(2, fn, with_provider=False)
    assert body in b"".join(captured)


# the four ways an encrypted message can meet its receive: the receive is
# posted before the message arrives or after, and the message is eager or
# rendezvous (sizes on either side of _ARRIVAL_THRESHOLD)
_ARRIVAL_THRESHOLD = 4096
_ARRIVALS = [
    pytest.param(first, size, id=f"{first}-{mode}")
    for first in ("posted", "arrived")
    for mode, size in (("eager", 1024), ("rendezvous", 16384))
]
NEXT = 9


def _encrypted_message(g, first, body):
    """Rank 0 sends ``body`` encrypted, then ``b"next"`` plain on tag NEXT,
    to rank 1, which posts its encrypted receive before the message
    arrives (``first == "posted"``) or after; returns rank 1's handle, and
    None on rank 0."""
    if g.rank == 0:
        if first == "posted":
            g.recv(1, SYNC)
        g.encrypted_isend(1, DATA, body)
        g.isend(1, NEXT, b"next")  # queued behind a rendezvous until its CTS
        return None
    if first == "posted":
        h = g.encrypted_irecv(0, DATA)
        g.send(0, SYNC, b"")
        return h
    _poll_until(lambda: (0, DATA) in g._inbound)
    return g.encrypted_irecv(0, DATA)


@pytest.mark.parametrize("first,size", _ARRIVALS)
def test_encrypted_receive_is_opened_once_before_it_is_done(first, size):
    body = os.urandom(size)

    def fn(g):
        openers = []
        open_frame = g.provider.open

        def counting_open(frame):
            openers.append(threading.current_thread().name)
            return open_frame(frame)

        g.provider.open = counting_open
        h = _encrypted_message(g, first, body)
        if h is None:
            return None
        _poll_until(lambda: h.done)
        assert h.data == body  # no wait(): a done handle holds the plaintext
        h.wait()
        assert g.recv(0, NEXT) == b"next"
        return openers

    openers = run_ranks(2, fn, threshold=_ARRIVAL_THRESHOLD, timeout=30)[1]
    assert len(openers) == 1
    # opened where the body landed: in the receiving thread for an eager
    # message already queued when the receive came, else in the reader
    in_reader = not (first == "arrived" and size < _ARRIVAL_THRESHOLD)
    assert openers[0].startswith("secmsg-reader-") == in_reader


@pytest.mark.parametrize("first,size", _ARRIVALS)
def test_encrypted_receive_under_a_wrong_key_fails_wait_and_data(first, size):
    def fn(g):
        h = _encrypted_message(g, first, os.urandom(size))
        if h is None:
            return None
        with pytest.raises(IntegrityError):
            h.wait(timeout=10)
        with pytest.raises(IntegrityError):
            _ = h.data
        return g.recv(0, NEXT)

    keys = [TEST_KEY, bytes(32)]
    assert run_ranks(2, fn, threshold=_ARRIVAL_THRESHOLD, keys=keys, timeout=30)[1] == b"next"


@pytest.mark.parametrize("first,size", _ARRIVALS)
def test_open_runs_under_no_lock_of_the_group(first, size):
    body = os.urandom(size)

    def fn(g):
        if g.rank == 1:
            open_frame = g.provider.open
            locks = {"matching lock": g._match_lock, "connection lock": g._conns[0].lock}

            def lock_probing_open(frame):
                # both locks are non-reentrant: one the opener holds times out
                for name, lock in locks.items():
                    assert lock.acquire(timeout=1), f"open ran under the {name}"
                    lock.release()
                return open_frame(frame)

            g.provider.open = lock_probing_open
        h = _encrypted_message(g, first, body)
        if h is None:
            return None
        h.wait(timeout=10)
        return h.data

    assert run_ranks(2, fn, threshold=_ARRIVAL_THRESHOLD, timeout=30)[1] == body


@pytest.mark.parametrize("first,size", _ARRIVALS)
def test_a_faulty_open_fails_its_receive_and_spares_the_reader(first, size):
    def fn(g):
        if g.rank == 1:
            def faulty_open(frame):
                raise RuntimeError("faulty provider")

            g.provider.open = faulty_open
        h = _encrypted_message(g, first, os.urandom(size))
        if h is None:
            return None
        with pytest.raises(RuntimeError, match="faulty provider"):
            h.wait(timeout=10)
        following = g.irecv(0, NEXT)  # the same connection still delivers
        following.wait(timeout=10)
        return following.data

    assert run_ranks(2, fn, threshold=_ARRIVAL_THRESHOLD, timeout=30)[1] == b"next"


def test_concurrent_waits_open_an_encrypted_receive_once():
    body = os.urandom(4096)

    def fn(g):
        if g.rank == 0:
            g.encrypted_send(1, DATA, body)
            return None
        opens = []
        open_frame = g.provider.open

        def slow_open(frame):
            opens.append(frame)
            time.sleep(0.05)  # keep the other waiters at the lock
            return open_frame(frame)

        g.provider.open = slow_open
        h = g.encrypted_irecv(0, DATA)
        _poll_until(lambda: h.done)
        start = threading.Barrier(4)
        got = []

        def waiter():
            start.wait(10)
            h.wait(timeout=10)
            got.append(h.data)

        waiters = [threading.Thread(target=waiter) for _ in range(4)]
        for t in waiters:
            t.start()
        for t in waiters:
            t.join(20)
        return len(opens), got

    opens, got = run_ranks(2, fn)[1]
    assert opens == 1
    assert got == [body] * 4


@pytest.mark.parametrize("encrypted", [False, True])
def test_every_waiter_on_a_pending_receive_returns(encrypted):
    body = os.urandom(4096)

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            (g.encrypted_send if encrypted else g.send)(1, DATA, body)
            return None
        opens = []
        if encrypted:
            open_frame = g.provider.open

            def counting_open(frame):
                opens.append(frame)
                return open_frame(frame)

            g.provider.open = counting_open
        h = (g.encrypted_irecv if encrypted else g.irecv)(0, DATA)
        ready = threading.Barrier(5)
        got = []

        def waiter():
            ready.wait(10)
            h.wait(timeout=10)
            got.append(h.data)

        waiters = [threading.Thread(target=waiter) for _ in range(4)]
        for t in waiters:
            t.start()
        ready.wait(10)
        time.sleep(0.05)  # let the waiters block on the pending handle
        assert not h.done
        g.send(0, SYNC, b"")
        for t in waiters:
            t.join(20)
        assert not any(t.is_alive() for t in waiters)
        return len(opens), got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        opens, got = run_ranks(2, fn, with_provider=encrypted, timeout=30)[1]
    finally:
        sys.setswitchinterval(interval)
    assert got == [body] * 4
    assert opens == (1 if encrypted else 0)


def test_messages_build_no_condition(monkeypatch):
    # a guard that times nothing: a per-message threading.Event (which
    # builds a pure-Python Condition) would show up here as a count
    built = []

    class CountingCondition(threading.Condition):
        def __init__(self, *args, **kwargs):
            built.append(threading.current_thread().name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Condition", CountingCondition)
    body = os.urandom(1024)

    def exchange(g, rounds):
        peer = 1 - g.rank
        for send, recv in ((g.send, g.recv), (g.encrypted_send, g.encrypted_recv)):
            for _ in range(rounds):
                if g.rank == 0:
                    send(peer, DATA, body)
                    assert recv(peer, DATA) == body
                else:
                    send(peer, DATA, recv(peer, DATA))

    def fn(g):
        exchange(g, 10)  # warm-up
        g.barrier()
        before = len(built)
        exchange(g, 100)  # 200 plaintext and 200 encrypted messages
        g.barrier()
        return len(built) - before

    assert run_ranks(2, fn, timeout=60) == [0, 0]


def test_wrong_key_surfaces_integrity_error_from_wait():
    keys = [TEST_KEY, bytes(32)]

    def fn(g):
        if g.rank == 0:
            g.encrypted_send(1, DATA, b"sealed under another key")
            g.recv(1, SYNC)
        else:
            h = g.encrypted_irecv(0, DATA)
            with pytest.raises(IntegrityError):
                h.wait(timeout=10)
            with pytest.raises(IntegrityError):
                h.wait(timeout=10)  # the same error again, not a hang
            g.send(0, SYNC, b"ok")
            return True

    assert run_ranks(2, fn, keys=keys)[1] is True


def test_garbage_frame_surfaces_integrity_error():
    def fn(g):
        if g.rank == 0:
            g.send(1, DATA, os.urandom(100 + FRAME_OVERHEAD))  # not a real frame
        else:
            with pytest.raises(IntegrityError):
                g.encrypted_recv(0, DATA)
            return True

    assert run_ranks(2, fn)[1] is True


def test_mode_bit_follows_plaintext_length_not_wire_length():
    # the split falls on the plaintext length whatever the frame's
    # expansion: with frames 40 bytes longer, T-1 bytes still go eager
    threshold = 8192
    for padded in (False, True):
        expansion = FRAME_OVERHEAD + (PaddedFrameProvider.PAD if padded else 0)
        writes = []

        def fn(g):
            if padded:
                g.provider = PaddedFrameProvider()
            if g.rank == 0:
                conn = g._conns[1]
                original = conn.write

                def tap(data):
                    writes.append(bytes(data))
                    return original(data)

                conn.write = tap
                g.encrypted_send(1, DATA, bytes(threshold - 1))  # eager by plaintext
                g.encrypted_send(1, DATA, bytes(threshold))      # rendezvous by plaintext
            else:
                g.encrypted_recv(0, DATA)
                g.encrypted_recv(0, DATA)

        run_ranks(2, fn, threshold=threshold)
        modes = []
        for w in writes:
            if len(w) >= HEADER.size:
                mode, length, _tag = HEADER.unpack(w[: HEADER.size])
                modes.append((mode, length, len(w)))
        # first message: eager header+frame in one write, wire body is
        # plaintext + expansion (larger than the threshold, yet still eager)
        assert modes[0][0] == 0
        assert modes[0][1] == threshold - 1 + expansion
        assert modes[0][2] == HEADER.size + threshold - 1 + expansion
        # second message: bare RTS header first, body follows after CTS
        assert modes[1][0] == 1
        assert modes[1][1] == threshold + expansion
        assert modes[1][2] == HEADER.size


def test_encrypted_rendezvous_path():
    body = os.urandom(150_000)  # beyond the default threshold

    def fn(g):
        if g.rank == 0:
            g.encrypted_send(1, DATA, body)
        else:
            return g.encrypted_recv(0, DATA)

    assert run_ranks(2, fn)[1] == body


def test_encrypted_ops_require_provider():
    def fn(g):
        if g.rank == 0:
            with pytest.raises(ValueError):
                g.encrypted_isend(1, DATA, b"")
        return True

    assert run_ranks(2, fn, with_provider=False) == [True, True]


def test_connection_loss_fails_pending_receives():
    roster = free_roster(2)
    errors = []
    observed = []

    def rank0():
        try:
            with ProcessGroup(0, roster, timeout=30) as g:
                h = g.irecv(1, DATA)
                with pytest.raises(ConnectionLost):
                    h.wait(timeout=20)
                with pytest.raises(TransportError):
                    g.send(1, DATA, b"after loss")
                observed.append(True)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def rank1():
        try:
            g = ProcessGroup(1, roster, timeout=30)
            time.sleep(0.2)  # let rank 0 post its receive
            g.close(synchronize=False)  # abrupt, as on a failure path
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=rank0, daemon=True), threading.Thread(target=rank1, daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors
    assert observed == [True]
