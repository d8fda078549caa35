import array
import os
import resource
import socket
import sys
import threading
import time

import pytest

from helpers import (
    TEST_KEY,
    PaddedFrameProvider,
    free_roster,
    run_process_ranks,
    run_ranks,
    write_roster,
)
from secmsg.aead import FRAME_OVERHEAD, IntegrityError
from secmsg.collectives import alltoall
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


def test_each_rank_runs_one_progress_thread_that_close_stops():
    def fn(g):
        g.barrier()  # every rank's group is up
        mine = [t for t in threading.enumerate()
                if t.name.startswith("secmsg-") and t.name.split("-")[2] == str(g.rank)]
        g.barrier()  # and no rank has closed yet
        return mine

    threads = run_ranks(4, fn, with_provider=False)
    assert [[t.name for t in ts] for ts in threads] == [[f"secmsg-progress-{r}"] for r in range(4)]
    assert not any(t.is_alive() for ts in threads for t in ts)


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
    # peer's engine expects body bytes, so both ranks must fail, typed
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
    # receive is posted at rank 0, so its engine must see the violation
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
            with conn.lock:  # rank 1's engine cannot act on a CTS until checked
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


@pytest.mark.parametrize("op", ["isend", "encrypted_isend", "irecv", "encrypted_irecv"])
def test_tag_outside_the_u32_header_field_is_rejected(op):
    def fn(g):
        if g.rank == 1:
            return g.recv(0, DATA)
        body = (b"x",) if op.endswith("isend") else ()
        for tag in (-1, 2**32):
            with pytest.raises(ValueError, match="tag"):
                getattr(g, op)(1, tag, *body)
        g.send(1, DATA, b"after")

    assert run_ranks(2, fn) == [None, b"after"]


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
    # message already queued when the receive came, else in the progress
    # thread, since rank 1 only polls the handle
    in_engine = not (first == "arrived" and size < _ARRIVAL_THRESHOLD)
    assert openers[0].startswith("secmsg-progress-") == in_engine


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
        assert g.recv(0, NEXT) == b"next"  # rank 0's second send is in before rank 1 closes
        return h.data

    assert run_ranks(2, fn, threshold=_ARRIVAL_THRESHOLD, timeout=30)[1] == body


@pytest.mark.parametrize("first,size", _ARRIVALS)
def test_a_faulty_open_fails_its_receive_and_spares_the_engine(first, size):
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


def test_a_rejected_encrypted_send_seals_nothing():
    body = os.urandom(1 << 20)

    def fn(g):
        if g.rank == 1:
            return g.recv(0, SYNC)  # then leaves, so rank 0's connection dies
        seals = []
        seal = g.provider.seal

        def counting_seal(plaintext):
            seals.append(len(plaintext))
            return seal(plaintext)

        g.provider.seal = counting_seal
        rejected = [(1, -1, "tag"), (1, 2**32, "tag"), (0, DATA, "self"), (2, DATA, "range")]
        for dest, tag, match in rejected:
            with pytest.raises(ValueError, match=match):
                g.encrypted_isend(dest, tag, body)
        g.send(1, SYNC, b"done")
        _poll_until(lambda: g._conns[1].error is not None)
        with pytest.raises(ConnectionLost):
            g.encrypted_isend(1, DATA, body)
        return seals

    assert run_ranks(2, fn, timeout=30) == [[], b"done"]


# -- a waiting thread reads its own connection ---------------------------


@pytest.mark.parametrize("encrypted", [False, True])
def test_a_receive_that_no_thread_waits_on_still_completes(encrypted):
    # rank 1's waits have just driven the engine themselves, so its
    # progress thread pauses; then rank 1 only polls a rendezvous
    # receive, which the progress thread must still answer and fill
    body = os.urandom(1 << 20)

    def fn(g):
        for _ in range(200):
            if g.rank == 0:
                g.send(1, SYNC, b"ping")
                g.recv(1, SYNC)
            else:
                g.send(0, SYNC, g.recv(0, SYNC))
        if g.rank == 0:
            started = time.monotonic()
            (g.encrypted_send if encrypted else g.send)(1, DATA, body)
            return time.monotonic() - started
        h = (g.encrypted_irecv if encrypted else g.irecv)(0, DATA)
        _poll_until(lambda: h.done)
        return h.data

    took, got = run_ranks(2, fn, with_provider=encrypted, timeout=30)
    assert took < 10
    assert got == body


def test_threads_waiting_on_one_connection_each_return_their_own_message():
    # four threads of rank 1 wait untimed on one connection: one drives
    # the engine, the others park; rank 0 sends in reverse tag order, eager
    # and rendezvous mixed, so whoever drives reads messages parked waits want
    threshold = 4096
    tags = [10, 11, 12, 13]
    bodies = {tag: os.urandom(size) for tag, size in zip(tags, (100, 20_000, 3000, 50_000))}
    rounds = 5

    def fn(g):
        if g.rank == 0:
            for _ in range(rounds):
                g.recv(1, SYNC)
                for tag in reversed(tags):
                    g.send(1, tag, bodies[tag])
            return None
        got = []
        for _ in range(rounds):
            handles = {tag: g.irecv(0, tag) for tag in tags}
            ready = threading.Barrier(len(tags) + 1)

            def waiter(tag):
                ready.wait(10)
                handles[tag].wait()
                got.append((tag, handles[tag].data == bodies[tag]))

            waiters = [threading.Thread(target=waiter, args=(tag,)) for tag in tags]
            for t in waiters:
                t.start()
            ready.wait(10)
            time.sleep(0.01)  # let the waiters block before anything is sent
            g.send(0, SYNC, b"")
            for t in waiters:
                t.join(20)
            assert not any(t.is_alive() for t in waiters)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        got = run_ranks(2, fn, threshold=threshold, with_provider=False, timeout=60)[1]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(got) == sorted((tag, True) for tag in tags for _ in range(rounds))


@pytest.mark.parametrize("size", [1024, 16384], ids=["eager", "rendezvous"])
def test_an_untimed_wait_opens_its_receive_in_the_waiting_thread(size):
    body = os.urandom(size)

    def fn(g):
        if g.rank == 0:
            for _ in range(3):
                g.recv(1, SYNC)
                time.sleep(0.005)  # rank 1 waits for the reply, and so reads it
                g.send(1, SYNC, b"pong")
            time.sleep(0.05)  # let rank 1 block in wait() first
            g.encrypted_send(1, DATA, body)
            return None
        openers = []
        open_frame = g.provider.open

        def counting_open(frame):
            openers.append(threading.current_thread().name)
            return open_frame(frame)

        g.provider.open = counting_open
        h = g.encrypted_irecv(0, DATA)
        for _ in range(3):  # round trips whose waits read the connection
            g.send(0, SYNC, b"ping")
            g.recv(0, SYNC)
        h.wait()
        return openers, threading.current_thread().name, h.data

    openers, waiter, got = run_ranks(2, fn, threshold=_ARRIVAL_THRESHOLD, timeout=30)[1]
    assert got == body
    assert openers == [waiter]


def test_a_parked_wait_returns_once_its_message_is_read_while_the_driver_waits_on():
    # rank 1's main thread drives the engine, waiting for a message that
    # rank 0 sends only once rank 1's other thread, parked at its gate
    # meanwhile, has returned with its own message
    b_returned = threading.Event()

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            time.sleep(0.005)  # rank 1 waits for the reply, so it drives next
            g.send(1, SYNC, b"pong")
            time.sleep(0.05)  # let rank 1 drive for tag 1 and park on tag 2
            g.send(1, 2, b"b")
            assert b_returned.wait(10), "the parked wait did not return"
            g.send(1, 1, b"a")
            return None
        first, second = g.irecv(0, 1), g.irecv(0, 2)

        def parked():
            time.sleep(0.01)  # the main thread drives by now
            second.wait()
            b_returned.set()

        g.send(0, SYNC, b"ping")
        g.recv(0, SYNC)
        t = threading.Thread(target=parked)
        t.start()
        first.wait()
        t.join(10)
        return first.data, second.data

    assert run_ranks(2, fn, with_provider=False, timeout=30)[1] == (b"a", b"b")


def test_a_timed_wait_is_served_once_the_driver_stops_driving(monkeypatch):
    # rank 1's progress thread pauses, for longer than the test, once rank
    # 1's caller has driven a round trip.  Then a second thread waits with
    # a timeout for Y while the main thread waits untimed for X, which
    # comes first: whoever drives for X must rouse the progress thread for
    # Y as it stops driving.
    monkeypatch.setattr("secmsg.transport.PROGRESS_PAUSE", 3600.0)
    X, Y = 1, 2

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            time.sleep(0.005)  # rank 1 waits for the reply, so it drives
            g.send(1, SYNC, b"pong")
            time.sleep(0.05)  # let rank 1 block in both waits first
            g.send(1, X, b"x")
            time.sleep(0.05)
            g.send(1, Y, b"y")
            return None
        g.send(0, SYNC, b"ping")
        g.recv(0, SYNC)
        late = g.irecv(0, Y)
        timed_out = []

        def timed_waiter():
            try:
                late.wait(timeout=5)
            except TimeoutError as exc:
                timed_out.append(exc)

        t = threading.Thread(target=timed_waiter)
        t.start()
        time.sleep(0.01)  # the timed wait is in place first
        first = g.recv(0, X)
        t.join(10)
        assert not timed_out, "the timed wait waited out the progress pause"
        return first, late.data

    assert run_ranks(2, fn, with_provider=False, timeout=30)[1] == (b"x", b"y")


def test_timed_and_untimed_waits_on_one_connection_miss_no_rouse(monkeypatch):
    # four threads of rank 1 wait on one connection, two with a timeout
    # and two without, for messages that rank 0 sends in reverse tag
    # order, eager and rendezvous mixed.  With the progress pause far longer
    # than the test, a wait whose rouse is lost times out or hangs.
    monkeypatch.setattr("secmsg.transport.PROGRESS_PAUSE", 3600.0)
    threshold = 4096
    tags = [10, 11, 12, 13]
    bodies = {tag: os.urandom(size) for tag, size in zip(tags, (100, 20_000, 3000, 50_000))}
    timeouts = {10: 10.0, 11: None, 12: None, 13: 10.0}
    rounds = 20

    def fn(g):
        if g.rank == 0:
            for _ in range(rounds):
                g.recv(1, SYNC)
                for tag in reversed(tags):
                    g.send(1, tag, bodies[tag])
            return None
        got = []
        for r in range(rounds):
            handles = {tag: g.irecv(0, tag) for tag in tags}
            ready = threading.Barrier(len(tags) + 1)

            def waiter(tag):
                ready.wait(10)
                try:
                    handles[tag].wait(timeouts[tag])
                except TimeoutError:
                    got.append((tag, "timed out"))
                else:
                    got.append((tag, handles[tag].data == bodies[tag]))

            waiters = [threading.Thread(target=waiter, args=(tag,)) for tag in tags]
            for t in waiters:
                t.start()
            ready.wait(10)
            time.sleep(0.001 * (r % 3))  # the waits are in place, or still arriving
            g.send(0, SYNC, b"")
            for t in waiters:
                t.join(20)
            assert not any(t.is_alive() for t in waiters)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        got = run_ranks(2, fn, threshold=threshold, with_provider=False, timeout=120)[1]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(got) == sorted((tag, True) for tag in tags for _ in range(rounds))


def test_threads_waiting_on_two_connections_each_return_their_own_message(monkeypatch):
    # eight threads of rank 0 wait, timed and untimed, for messages from
    # ranks 1 and 2 at once, eager and rendezvous mixed: with two
    # connections the engine waits in poll, and each wait either drives
    # it for every thread or sleeps while another thread does.  With the
    # progress thread's pause far longer than the test, a wait whose
    # rouse is lost times out or hangs.
    monkeypatch.setattr("secmsg.transport.PROGRESS_PAUSE", 3600.0)
    sizes = {10: 100, 11: 20_000, 12: 3000, 13: 50_000}
    timeouts = {10: 10.0, 11: None, 12: None, 13: 10.0}
    bodies = {(src, tag): os.urandom(size) for src in (1, 2) for tag, size in sizes.items()}
    rounds = 10

    def fn(g):
        if g.rank != 0:
            for _ in range(rounds):
                g.recv(0, SYNC)
                for tag in reversed(list(sizes)):
                    g.send(0, tag, bodies[g.rank, tag])
            return None
        got = []
        for r in range(rounds):
            handles = {key: g.irecv(*key) for key in bodies}
            ready = threading.Barrier(len(handles) + 1)

            def waiter(key):
                ready.wait(10)
                try:
                    handles[key].wait(timeouts[key[1]])
                except TimeoutError:
                    got.append((key, "timed out"))
                else:
                    got.append((key, handles[key].data == bodies[key]))

            waiters = [threading.Thread(target=waiter, args=(key,)) for key in handles]
            for t in waiters:
                t.start()
            ready.wait(10)
            time.sleep(0.001 * (r % 3))  # the waits are in place, or still arriving
            g.send(1, SYNC, b"")
            g.send(2, SYNC, b"")
            for t in waiters:
                t.join(20)
            assert not any(t.is_alive() for t in waiters)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        got = run_ranks(3, fn, threshold=4096, with_provider=False, timeout=120)[0]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(got) == sorted((key, True) for key in bodies for _ in range(rounds))


class Interrupt(BaseException):
    pass


def test_a_read_interrupted_part_way_through_a_unit_leaves_the_connection_up():
    # rank 1's waiting thread drives the engine, and its socket takes in
    # part of the message, then is interrupted; the part stays buffered,
    # so the stream stays in step and the next wait completes the message
    body = os.urandom(1000)

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            time.sleep(0.005)  # rank 1 waits for the reply, so it drives next
            g.send(1, SYNC, b"pong")
            time.sleep(0.05)  # let rank 1 block in wait() first
            g.send(1, DATA, body)
            return None
        conn = g._conns[0]
        waiter = threading.current_thread()
        armed = []

        class PartialReads:
            """The connection's socket, whose receives in the waiting thread
            once armed take 100 bytes, then raise ``Interrupt``."""

            def __init__(self, sock):
                self._sock = sock

            def recv_into(self, buffer, nbytes=0):
                if armed and threading.current_thread() is waiter:
                    if armed.pop() == "part":
                        return self._sock.recv_into(buffer, 100)
                    raise Interrupt
                return self._sock.recv_into(buffer, nbytes)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        h = g.irecv(0, DATA)
        conn.sock = PartialReads(conn.sock)
        g.send(0, SYNC, b"ping")
        g.recv(0, SYNC)
        armed.extend(["interrupt", "part"])
        with pytest.raises(Interrupt):
            h.wait()
        assert not armed and not h.done
        assert conn.error is None
        h.wait()
        return h.data

    assert run_ranks(2, fn, with_provider=False, timeout=30) == [None, body]


@pytest.mark.parametrize("timeout", [10, None], ids=["timed", "untimed"])
def test_an_interruption_before_a_unit_leaves_the_connection_up(timeout):
    # rank 1's waiting thread drives the engine, spins out, and its poll
    # is interrupted as it sleeps, before any byte of the message is read;
    # a timed and an untimed wait sleep in the same poll
    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            time.sleep(0.005)  # rank 1 waits for the reply, so it drives next
            g.send(1, SYNC, b"pong")
            g.recv(1, SYNC)
            g.send(1, DATA, b"delivered")
            return None
        waiter = threading.current_thread()
        poll = g._poll
        armed = threading.Event()

        class InterruptedPoll:
            """The engine's poll, whose next sleeping poll in the waiting
            thread once armed raises ``Interrupt``."""

            def poll(self, ms=None):
                if ms != 0 and armed.is_set() and threading.current_thread() is waiter:
                    armed.clear()
                    raise Interrupt
                return poll.poll(ms)

            def __getattr__(self, name):
                return getattr(poll, name)

        h = g.irecv(0, DATA)
        g._poll = InterruptedPoll()
        g.send(0, SYNC, b"ping")
        g.recv(0, SYNC)
        armed.set()
        with pytest.raises(Interrupt):
            h.wait(timeout)
        assert g._conns[0].error is None
        g.send(0, SYNC, b"go on")
        h.wait()
        return h.data

    assert run_ranks(2, fn, with_provider=False, timeout=30) == [None, b"delivered"]


@pytest.mark.parametrize("order", ["send-first", "receive-first"])
def test_a_rendezvous_ring_does_not_wait_out_the_progress_pause(order, monkeypatch):
    # each rank of a three-rank ring blocks on one neighbour while the
    # other waits on it to read a unit from their connection: the CTS for
    # its send (send-first) or the RTS for its posted receive
    # (receive-first).  With the progress threads' pause far longer than
    # the test, the ring moves only if a rank that blocks rouses them.
    monkeypatch.setattr("secmsg.transport.PROGRESS_PAUSE", 3600.0)
    body = os.urandom(65536)
    steps = 20

    def fn(g):
        # first every rank waits on each connection while its peer sleeps,
        # so the callers drive every engine and every progress thread pauses
        for pair in ((0, 1), (1, 2), (0, 2)):
            if g.rank not in pair:
                continue
            peer = pair[1] if g.rank == pair[0] else pair[0]
            for _ in range(3):
                if g.rank == pair[0]:
                    time.sleep(0.005)
                    g.send(peer, SYNC, b"")
                    g.recv(peer, SYNC)
                else:
                    g.recv(peer, SYNC)
                    time.sleep(0.005)
                    g.send(peer, SYNC, b"")
        right, left = (g.rank + 1) % 3, (g.rank - 1) % 3
        started = time.monotonic()
        for _ in range(steps):
            if order == "send-first":
                sent = g.isend(right, DATA, body)
                got = g.recv(left, DATA)
                sent.wait()
            else:
                h = g.irecv(left, DATA)
                g.send(right, DATA, body)
                h.wait()
                got = h.data
            assert got == body
        return time.monotonic() - started

    took = run_ranks(3, fn, threshold=4096, with_provider=False, timeout=30)
    assert max(took) < 10


def test_a_ring_of_large_rendezvous_bodies_over_small_socket_buffers_never_hangs():
    # every rank writes a 4 MiB body to its right neighbour while it reads
    # one from its left.  With 64 KiB socket buffers each body goes out in
    # many pieces, so a rank that blocked writing its body, and read
    # nothing meanwhile, would stall its left neighbour, and the ring
    body = os.urandom(4 << 20)

    def fn(g):
        for conn in g._conns.values():
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
        g.barrier()
        right, left = (g.rank + 1) % 3, (g.rank - 1) % 3
        started = time.monotonic()
        for _ in range(5):
            sent = g.isend(right, DATA, body)
            got = g.recv(left, DATA)
            sent.wait()
            assert got == body
        return time.monotonic() - started

    took = run_ranks(3, fn, with_provider=False, timeout=30)
    assert max(took) < 10


# -- a driving wait spins before it sleeps --------------------------------


class _CountingPoll:
    """A group's poll that records the timeout of every poll that
    ``thread`` makes."""

    def __init__(self, poll, thread):
        self.inner = poll
        self.thread = thread
        self.timeouts = []

    def poll(self, timeout=None):
        if threading.current_thread() is self.thread:
            self.timeouts.append(timeout)
        return self.inner.poll(timeout)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _time_a_driving_wait(monkeypatch, timeout):
    """Run two thread ranks in which rank 1's caller drives its engine for
    ``h.wait(timeout)`` on a receive that no message reaches; return the
    timeouts of the polls that wait made, and how long it took.  With the
    progress threads' pause longer than the test, once rank 1's caller
    has waited out a round trip its progress thread stays off the engine."""
    monkeypatch.setattr("secmsg.transport.PROGRESS_PAUSE", 3600.0)

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            time.sleep(0.005)  # rank 1 waits for the reply, so its progress thread pauses
            g.send(1, SYNC, b"pong")
            g.recv(1, SYNC)
            return None
        g.send(0, SYNC, b"ping")
        g.recv(0, SYNC)
        h = g.irecv(0, DATA)
        counting = g._poll = _CountingPoll(g._poll, threading.current_thread())
        start = time.perf_counter()
        with pytest.raises(TimeoutError):
            h.wait(timeout)
        took = time.perf_counter() - start
        g._poll = counting.inner
        g.send(0, SYNC, b"done")
        return counting.timeouts, took

    return run_ranks(2, fn, with_provider=False, timeout=30)[1]


def test_a_zero_timeout_wait_that_drives_the_engine_polls_once(monkeypatch):
    # the spin before the engine sleeps ends at the wait's deadline, so a
    # wait(0) that drives makes one non-blocking poll and raises at once
    timeouts, took = _time_a_driving_wait(monkeypatch, 0)
    assert timeouts == [0]
    assert took < 1.0


def test_a_timed_wait_that_drives_the_engine_returns_at_its_deadline(monkeypatch):
    # the wait spins, then sleeps in poll for the rest of its 20 ms
    timeouts, took = _time_a_driving_wait(monkeypatch, 0.02)
    assert timeouts[0] == 0 and timeouts[-1] > 0
    assert 0.02 <= took < 0.5


def test_an_untimed_wait_that_outlasts_its_spin_sleeps_in_poll(monkeypatch):
    # rank 1's caller drives for an untimed receive whose message comes
    # long after its spin ends; then it sleeps in the engine's poll,
    # without a timeout, on two ranks as on more
    monkeypatch.setattr("secmsg.transport.PROGRESS_PAUSE", 3600.0)

    def fn(g):
        if g.rank == 0:
            g.recv(1, SYNC)
            time.sleep(0.005)  # rank 1 waits for the reply, so its progress thread pauses
            g.send(1, SYNC, b"pong")
            g.recv(1, SYNC)
            time.sleep(0.05)  # rank 1's wait spins out and sleeps
            g.send(1, DATA, b"late")
            return None
        g.send(0, SYNC, b"ping")
        g.recv(0, SYNC)
        h = g.irecv(0, DATA)
        counting = g._poll = _CountingPoll(g._poll, threading.current_thread())
        g.send(0, SYNC, b"")
        h.wait()
        g._poll = counting.inner
        return counting.timeouts, h.data

    timeouts, got = run_ranks(2, fn, with_provider=False, timeout=30)[1]
    assert got == b"late"
    assert timeouts[0] == 0 and None in timeouts


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def test_an_idle_group_with_a_receive_no_one_waits_on_burns_no_cpu():
    # rank 1's progress thread alone drives for the posted receive, and it
    # never spins: it sleeps in poll before the message comes and after.
    # Rank 0's caller spins for SPIN at most, then sleeps too.
    def fn(g):
        if g.rank == 0:
            time.sleep(0.2)
            g.send(1, DATA, b"late")
            g.recv(1, SYNC)
            return None
        h = g.irecv(0, DATA)
        counting = g._poll = _CountingPoll(g._poll, g._progress)
        cpu, start = _cpu_seconds(), time.monotonic()
        time.sleep(0.5)
        share = (_cpu_seconds() - cpu) / (time.monotonic() - start)
        _poll_until(lambda: h.done)
        g._poll = counting.inner
        g.send(0, SYNC, b"")
        return share, counting.timeouts, h.data

    share, timeouts, got = run_ranks(2, fn, with_provider=False, timeout=30)[1]
    assert got == b"late"
    assert 0 not in timeouts, "the progress thread polled without blocking"
    assert share < 0.2, f"the idle ranks used {share:.0%} of a CPU"


def _round_trips_on_one_cpu_rank(g):
    # both ranks pin their caller and progress thread to one CPU, so a
    # rank that spins shares that CPU with the peer it waits for
    cpu = min(os.sched_getaffinity(0))
    for thread_id in (0, g._progress.native_id):
        os.sched_setaffinity(thread_id, {cpu})
    peer = 1 - g.rank
    for i in range(2000):
        body = i.to_bytes(4, "little") * 256
        if g.rank == 0:
            g.send(peer, DATA, body)
            assert g.recv(peer, DATA) == body
        else:
            assert g.recv(peer, DATA) == body
            g.send(peer, DATA, body)
    for i in range(5):
        got = alltoall(g, [bytes([i, g.rank, dest, 0]) * (1 << 16) for dest in range(2)])
        assert got == [bytes([i, src, g.rank, 0]) * (1 << 16) for src in range(2)]
    return True


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_two_ranks_sharing_one_cpu_make_progress():
    # 2000 round trips of 1 KiB, then five alltoalls of 256 KiB elements
    done = run_process_ranks(2, _round_trips_on_one_cpu_rank, with_provider=False, timeout=120)
    assert done == [True, True]


# -- hangs still open (see ROADMAP) ---------------------------------------


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP direction 4: an eager send queues behind a rendezvous send "
    "awaiting CTS, and the receiver's engine takes what follows that RTS as its body",
)
def test_a_small_send_is_not_held_behind_an_unmatched_rendezvous_send():
    # legal in MPI: the receive for SMALL needs no receive for BIG
    BIG, SMALL = 1, 2

    def fn(g):
        if g.rank == 0:
            g.isend(1, BIG, bytes(1 << 20))
            h = g.isend(1, SMALL, b"small")
        else:
            h = g.irecv(0, SMALL)
        try:
            h.wait(timeout=5)
        except TimeoutError:
            return "timed out"
        return h.data if g.rank == 1 else "sent"

    assert run_ranks(2, fn, with_provider=False, timeout=30) == ["sent", b"small"]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP direction 3: a graceful close waits on a rendezvous send "
    "whose CTS never comes",
)
def test_a_graceful_close_returns_with_an_unmatched_rendezvous_send():
    def fn(g):
        if g.rank == 0:
            g.isend(1, 1, bytes(1 << 20))
            started = time.monotonic()
            g.close()
            return time.monotonic() - started
        try:
            g.irecv(0, 2).wait(timeout=8)
        except (TimeoutError, ConnectionLost):
            pass
        return None

    took = run_ranks(2, fn, with_provider=False, timeout=30)[0]
    assert took < 5, f"close() returned only after {took:.1f}s, once the peer gave up"
