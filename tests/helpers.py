"""Test helpers shared across test modules: rank groups on threads or
processes, a padded-frame provider, the bench summary parser, and the
roster writer and max-rate residual that only tests use.

A plain module, not ``conftest``, so that a test module's import of it
cannot resolve to another directory's ``conftest`` when several test
directories are collected in one run.
"""

import socket
import subprocess
import sys
import threading
import time

import pytest

from secmsg.aead import IntegrityError, create_provider
from secmsg.transport import ProcessGroup, StartupError

TEST_KEY = bytes(range(32))


class PaddedFrameProvider:
    """A provider whose frames are ``PAD`` bytes longer than AES-GCM's:
    it seals with AES-GCM and appends ``PAD`` zero bytes, which ``open``
    checks and strips.  Code that takes a frame's expansion to be 28
    bytes miscounts with it."""

    PAD = 40

    def __init__(self, key=TEST_KEY):
        self._inner = create_provider("aes-gcm", key)

    def seal(self, plaintext):
        return self._inner.seal(plaintext) + bytes(self.PAD)

    def open(self, buf):
        if buf[-self.PAD:] != bytes(self.PAD):
            raise IntegrityError("frame padding damaged")
        return self._inner.open(memoryview(buf)[:-self.PAD])


def write_roster(path, roster):
    """Write ``roster`` as ``rank host port`` lines, the format ``read_roster`` parses."""
    with open(path, "w", encoding="utf-8") as fh:
        for rank, (host, port) in enumerate(roster):
            fh.write(f"{rank} {host} {port}\n")


def maxrate_residual(params, data):
    """Sum of squared residuals of one max-rate class model over (k, m, latency)."""
    return sum((params.predict(k, m) - y) ** 2 for k, m, y in data)


def free_roster(n):
    """Reserve n distinct loopback ports and return them as a roster."""
    socks = []
    for _ in range(n):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    roster = [("127.0.0.1", s.getsockname()[1]) for s in socks]
    for s in socks:
        s.close()
    return roster


def run_ranks(n, fn, *, threshold=131072, keys=None, with_provider=True, timeout=120):
    """Run fn(group) on n threads, one rank each; returns per-rank results.

    Any rank's exception fails the test; hung ranks fail it after the
    timeout.  ``keys`` supplies a per-rank AEAD key (defaults to a shared
    fixed key).
    """
    last_startup_error = None
    for _ in range(3):  # retry if a reserved port got stolen between bind and use
        roster = free_roster(n)
        results = [None] * n
        errors = []

        def runner(rank):
            provider = None
            if with_provider:
                key = keys[rank] if keys is not None else TEST_KEY
                provider = create_provider("aes-gcm", key)
            try:
                with ProcessGroup(
                    rank, roster, provider=provider, threshold=threshold, timeout=30
                ) as g:
                    results[rank] = fn(g)
            except Exception as exc:
                errors.append((rank, exc))

        threads = [
            threading.Thread(target=runner, args=(r,), daemon=True) for r in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
        hung = [i for i, t in enumerate(threads) if t.is_alive()]
        if hung:
            pytest.fail(
                f"ranks {hung} did not finish within {timeout}s"
                + (f"; other ranks failed: {errors!r}" if errors else "")
            )
        if errors and all(isinstance(e, StartupError) for _, e in errors):
            last_startup_error = errors[0][1]
            continue
        if errors:
            rank, exc = errors[0]
            raise AssertionError(f"rank {rank} failed: {exc!r}") from exc
        return results
    raise AssertionError(f"group startup kept failing: {last_startup_error!r}")


def summary_rows(stdout):
    """The rows of the summary table `bench` prints, split into columns."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["size_bytes", "k"])
    return [line.split() for line in lines[start + 1:]]


def run_cli_ranks(n, tmp_path, argv, *, timeout=240):
    """Run ``python -m secmsg.cli *argv(rank) --roster R --rank rank`` as n
    processes on a fresh roster; returns each rank's ``CompletedProcess``.

    Each rank's stdout and stderr are captured to files, so no full pipe
    can stall a rank.  A run in which some rank could not bind its port
    (taken between reservation and bind) is retried on a new roster.  When
    a rank fails, every rank's stderr is printed, so a failing test shows
    it; ranks still running after ``timeout`` are killed and fail the test.
    """
    roster_path = str(tmp_path / "roster.txt")
    for attempt in range(1, 4):
        write_roster(roster_path, free_roster(n))
        logs = [(tmp_path / f"rank{r}.out", tmp_path / f"rank{r}.err") for r in range(n)]
        procs = []
        for rank, (out, err) in enumerate(logs):
            with open(out, "w") as stdout, open(err, "w") as stderr:
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "secmsg.cli", *argv(rank),
                     "--roster", roster_path, "--rank", str(rank)],
                    stdout=stdout, stderr=stderr,
                ))
        deadline = time.monotonic() + timeout
        hung = []
        for rank, p in enumerate(procs):
            try:
                p.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
                hung.append(rank)
        runs = [
            subprocess.CompletedProcess(p.args, p.returncode, out.read_text(), err.read_text())
            for p, (out, err) in zip(procs, logs)
        ]
        if hung or any(r.returncode for r in runs):
            for rank, r in enumerate(runs):
                print(f"attempt {attempt}, rank {rank} exited {r.returncode}; stderr:\n{r.stderr}",
                      file=sys.stderr)
        if hung:
            pytest.fail(f"ranks {hung} did not finish within {timeout}s")
        if not any("cannot bind" in r.stderr for r in runs):
            return runs
    return runs
