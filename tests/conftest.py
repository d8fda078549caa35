import os
import socket
import threading

import pytest

# child processes (the acceptance tests run `python -m secmsg.cli`) do not
# see pytest's in-process `pythonpath`; hand them this checkout's src
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from secmsg.aead import create_provider
from secmsg.transport import ProcessGroup, StartupError

TEST_KEY = bytes(range(32))


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
