"""In-memory spans around the public secmsg calls a rank makes.

The traced stand-ins forward to the real objects and record one span per
call; they are only built for the traced phase, so the untraced phase
calls secmsg directly.  Passing a ``TracedGroup`` and ``TracedProvider``
into ``secmsg.collectives`` records the sends, receives, seals and opens
the collective makes as children of the collective's own span.
"""

from __future__ import annotations

import time


class Tracer:
    """Records ``[call, variant, parent_index, start, end]`` per span.

    ``variant`` ("plain" or "enc") is the variant of the op being run, so
    the plaintext sends an encrypted collective makes count as encrypted
    traffic.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.variant = "plain"
        self._stack: list[int] = []

    def wrap(self, call: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args):
            index = len(spans)
            span = [call, self.variant, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args)
            finally:
                stack.pop()
                span[4] = clock()

        return traced


class TracedHandle:
    def __init__(self, handle, wait) -> None:
        self._handle = handle
        self.wait = wait

    @property
    def data(self) -> bytes:
        return self._handle.data


class TracedGroup:
    """A ProcessGroup stand-in: blocking calls are split into post + wait
    (which is what ``send``/``recv`` do inside the transport) so each part
    gets its own span."""

    def __init__(self, group, tracer: Tracer) -> None:
        self.rank, self.size = group.rank, group.size
        self.isend = self._posting(tracer, "isend", group.isend, "wait_send")
        self.irecv = self._posting(tracer, "irecv", group.irecv, "wait_recv")
        self.encrypted_isend = self._posting(tracer, "isend", group.encrypted_isend, "wait_send")
        self.encrypted_irecv = self._posting(tracer, "irecv", group.encrypted_irecv, "wait_recv")

    @staticmethod
    def _posting(tracer: Tracer, call: str, post, wait_call: str):
        post = tracer.wrap(call, post)

        def traced(*args):
            handle = post(*args)
            return TracedHandle(handle, tracer.wrap(wait_call, handle.wait))

        return traced

    def send(self, dest: int, tag: int, body: bytes) -> None:
        self.isend(dest, tag, body).wait()

    def recv(self, src: int, tag: int) -> bytes:
        handle = self.irecv(src, tag)
        handle.wait()
        return handle.data

    def encrypted_send(self, dest: int, tag: int, body: bytes) -> None:
        self.encrypted_isend(dest, tag, body).wait()

    def encrypted_recv(self, src: int, tag: int) -> bytes:
        handle = self.encrypted_irecv(src, tag)
        handle.wait()
        return handle.data


class TracedProvider:
    def __init__(self, provider, tracer: Tracer) -> None:
        self.seal = tracer.wrap("seal", provider.seal)
        self.open = tracer.wrap("open", provider.open)
