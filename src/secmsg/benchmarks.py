"""Measurement harness: ping-pong, windowed multi-pair, collective and
encrypt-decrypt benchmarks, plus the statistical stopping rule used to
decide when a measurement is stable.

The stopping rule runs an experiment at least 20 times and up to 100
times, stopping as soon as the sample standard deviation is within 5% of
the mean.  If 100 runs are not enough it keeps going until the 99%
confidence half-width (normal approximation) is within 5% of the mean,
or until the hard budget runs out.  Encrypt-decrypt measurements are
much quieter, so they use the same rule with a 5-run minimum.  With a
process group, rank 0 applies the rule and every rank stops with it.

Every benchmark first runs untimed warm-up rounds, 10% of its timed
rounds and at least 10, to shed cold-start effects.

Throughput converts a plaintext byte count and a latency into MB/s with
MB = 10^6 bytes; the 28 bytes of frame expansion per encrypted message
are deliberately excluded.
"""

from __future__ import annotations

import csv
import enum
import math
import os
import random
import statistics
import struct
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

from . import collectives
from .aead import DEFAULT_BACKEND, create_provider
from .transport import ProcessGroup

_ELAPSED = struct.Struct("<d")

DATA_TAG = 0x00500001
REPLY_TAG = 0x00500002

PINGPONG_ROUNDS_SMALL = 10_000
PINGPONG_ROUNDS_LARGE = 1_000
PINGPONG_LARGE_CUTOFF = 1 << 20  # sizes below 1 MiB use the small-count default
MULTIPAIR_WINDOW = 64
MULTIPAIR_ITERATIONS = 100
ENCDEC_ITERATIONS = 500_000
COLLECTIVE_ITERATIONS = 100
ENCDEC_START_LINE_SLACK_S = 60.0  # start-up allowance at encdec_bench's start line
CI_LEVEL = 0.99  # confidence level of the stopping rule and of ci99_halfwidth
CI_Z = statistics.NormalDist().inv_cdf(0.5 + CI_LEVEL / 2.0)


class StopReason(enum.Enum):
    STDDEV_OK = "stddev_ok"
    CI_OK = "ci_ok"
    BUDGET = "budget"


@dataclass(frozen=True)
class StopPolicy:
    """When to stop repeating a measurement."""

    min_runs: int = 20
    max_runs_phase1: int = 100
    cv_target: float = 0.05
    hard_budget: int = 1000

    def __post_init__(self) -> None:
        if self.min_runs < 2:
            raise ValueError("min_runs must be at least 2")
        if not self.min_runs <= self.max_runs_phase1 <= self.hard_budget:
            raise ValueError("need min_runs <= max_runs_phase1 <= hard_budget")
        if not 0 < self.cv_target < 1:
            raise ValueError("cv_target must be in (0, 1)")


ENCDEC_STOP_POLICY = StopPolicy(min_runs=5)


@dataclass(frozen=True)
class LatencySample:
    """One run's mean per-round latency for a (size, pair-count) point."""

    message_size: int
    k_pairs: int
    run_index: int
    latency_us: float

    def __post_init__(self) -> None:
        if self.message_size < 0:
            raise ValueError("message_size must be >= 0")
        if self.k_pairs < 1:
            raise ValueError("k_pairs must be >= 1")
        if self.latency_us <= 0:
            raise ValueError("latency must be positive")


@dataclass(frozen=True)
class BenchmarkResult:
    samples: list[LatencySample] = field(repr=False)
    mean: float
    stddev: float
    ci99_halfwidth: float
    stop_reason: StopReason

    @property
    def run_count(self) -> int:
        return len(self.samples)


def _stop_decision(latencies: list[float], policy: StopPolicy) -> StopReason | None:
    n = len(latencies)
    if n < policy.min_runs:
        return None
    mean = statistics.fmean(latencies)
    sd = statistics.stdev(latencies)
    if n <= policy.max_runs_phase1:
        if sd <= policy.cv_target * mean:
            return StopReason.STDDEV_OK
    elif CI_Z * sd / math.sqrt(n) <= policy.cv_target * mean:
        return StopReason.CI_OK
    if n >= policy.hard_budget:
        return StopReason.BUDGET
    return None


def run_until_stable(
    measure: Callable[[], float],
    policy: StopPolicy = StopPolicy(),
    *,
    group: ProcessGroup | None = None,
    message_size: int = 0,
    k_pairs: int = 1,
) -> BenchmarkResult | None:
    """Repeat ``measure`` (returning µs) until the stopping rule fires.

    With a ``group``, every rank must call this with the same arguments:
    rank 0's latencies drive the rule, and after each run rank 0
    broadcasts its stop reason (empty to continue), so all ranks take the
    same number of runs.  The result holds the caller's own samples with
    the shared stop reason; a caller that only observed (all local
    latencies <= 0, e.g. an idle rank of a small pair count) gets None.
    """
    latencies: list[float] = []
    reason: StopReason | None = None
    while reason is None:
        latencies.append(float(measure()))
        reason = _stop_decision(latencies, policy) if group is None or group.rank == 0 else None
        if group is not None:
            verdict = collectives.bcast(group, 0, reason.value.encode() if reason else b"")
            reason = StopReason(verdict.decode()) if verdict else None
    if all(lat <= 0 for lat in latencies):
        return None
    sd = statistics.stdev(latencies)
    return BenchmarkResult(
        samples=[
            LatencySample(message_size, k_pairs, i, lat) for i, lat in enumerate(latencies)
        ],
        mean=statistics.fmean(latencies),
        stddev=sd,
        ci99_halfwidth=CI_Z * sd / math.sqrt(len(latencies)),
        stop_reason=reason,
    )


def throughput(size_bytes: int, latency_us: float) -> float:
    """Plaintext MB/s (MB = 10^6 bytes); frame expansion is excluded."""
    if size_bytes <= 0:
        raise ValueError("throughput needs a positive message size")
    if latency_us <= 0:
        raise ValueError("throughput needs a positive latency")
    return size_bytes / latency_us


def default_pingpong_rounds(size: int, scale: float = 1.0) -> int:
    rounds = PINGPONG_ROUNDS_SMALL if size < PINGPONG_LARGE_CUTOFF else PINGPONG_ROUNDS_LARGE
    return max(1, round(rounds * scale))


def _warmup_rounds(rounds: int) -> int:
    # 10% of the timed rounds, at least 10, to shed cold-start effects
    return max(10, rounds // 10)


def _payload(size: int, seed: int | None = None) -> bytes:
    return os.urandom(size) if seed is None else random.Random(seed).randbytes(size)


def pingpong(
    g: ProcessGroup,
    size: int,
    rounds: int,
    *,
    encrypted: bool = False,
    warmup: int | None = None,
    initiator: int = 0,
    payload_seed: int | None = None,
) -> float:
    """One ping-pong experiment; returns µs per one-way message.

    Both ranks must call this with identical arguments.  Rank
    ``initiator`` sends first; each round is one full round trip, so the
    reported latency is elapsed / (2 * rounds).
    """
    if g.size != 2:
        raise ValueError("ping-pong needs a group of exactly 2 ranks")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    peer = 1 - g.rank
    body = _payload(size, payload_seed)
    if encrypted:
        send, recv = g.encrypted_send, g.encrypted_recv
    else:
        send, recv = g.send, g.recv

    warmup = _warmup_rounds(rounds) if warmup is None else warmup
    i_am_initiator = g.rank == initiator

    def one_round() -> None:
        if i_am_initiator:
            send(peer, DATA_TAG, body)
            recv(peer, DATA_TAG)
        else:
            recv(peer, DATA_TAG)
            send(peer, DATA_TAG, body)

    for _ in range(warmup):
        one_round()
    g.barrier()
    start = time.perf_counter()
    for _ in range(rounds):
        one_round()
    elapsed = time.perf_counter() - start
    return elapsed * 1e6 / (2 * rounds)


def multipair(
    g: ProcessGroup,
    k: int,
    size: int,
    iterations: int,
    *,
    encrypted: bool = True,
    payload_seed: int | None = None,
) -> float:
    """One multi-pair experiment; returns µs per window of 64 messages.

    Ranks 0..k-1 each send a window of non-blocking messages per
    iteration to their partner rank (rank + k) and wait for a short reply
    before the next iteration; the partner posts a window of receives,
    waits for all of them, then replies.  Rank 0 returns the slowest
    sender's per-iteration time (the aggregate window latency); other
    ranks return their local view.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.size < 2 * k:
        raise ValueError(f"group of {g.size} cannot host {k} pairs")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    sender = g.rank < k
    participating = g.rank < 2 * k
    peer = g.rank + k if sender else g.rank - k
    body = _payload(size, payload_seed)
    reply = b"ok!\n"

    if encrypted:
        isend, irecv = g.encrypted_isend, g.encrypted_irecv
    else:
        isend, irecv = g.isend, g.irecv

    def one_iteration() -> None:
        if sender:
            handles = [isend(peer, DATA_TAG, body) for _ in range(MULTIPAIR_WINDOW)]
            for h in handles:
                h.wait()
            g.recv(peer, REPLY_TAG)
        else:
            handles = [irecv(peer, DATA_TAG) for _ in range(MULTIPAIR_WINDOW)]
            for h in handles:
                h.wait()
            g.send(peer, REPLY_TAG, reply)

    elapsed = 0.0
    if participating:
        for _ in range(_warmup_rounds(iterations)):
            one_iteration()
    g.barrier()
    if participating:
        start = time.perf_counter()
        for _ in range(iterations):
            one_iteration()
        elapsed = time.perf_counter() - start
    g.barrier()

    # rank 0 aggregates the senders' elapsed times; slowest pair wins
    gathered = collectives.allgather(g, _ELAPSED.pack(elapsed))
    if g.rank == 0:
        slowest = max(_ELAPSED.unpack(gathered[r])[0] for r in range(k))
        return slowest * 1e6 / iterations
    return elapsed * 1e6 / iterations if participating else 0.0


_start_line = None  # set in each encdec_bench pool worker by _encdec_init


def _encdec_init(start_line) -> None:
    global _start_line
    _start_line = start_line


def _encdec_worker(
    size: int,
    iterations: int,
    backend: str,
    key: bytes,
    payload_seed: int | None,
) -> tuple[float, float]:
    """One ``encdec_bench`` worker's timed window, ``(start, end)``."""
    provider = create_provider(backend, key)
    buf = _payload(size, payload_seed)
    began = time.perf_counter()
    for _ in range(_warmup_rounds(iterations)):
        provider.open(provider.seal(buf))
    # every peer does the same warm-up, so one that is not at the line
    # within twice this worker's own warm-up (plus start-up slack) is stuck
    _start_line.wait(ENCDEC_START_LINE_SLACK_S + 2 * (time.perf_counter() - began))
    start = time.perf_counter()
    for _ in range(iterations):
        provider.open(provider.seal(buf))
    return start, time.perf_counter()


def encdec_bench(
    size: int,
    iterations: int,
    *,
    threads: int = 1,
    backend: str = DEFAULT_BACKEND,
    key: bytes | None = None,
    payload_seed: int | None = None,
) -> float:
    """One encrypt-then-decrypt experiment; returns µs per round.

    ``threads`` workers each seal and open a ``size``-byte buffer
    ``iterations`` times.  The workers are a ``spawn`` process pool
    (whatever the global start method), each with its own provider and
    payload, so k workers run AES-GCM in parallel instead of taking turns
    on one interpreter lock; one worker is measured the same way.  A
    round is one seal+open on each worker, so the reported latency is
    wall time / iterations.

    Each worker runs its warm-up rounds, waits at a shared start line
    (with a timeout), and reads ``time.perf_counter()`` right after the
    line and right after its last round; wall time runs from the earliest
    start to the latest end, so process start-up and exit are not timed.
    A worker's exception is re-raised here with its own type (an unknown
    ``backend`` raises ``ProviderError``), a worker that dies raises
    ``RuntimeError`` (``BrokenProcessPool``), and every worker process is
    joined before this returns or raises.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    key_bytes = key if key is not None else bytes(32)

    # imported here, not at the top: every rank imports this module, and
    # these would add to its start-up for nothing
    import multiprocessing
    from concurrent import futures

    ctx = multiprocessing.get_context("spawn")
    start_line = ctx.Barrier(threads)
    with futures.ProcessPoolExecutor(
        threads, mp_context=ctx, initializer=_encdec_init, initargs=(start_line,)
    ) as pool:
        runs = [
            pool.submit(_encdec_worker, size, iterations, backend, key_bytes, payload_seed)
            for _ in range(threads)
        ]
        # submit() wakes the pool's manager thread before it starts a
        # worker, so the last worker could die unnoticed until the start
        # line times out; one more (no-op) submit makes it watch them all
        pool.submit(int)
        done, _ = futures.wait(runs, return_when=futures.FIRST_EXCEPTION)
        for run in done:
            error = run.exception()
            if error is not None:
                # release the peers still at the line; a broken pool has
                # already terminated them, and abort() could then block
                if not isinstance(error, futures.BrokenExecutor):
                    start_line.abort()
                raise error
        windows = [run.result() for run in runs]
    start = min(s for s, _ in windows)
    end = max(e for _, e in windows)
    return (end - start) * 1e6 / iterations


# op -> (plaintext collective, encrypted collective, its arguments after
# the group for a rank of group g whose element is body)
COLLECTIVE_OPS = {
    "alltoall": (
        collectives.alltoall,
        collectives.encrypted_alltoall,
        lambda g, body: ([body] * g.size,),
    ),
    "allgather": (
        collectives.allgather,
        collectives.encrypted_allgather,
        lambda g, body: (body,),
    ),
    "bcast": (
        collectives.bcast,
        collectives.encrypted_bcast,
        lambda g, body: (0, body if g.rank == 0 else None),
    ),
    "alltoallv": (
        collectives.alltoallv,
        collectives.encrypted_alltoallv,
        lambda g, body: ([body] * g.size, [len(body)] * g.size),
    ),
}


def collective_bench(
    g: ProcessGroup,
    op: str,
    size: int,
    iterations: int,
    *,
    encrypted: bool = True,
    payload_seed: int | None = None,
) -> float:
    """Time one collective of ``COLLECTIVE_OPS`` at one message size;
    returns µs per call.

    A barrier separates iterations; the barrier itself is not timed.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    provider = g.provider
    if encrypted and provider is None:
        raise ValueError("group has no AEAD provider configured")
    if op not in COLLECTIVE_OPS:
        raise ValueError(f"op must be one of {tuple(COLLECTIVE_OPS)}")
    plain_fn, encrypted_fn, arguments = COLLECTIVE_OPS[op]
    args = arguments(g, _payload(size, payload_seed))
    call = partial(encrypted_fn, g, provider, *args) if encrypted else partial(plain_fn, g, *args)
    for _ in range(_warmup_rounds(iterations)):
        g.barrier()
        call()
    total = 0.0
    for _ in range(iterations):
        g.barrier()
        start = time.perf_counter()
        call()
        total += time.perf_counter() - start
    return total * 1e6 / iterations


CSV_FIELDS = ("size_bytes", "k_pairs", "run_index", "latency_us")


def write_samples_csv(path: str, samples: Iterable[LatencySample]) -> None:
    """Write samples sorted by size, then pair count, then run index."""
    ordered = sorted(samples, key=lambda s: (s.message_size, s.k_pairs, s.run_index))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for s in ordered:
            writer.writerow([s.message_size, s.k_pairs, s.run_index, repr(s.latency_us)])


def read_samples_csv(path: str) -> list[LatencySample]:
    samples: list[LatencySample] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(CSV_FIELDS)}")
        for row in reader:
            try:
                samples.append(
                    LatencySample(
                        message_size=int(row["size_bytes"]),
                        k_pairs=int(row["k_pairs"]),
                        run_index=int(row["run_index"]),
                        latency_us=float(row["latency_us"]),
                    )
                )
            except (TypeError, ValueError) as exc:  # a missing field reads as None
                raise ValueError(f"{path}, line {reader.line_num}: bad sample row ({exc})") from exc
    return samples
