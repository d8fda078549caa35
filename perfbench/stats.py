"""Aggregation helpers for the loopback benchmark.

Pure functions over numbers the ranks report: percentiles, resource-usage
deltas, wire-format arithmetic and span self times.  Nothing here imports
secmsg, so the wire arithmetic is an independent statement of the
documented format rather than a restatement of the code under test.
"""

from __future__ import annotations

import resource
import statistics

# Documented wire format: a 12-byte header per message, a sealed frame is
# 28 bytes longer than its plaintext, and every rendezvous message costs
# the receiver one CTS byte.
HEADER_BYTES = 12
FRAME_OVERHEAD = 28
CTS_BYTES = 1
DEFAULT_THRESHOLD = 131072

RUSAGE_FIELDS = ("ru_utime", "ru_stime", "ru_minflt", "ru_nvcsw", "ru_nivcsw")

# span call name -> layer that owns the call
LAYER_OF = {
    "op": "bench",
    "isend": "transport",
    "irecv": "transport",
    "wait_send": "transport",
    "wait_recv": "transport",
    "alltoall": "collectives",
    "seal": "aead",
    "open": "aead",
}


def percentile(values, p: int) -> float:
    """The p-th percentile (integer 1..99), interpolating between ranks."""
    if not 1 <= p <= 99:
        raise ValueError("p must be an integer percentile in 1..99")
    if not values:
        raise ValueError("percentile of an empty sample")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def samples_beyond(n: int, p: int) -> int:
    """How many of n samples lie above the p-th percentile."""
    return int(n * (100 - p) // 100)


def op_summary(intervals_s, ops_per_interval: int, bytes_per_op: int) -> dict:
    """Per-op latency percentiles (µs) and goodput (MB/s) of timed intervals.

    Each interval covers ``ops_per_interval`` ops (a round trip is two
    one-way messages); goodput divides the plaintext bytes delivered by
    the summed interval time, so untimed checks between ops do not count.
    """
    per_op_us = [t * 1e6 / ops_per_interval for t in intervals_s]
    ops = len(intervals_s) * ops_per_interval
    return {
        "p50_us": percentile(per_op_us, 50),
        "p99_us": percentile(per_op_us, 99),
        "mean_us": statistics.fmean(per_op_us),
        "goodput_MBps": bytes_per_op * ops / sum(intervals_s) / 1e6,
        "samples": len(per_op_us),
        "beyond_p99": samples_beyond(len(per_op_us), 99),
    }


def rusage_snapshot() -> dict:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return {f: getattr(r, f) for f in RUSAGE_FIELDS}


def rusage_delta(before: dict, after: dict) -> dict:
    return {f: after[f] - before[f] for f in RUSAGE_FIELDS}


def add_deltas(a: dict, b: dict) -> dict:
    return {f: a.get(f, 0) + b.get(f, 0) for f in RUSAGE_FIELDS}


def rusage_per_op(deltas_by_rank, ops: int) -> dict:
    """Sum rusage deltas over the ranks and divide by the op count."""
    total = {f: 0 for f in RUSAGE_FIELDS}
    for d in deltas_by_rank:
        total = add_deltas(total, d)
    return {
        "minor_faults_per_op": total["ru_minflt"] / ops,
        "cpu_us_per_op": (total["ru_utime"] + total["ru_stime"]) * 1e6 / ops,
        "ctx_switches_per_op": (total["ru_nvcsw"] + total["ru_nivcsw"]) / ops,
    }


def wire_bytes(classify_len: int, body_len: int, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Bytes both ranks write for one message: header, body, and a CTS byte
    when the length the transport classifies on reaches the threshold."""
    cts = CTS_BYTES if classify_len >= threshold else 0
    return HEADER_BYTES + body_len + cts


def message_wire_bytes(plain_len: int, encrypted: bool, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Wire bytes of one ``send``/``encrypted_send``: the transport classifies
    on the plaintext length and an encrypted body carries the frame."""
    body = plain_len + (FRAME_OVERHEAD if encrypted else 0)
    return wire_bytes(plain_len, body, threshold)


def self_times(spans) -> dict:
    """Self time per (variant, layer) in seconds.

    ``spans`` holds ``(call, variant, parent_index, start, end)`` rows in
    the order they began; a span's self time is its duration minus the
    durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for call, variant, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (call, variant, parent, start, end) in enumerate(spans):
        key = (variant, LAYER_OF[call])
        out[key] = out.get(key, 0.0) + (end - start) - child_time[i]
    return out


def span_medians_us(spans) -> dict:
    """Median duration in µs per (variant, call)."""
    by_key: dict = {}
    for call, variant, _parent, start, end in spans:
        by_key.setdefault((variant, call), []).append((end - start) * 1e6)
    return {k: statistics.median(v) for k, v in by_key.items()}


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
