"""One rank of the loopback benchmark, run as its own OS process by run.py.

Usage: ``python3 rank.py '<json config>'`` with ``src`` on PYTHONPATH.
The rank prints ``ready <monotonic time>`` once its ProcessGroup is up,
``progress <ops done>`` after each block (rank 0 only), and a last line
``result <json>``.  It touches secmsg only through its public API.

A phase runs ``ops`` timed intervals per variant in blocks that alternate
plain, enc, enc, plain, so slow drift of the host hits both variants
alike.  Every block starts with an untimed barrier; resource usage and
``bytes_sent`` are read right after it and right after the block's last
op, so barrier traffic stays out of both.
"""

from __future__ import annotations

import json
import os
import random
import resource
import socket
import statistics
import sys
import time

import secmsg
from secmsg import collectives
from secmsg.aead import AesGcmProvider, Frame, IntegrityError
from secmsg.benchmarks import encdec_bench, pingpong
from secmsg.transport import ProcessGroup, TransportError

from spans import TracedGroup, TracedProvider, Tracer
from stats import add_deltas, rusage_delta, rusage_snapshot

KEY = bytes(range(32))
DATA_TAG = 0x00B00001
REPLY_TAG = 0x00B00002
REPLY = b"ack!"
POOL = 4  # distinct seeded payloads per rank, used round robin
SETUP_TIMEOUT_S = 20.0
BLOCK_ORDER = ("plain", "enc", "enc", "plain")
FAILURES = (TransportError, IntegrityError)


def emit(kind: str, value) -> None:
    print(f"{kind} {value}", flush=True)


def payload_pool(seed: int, rank: int, size: int) -> list[bytes]:
    return [random.Random(seed * 1_000_003 + rank * 101 + j).randbytes(size) for j in range(POOL)]


class PingPong:
    """Blocking ping-pong; an interval is one round trip, two ops."""

    ops_per_interval = 2

    def __init__(self, g, provider, enc: bool, pools, tracer) -> None:
        self.peer = 1 - g.rank
        self.mine, self.theirs = pools[g.rank], pools[self.peer]
        if enc:
            self.send, self.recv = g.encrypted_send, g.encrypted_recv
        else:
            self.send, self.recv = g.send, g.recv
        self.op = self.client_op if g.rank == 0 else self.server_op

    def prepare(self, start: int, count: int) -> None:
        pass

    def client_op(self, i: int):
        self.send(self.peer, DATA_TAG, self.mine[i % POOL])
        return self.recv(self.peer, DATA_TAG)

    def server_op(self, i: int):
        data = self.recv(self.peer, DATA_TAG)
        self.send(self.peer, DATA_TAG, self.mine[i % POOL])
        return data

    def check(self, i: int, data) -> bool:
        return data == self.theirs[i % POOL]


class AllToAll:
    """``collectives.alltoall`` / ``encrypted_alltoall`` over the group."""

    ops_per_interval = 1

    def __init__(self, g, provider, enc: bool, pools, tracer) -> None:
        n = g.size
        self.rank = g.rank
        self.pools = pools
        # element for rank d at op i is pool[(i + d) % POOL] of the sender
        self.sendbufs = [[pools[g.rank][(j + d) % POOL] for d in range(n)] for j in range(POOL)]
        if enc:
            call = lambda items: collectives.encrypted_alltoall(g, provider, items)  # noqa: E731
        else:
            call = lambda items: collectives.alltoall(g, items)  # noqa: E731
        self.call = tracer.wrap("alltoall", call) if tracer is not None else call

    def prepare(self, start: int, count: int) -> None:
        pass

    def op(self, i: int):
        return self.call(self.sendbufs[i % POOL])

    def check(self, i: int, data) -> bool:
        return len(data) == len(self.pools) and all(
            d == self.pools[src][(i + self.rank) % POOL] for src, d in enumerate(data)
        )


KINDS = {"pingpong": PingPong, "alltoall": AllToAll}


def timed_loop(wl, op, start: int, count: int):
    """Run ops start..start+count-1, timing each; checks stay outside the
    timed interval.  An exception fails the op and every op after it."""
    check, clock = wl.check, time.perf_counter
    intervals: list[float] = []
    failed: list[int] = []
    for i in range(start, start + count):
        t0 = clock()
        try:
            data = op(i)
        except FAILURES as exc:
            print(f"op {i} failed: {exc!r}", file=sys.stderr, flush=True)
            failed.extend(range(i, start + count))
            return intervals, failed, True
        intervals.append(clock() - t0)
        if not check(i, data):
            print(f"op {i} delivered wrong data", file=sys.stderr, flush=True)
            failed.append(i)
    return intervals, failed, False


class Rank:
    def __init__(self, cfg: dict, group: ProcessGroup, provider) -> None:
        self.cfg = cfg
        self.group = group
        self.provider = provider
        self.kind = KINDS[cfg["kind"]]
        self.pools = [payload_pool(cfg["seed"], r, cfg["size"]) for r in range(group.size)]
        self.done_ops = 0
        self.aborted = False

    def phase(self, count: int, tracer: Tracer | None = None, report: bool = True) -> dict:
        """``count`` intervals per variant, in blocks of ``cfg['block']``."""
        group, block = self.group, self.cfg["block"]
        g, provider = group, self.provider
        if tracer is not None:
            g, provider = TracedGroup(group, tracer), TracedProvider(self.provider, tracer)
        out = {v: {"intervals": [], "rusage": {}, "bytes_sent": 0, "intervals_run": 0}
               for v in ("plain", "enc")}
        out["failed"], out["probes"] = [], []
        start = 0
        t_phase = time.monotonic()
        for b in range(2 * count // block):
            variant = BLOCK_ORDER[b % len(BLOCK_ORDER)]
            if self.aborted:
                out["failed"].extend(range(start, start + block))
                start += block
                continue
            if tracer is not None:
                tracer.variant = variant
            wl = self.kind(g, provider, variant == "enc", self.pools, tracer)
            op = tracer.wrap("op", wl.op) if tracer is not None else wl.op
            wl.prepare(start, block)
            out["probes"].append(host_probe())
            group.barrier()
            r0, b0 = rusage_snapshot(), group.bytes_sent
            intervals, failed, self.aborted = timed_loop(wl, op, start, block)
            b1, r1 = group.bytes_sent, rusage_snapshot()
            acc = out[variant]
            if group.rank == 0:
                acc["intervals"].extend(intervals)
            acc["rusage"] = add_deltas(acc["rusage"], rusage_delta(r0, r1))
            acc["bytes_sent"] += b1 - b0
            acc["intervals_run"] += block
            out["failed"].extend(failed)
            start += block
            if report and group.rank == 0:
                self.done_ops += block * self.kind.ops_per_interval
                emit("progress", self.done_ops)
        out["wall_s"] = time.monotonic() - t_phase
        return out

    def controls(self) -> dict:
        """Host controls and harness cross-checks at the workload's size."""
        cfg, group = self.cfg, self.group
        rounds, size = cfg["rounds"], cfg["size"]
        out = {"tcp_oneway_us": self.tcp_oneway_us(rounds)}
        pp = PingPong(group, self.provider, True, self.pools, None)
        warmup = max(10, rounds // 10)
        group.barrier()
        _, failed, self.aborted = timed_loop(pp, pp.op, 0, warmup)
        if not self.aborted:
            intervals, more, self.aborted = timed_loop(pp, pp.op, warmup, rounds)
            failed += more
        out["failed"] = len(failed)
        if self.aborted:
            return out
        out["own_pingpong_us"] = statistics.fmean(intervals) * 1e6 / 2
        group.barrier()
        out["harness_pingpong_us"] = pingpong(
            group, size, rounds, encrypted=True, payload_seed=cfg["seed"]
        )
        if group.rank == 0:
            body = self.pools[0][0]
            out.update(self.aead_costs(body, rounds))
            out["encdec_us"] = encdec_bench(size, rounds, threads=1, key=KEY, payload_seed=cfg["seed"])
            copy = bytearray(body)
            out["copy_us"] = _median_us(lambda: bytes(copy), rounds)
        group.barrier()
        return out

    def aead_costs(self, body: bytes, reps: int) -> dict:
        clock = time.perf_counter
        seal, open_, pack = [], [], []
        ok = True
        for _ in range(reps):
            t0 = clock()
            frame = self.provider.seal(body)
            t1 = clock()
            plain = self.provider.open(frame)
            t2 = clock()
            Frame.from_bytes(frame.to_bytes())
            t3 = clock()
            ok = ok and plain == body
            seal.append(t1 - t0)
            open_.append(t2 - t1)
            pack.append(t3 - t2)
        return {
            "seal_us": statistics.median(seal) * 1e6,
            "open_us": statistics.median(open_) * 1e6,
            "frame_pack_us": statistics.median(pack) * 1e6,
            "aead_roundtrip_ok": ok,
        }

    def tcp_oneway_us(self, rounds: int) -> float:
        """Raw-socket ping-pong of the workload's size between the ranks."""
        group, size = self.group, self.cfg["size"]
        addr = ("127.0.0.1", self.cfg["raw_port"])
        if group.rank == 0:
            with socket.create_server(addr) as listener:
                group.barrier()
                conn, _ = listener.accept()
        else:
            group.barrier()
            conn = socket.create_connection(addr, timeout=SETUP_TIMEOUT_S)
            conn.settimeout(None)
        payload = self.pools[group.rank][0]
        view = memoryview(bytearray(size))

        def read() -> None:
            got = 0
            while got < size:
                n = conn.recv_into(view[got:], size - got)
                if n == 0:
                    raise ConnectionError("raw control peer closed")
                got += n

        clock = time.perf_counter
        times = []
        warmup = max(10, rounds // 10)
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(warmup + rounds):
                t0 = clock()
                if group.rank == 0:
                    conn.sendall(payload)
                    read()
                else:
                    read()
                    conn.sendall(payload)
                times.append(clock() - t0)
        return statistics.median(times[warmup:]) * 1e6 / 2

    def run(self) -> dict:
        cfg = self.cfg
        result: dict = {}
        self.phase(cfg["block"], report=False)  # one untimed block per variant
        result["main"] = self.phase(cfg["ops"])
        if cfg["traced_ops"] and not self.aborted:
            tracer = Tracer()
            result["traced"] = self.phase(cfg["traced_ops"], tracer)
            path = os.path.join(cfg["out_dir"], f"spans-{cfg['workload']}-rank{self.group.rank}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
            result["spans_file"] = path
            if not self.aborted:
                result["controls"] = self.controls()
        return result


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a control that shows when the
    host's CPU speed, not secmsg, moved the numbers."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i
    return time.perf_counter() - t0


def _median_us(fn, reps: int) -> float:
    clock = time.perf_counter
    times = []
    for _ in range(reps):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times) * 1e6


def main() -> int:
    cfg = json.loads(sys.argv[1])
    rank = cfg["rank"]
    # one CPU per rank: steadier than leaving placement to the scheduler;
    # the transport's reader thread inherits the affinity
    cpus = sorted(os.sched_getaffinity(0))
    pinned = cpus[rank % len(cpus)]
    os.sched_setaffinity(0, {pinned})
    provider = AesGcmProvider(KEY)
    roster = [tuple(entry) for entry in cfg["roster"]]
    group = ProcessGroup(rank, roster, provider=provider, timeout=SETUP_TIMEOUT_S)
    emit("ready", time.monotonic())
    result: dict = {"rank": rank, "pinned_cpu": pinned, "secmsg_file": secmsg.__file__}
    aborted = False
    try:
        if not cfg["setup_only"]:
            rank_state = Rank(cfg, group, provider)
            try:
                result.update(rank_state.run())
            finally:
                aborted = rank_state.aborted
    finally:
        group.close(synchronize=not aborted)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit("result", json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
