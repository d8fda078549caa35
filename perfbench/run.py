"""Loopback benchmark for secmsg: two ranks as separate OS processes.

    python3 perfbench/run.py --workload pingpong-1k --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout holding ``src/secmsg``).
``run.py`` spawns the rank pair several times to time set-up, then runs
the workload on the last pair: plaintext and encrypted ops in alternating
blocks, a fixed op count per variant derived from ``--seconds`` (no
adaptive stopping).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs a shorter untraced phase, a traced phase, and the
per-layer microbenchmarks and controls, and prints the per-layer metrics.
Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A full record
with host, commit, settings and sample counts goes to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.

The exit code is 0 when every op was delivered intact and the wire byte
count matched the documented format, 1 otherwise, and 2 when the
checkout has no ``src/secmsg``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from stats import (
    FRAME_OVERHEAD,
    message_wire_bytes,
    op_summary,
    rusage_per_op,
    self_times,
    span_medians_us,
    wire_bytes,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
RANK_SCRIPT = HERE / "rank.py"

RANKS = 2
SETUPS = 7  # rank pairs spawned per run; setup_s is their median
RUN_LIMIT_S = 170.0  # every rank is killed by then, so a run ends within 180 s
SETUP_LIMIT_S = 20.0
MAX_TRACED = 5000  # traced intervals per variant; bounds the span files
TRACE_MAIN_SHARE = 0.65  # untraced part of a trace run; leaves p99 >= 10 samples beyond


@dataclass(frozen=True)
class Workload:
    kind: str
    size: int
    block: int  # timed intervals per block; blocks alternate the variants
    per_second: float  # intervals per variant per --seconds; sized at the seed
    rounds: int  # control rounds and microbenchmark repetitions

    @property
    def ops_per_interval(self) -> int:
        return 2 if self.kind == "pingpong" else 1

    @property
    def bytes_per_op(self) -> int:
        """Plaintext payload bytes delivered to a receiving rank per op."""
        if self.kind == "alltoall":
            return RANKS * (RANKS - 1) * self.size
        return self.size

    @property
    def seals_per_op(self) -> int:
        """Seal+open pairs the additive model charges to one op."""
        return RANKS if self.kind == "alltoall" else 1

    def interval_wire(self, enc: bool) -> tuple[int, int]:
        """(bytes written by both ranks, messages) for one timed interval."""
        if self.kind == "pingpong":
            return 2 * message_wire_bytes(self.size, enc), 2
        # the encrypted collective sends sealed frames through plain sends,
        # so the transport classifies on the frame length
        body = self.size + (FRAME_OVERHEAD if enc else 0)
        pairs = RANKS * (RANKS - 1)
        return pairs * wire_bytes(body, body), pairs


# Two workloads: eager per-message costs, and bulk rendezvous traffic in
# both directions through the collectives wrapper.  A 2 MiB ping-pong and
# a 64-message window were dropped so that 40-s runs fit the time budget;
# see README.md.
WORKLOADS = {
    "pingpong-1k": Workload("pingpong", 1024, block=1000, per_second=4400.0, rounds=2000),
    "alltoall-256k": Workload("alltoall", 256 << 10, block=100, per_second=750.0, rounds=300),
}

END_TO_END = [
    ("setup_s", "s"),
    ("enc_op_us_p50", "us"),
    ("plain_op_us_p50", "us"),
    ("peak_rss_MB", "MB"),
]

# Tail latency and goodput (a mean, so it carries the tail) are per-layer,
# without a bound: on a shared host they drift between sets of runs by more
# than the largest bound allowed (0.25).
TAIL_AND_GOODPUT = [
    ("enc_op_us_p99", "us"),
    ("plain_op_us_p99", "us"),
    ("enc_goodput_MBps", "MB/s"),
    ("plain_goodput_MBps", "MB/s"),
]

PER_LAYER = TAIL_AND_GOODPUT + [
    ("aead.seal_us", "us"),
    ("aead.open_us", "us"),
    ("aead.frame_pack_us", "us"),
    ("transport.enc_isend_us", "us"),
    ("transport.plain_isend_us", "us"),
    ("transport.enc_recv_wait_us", "us"),
    ("transport.plain_recv_wait_us", "us"),
    ("transport.enc_send_wait_us", "us"),
    ("transport.plain_send_wait_us", "us"),
    ("transport.wire_bytes_per_msg", "B"),
    ("collectives.wrap_us", "us"),
    ("rank.minor_faults_per_op", "count"),
    ("rank.plain_minor_faults_per_op", "count"),
    ("rank.cpu_us_per_op", "us"),
    ("rank.plain_cpu_us_per_op", "us"),
    ("rank.ctx_switches_per_op", "count"),
    ("rank.plain_ctx_switches_per_op", "count"),
    ("models.additive_gap_us", "us"),
    ("models.enc_overhead_ratio", "ratio"),
    ("benchmarks.pingpong_us", "us"),
    ("benchmarks.encdec_us", "us"),
    ("benchmarks.pingpong_ratio", "ratio"),
    ("benchmarks.encdec_ratio", "ratio"),
    ("host.tcp_oneway_us", "us"),
    ("host.copy_us", "us"),
    ("host.cpu_probe_us", "us"),
    ("selftime.bench_us", "us"),
    ("selftime.transport_us", "us"),
    ("selftime.collectives_us", "us"),
    ("selftime.aead_us", "us"),
    ("trace_overhead_ratio", "ratio"),
    ("failed_op_share", "share"),
]


def intervals_for(wl: Workload, seconds: float, share: float = 1.0) -> int:
    """Timed intervals per variant: a whole number of blocks, at least one."""
    blocks = max(1, round(seconds * share * wl.per_second / wl.block))
    return blocks * wl.block


def free_ports(n: int) -> list[int]:
    socks = []
    for _ in range(n):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


class RankPair:
    """Child processes watched until they exit or a deadline passes.

    Each child's stdout is read line by line on its own thread; rank 0's
    ``progress <ops>`` lines tell how far the run got if it must be
    killed.  Children still running at the deadline are killed and reaped.
    """

    def __init__(self, commands: list[list[str]], env: dict | None = None, err_dir: Path | None = None):
        self.t_spawn = time.monotonic()
        self.progress = 0
        self.killed = False
        self.lines: list[list[str]] = [[] for _ in commands]
        self.procs = []
        self._readers = []
        for r, argv in enumerate(commands):
            err = open(err_dir / f"rank{r}.err", "w") if err_dir else subprocess.DEVNULL
            try:
                proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, text=True, env=env)
            finally:
                if err_dir:
                    err.close()
            self.procs.append(proc)
            t = threading.Thread(target=self._read, args=(r, proc), daemon=True)
            t.start()
            self._readers.append(t)

    def _read(self, r: int, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            line = line.rstrip("\n")
            self.lines[r].append(line)
            if r == 0 and line.startswith("progress "):
                self.progress = int(line.split()[1])

    def wait(self, deadline: float) -> bool:
        """Wait for every child; kill them all at ``deadline``.  True if all
        exited by themselves."""
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self.killed = True
                break
        if self.killed:
            for proc in self.procs:
                proc.kill()
            for proc in self.procs:
                proc.wait()
        for t in self._readers:
            t.join()
        for proc in self.procs:
            proc.stdout.close()
        return not self.killed

    def _last(self, r: int, kind: str) -> str | None:
        for line in reversed(self.lines[r]):
            if line.startswith(kind + " "):
                return line[len(kind) + 1:]
        return None

    def result(self, r: int) -> dict | None:
        raw = self._last(r, "result")
        return json.loads(raw) if raw is not None and self.procs[r].returncode == 0 else None

    def setup_s(self) -> float | None:
        """Spawn to the moment the last rank's ProcessGroup was up."""
        ready = [self._last(r, "ready") for r in range(len(self.procs))]
        if None in ready:
            return None
        return max(float(t) for t in ready) - self.t_spawn


def rank_commands(cfg: dict) -> list[list[str]]:
    ports = free_ports(RANKS + 1)
    roster = [("127.0.0.1", p) for p in ports[:RANKS]]
    return [
        [sys.executable, str(RANK_SCRIPT),
         json.dumps(dict(cfg, rank=r, roster=roster, raw_port=ports[RANKS]))]
        for r in range(RANKS)
    ]


def rank_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "secmsg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_info() -> dict:
    try:
        crypto = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto = "missing"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "cryptography": crypto,
        "network": "loopback 127.0.0.1, one TCP connection",
    }


def attempted_ops(wl: Workload, phases: dict) -> int:
    """Ops the run sets out to time: both variants of every phase."""
    return sum(2 * n for n in phases.values()) * wl.ops_per_interval


def failure_count(pair: RankPair, results: list, phases: dict, wl: Workload) -> int:
    """Failed ops: the union of the ranks' failed intervals, or, if a rank
    never reported, every op rank 0 had not finished."""
    if pair.killed or None in results:
        return attempted_ops(wl, phases) - pair.progress
    failed = 0
    for name in phases:
        indices = set()
        for res in results:
            indices.update(res[name]["failed"])
        failed += len(indices) * wl.ops_per_interval
    return failed


def wire_check(wl: Workload, results: list, phase: str) -> tuple[int, int, int]:
    """(bytes both ranks wrote, bytes the wire format predicts, messages)."""
    actual = expected = messages = 0
    for variant in ("plain", "enc"):
        intervals = results[0][phase][variant]["intervals_run"]
        per_bytes, per_msgs = wl.interval_wire(variant == "enc")
        expected += intervals * per_bytes
        messages += intervals * per_msgs
        actual += sum(res[phase][variant]["bytes_sent"] for res in results)
    return actual, expected, messages


def probe_us(results: list) -> float:
    """Median CPU-speed probe over both ranks' blocks of the main phase."""
    return statistics.median(p for res in results for p in res["main"]["probes"]) * 1e6


def phase_summary(wl: Workload, results: list, phase: str) -> dict:
    out = {}
    for variant in ("plain", "enc"):
        parts = [res[phase][variant] for res in results]
        summary = op_summary(parts[0]["intervals"], wl.ops_per_interval, wl.bytes_per_op)
        ops = parts[0]["intervals_run"] * wl.ops_per_interval
        summary.update(rusage_per_op([p["rusage"] for p in parts], ops))
        summary["ops"] = ops
        out[variant] = summary
    return out


def layer_metrics(wl: Workload, results: list, main: dict, traced: dict) -> tuple[dict, list[str]]:
    ctrl = results[0]["controls"]
    spans = []
    for res in results:
        with open(res["spans_file"], encoding="utf-8") as fh:
            spans.append(json.load(fh))
    med = span_medians_us(spans[0] + spans[1])
    own = self_times(spans[0])
    enc, plain = main["enc"], main["plain"]
    seal, open_ = ctrl["seal_us"], ctrl["open_us"]
    actual, _expected, messages = wire_check(wl, results, "main")
    m = tail_and_goodput(main)
    m.update({
        "aead.seal_us": seal,
        "aead.open_us": open_,
        "aead.frame_pack_us": ctrl["frame_pack_us"],
        "transport.wire_bytes_per_msg": actual / messages,
        "collectives.wrap_us": enc["p50_us"] - plain["p50_us"],
        "models.additive_gap_us": enc["p50_us"] - plain["p50_us"] - wl.seals_per_op * (seal + open_),
        "models.enc_overhead_ratio": (enc["p50_us"] - plain["p50_us"]) / plain["p50_us"],
        "benchmarks.pingpong_us": ctrl["harness_pingpong_us"],
        "benchmarks.encdec_us": ctrl["encdec_us"],
        "benchmarks.pingpong_ratio": ctrl["harness_pingpong_us"] / ctrl["own_pingpong_us"],
        "benchmarks.encdec_ratio": ctrl["encdec_us"] / (seal + open_),
        "host.tcp_oneway_us": ctrl["tcp_oneway_us"],
        "host.copy_us": ctrl["copy_us"],
        "host.cpu_probe_us": probe_us(results),
        "trace_overhead_ratio": traced["enc"]["p50_us"] / enc["p50_us"],
    })
    for variant in ("enc", "plain"):
        for call, name in (("isend", "isend"), ("wait_recv", "recv_wait"), ("wait_send", "send_wait")):
            m[f"transport.{variant}_{name}_us"] = med.get((variant, call), 0.0)
    for key in ("minor_faults_per_op", "cpu_us_per_op", "ctx_switches_per_op"):
        m[f"rank.{key}"] = enc[key]
        m[f"rank.plain_{key}"] = plain[key]
    for layer in ("bench", "transport", "collectives", "aead"):
        m[f"selftime.{layer}_us"] = own.get(("enc", layer), 0.0) * 1e6 / traced["enc"]["ops"]
    notes = []
    for name, what in (("benchmarks.pingpong_ratio", "harness pingpong vs own encrypted ping-pong"),
                       ("benchmarks.encdec_ratio", "harness encdec_bench vs own seal+open")):
        if abs(m[name] - 1.0) > 0.10:
            notes.append(f"disagreement: {what} = {m[name]:.3f}")
    return m, notes


def tail_and_goodput(main: dict) -> dict:
    return {
        "enc_op_us_p99": main["enc"]["p99_us"],
        "plain_op_us_p99": main["plain"]["p99_us"],
        "enc_goodput_MBps": main["enc"]["goodput_MBps"],
        "plain_goodput_MBps": main["plain"]["goodput_MBps"],
    }


def end_to_end_metrics(main: dict, setups: list[float], results: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "enc_op_us_p50": main["enc"]["p50_us"],
        "plain_op_us_p50": main["plain"]["p50_us"],
        "peak_rss_MB": max(res["maxrss_kb"] for res in results) * 1024 / 1e6,
    }


def check_results(wl: Workload, results: list, phases: dict, trace: bool) -> list[str]:
    """Problems beyond failed ops: where secmsg came from, wire bytes
    against the documented format, and the controls' own checks."""
    problems = []
    for res in results:
        if not res["secmsg_file"].startswith(str(SRC)):
            problems.append(f"rank imported secmsg from {res['secmsg_file']}, not {SRC}")
    for phase in phases:
        actual, expected, _ = wire_check(wl, results, phase)
        if actual != expected:
            problems.append(f"{phase}: ranks wrote {actual} B, the wire format predicts {expected} B")
    if trace:
        ctrl = results[0]["controls"]
        if ctrl["failed"] or not ctrl["aead_roundtrip_ok"]:
            problems.append("a control ping-pong or seal/open round trip failed")
    return problems


def time_setups(cfg: dict, env: dict, deadline: float) -> list[float] | None:
    """Spawn SETUPS - 1 rank pairs that only bring the group up and close."""
    setups = []
    for _ in range(SETUPS - 1):
        pair = RankPair(rank_commands(dict(cfg, setup_only=True)), env, OUT_DIR)
        pair.wait(min(deadline, time.monotonic() + SETUP_LIMIT_S))
        if pair.setup_s() is None or None in (pair.result(r) for r in range(RANKS)):
            return None
        setups.append(pair.setup_s())
    return setups


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    env = rank_env()
    if args.trace:
        traced = min(intervals_for(wl, args.seconds, 0.25), max(wl.block, MAX_TRACED // wl.block * wl.block))
        phases = {"main": intervals_for(wl, args.seconds, TRACE_MAIN_SHARE), "traced": traced}
    else:
        phases = {"main": intervals_for(wl, args.seconds)}
    cfg = {
        "workload": args.workload, "kind": wl.kind, "size": wl.size, "seed": args.seed,
        "block": wl.block, "rounds": wl.rounds,
        "ops": phases["main"], "traced_ops": phases.get("traced", 0), "out_dir": str(OUT_DIR),
    }
    setups = time_setups(cfg, env, deadline)
    if setups is None:
        print("error: a rank pair failed to start; see perfbench/out/rank*.err", file=sys.stderr)
        return 1

    pair = RankPair(rank_commands(dict(cfg, setup_only=False)), env, OUT_DIR)
    pair.wait(deadline)
    results = [pair.result(r) for r in range(RANKS)]
    attempted = attempted_ops(wl, phases)
    failed = failure_count(pair, results, phases, wl)
    notes = []
    if pair.killed:
        notes.append(f"deadline passed after {pair.progress} of {attempted} ops; ranks killed")
    complete = not pair.killed and None not in results
    if complete:
        notes += check_results(wl, results, phases, args.trace)
    correct = complete and failed == 0 and not notes

    metrics: dict = {}
    summaries = {}
    if complete:
        setups.append(pair.setup_s())
        summaries = {ph: phase_summary(wl, results, ph) for ph in phases}
        if args.trace:
            metrics, disagreements = layer_metrics(wl, results, summaries["main"], summaries["traced"])
            notes += disagreements
        else:
            metrics = end_to_end_metrics(summaries["main"], setups, results)
    share = failed / attempted
    if args.trace and metrics:
        metrics["failed_op_share"] = share
    units = dict(END_TO_END + PER_LAYER)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_info(), "commit": commit(), "src_sha256": source_digest(),
        "settings": dict(cfg, pinned_cpus=[res and res["pinned_cpu"] for res in results],
                         setup_samples_s=setups),
        "samples": {ph: {v: s["samples"] for v, s in summaries[ph].items()} for ph in summaries},
        "phase_wall_s": {ph: results[0][ph]["wall_s"] for ph in summaries},
        "host_cpu_probe_us": probe_us(results) if complete else None,
        "correct": correct, "attempted": attempted, "failed": failed, "failed_op_share": share,
        "metrics": metrics, "notes": notes,
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "failed_op_share" not in metrics:
        print(f"failed_op_share {share:.6g} share")
    if not args.trace and summaries:
        for name, value in tail_and_goodput(summaries["main"]).items():
            print(f"# {name} {value:.6g} {units[name]} (per-layer; --trace 1 reports it)")
    print(f"# {failed} of {attempted} ops failed")
    if report["host_cpu_probe_us"] is not None:
        print(f"# host CPU probe {report['host_cpu_probe_us']:.1f} us (a fixed Python loop; tracks the host, not secmsg)")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secmsg" / "transport.py").is_file():
        print(f"error: no secmsg sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
