"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload pingpong-1k --seeds 1-10 [--seconds 15] [--trace 0]

For each metric it prints the median over the runs and the interquartile
distance as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from BENCHMARK.json, so a change to the
benchmark can be checked for steadiness before it is relied on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in seed_range(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode}, correct {last['correct']}, "
              f"failed {last['failed']}/{last['attempted']}, {time.monotonic() - t0:.1f} s", flush=True)
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        sp = spread(vals) if len(vals) >= 2 and med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:12.6g} {sp:8.4f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
