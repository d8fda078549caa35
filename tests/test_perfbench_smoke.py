"""Smoke test of the benchmark in ``perfbench/``: it is the one caller of
parts of secmsg's API (``AesGcmProvider(key)``, ``Frame`` round trips,
``encdec_bench``, ``pingpong(..., payload_seed=)``), so each declared
workload runs once, briefly and traced, on a copy of this checkout."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct(tmp_path, workload):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # ranks import the copy only
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert {"aead.seal_us", "aead.open_us", "aead.frame_pack_us"} <= set(summary["metrics"])
