"""run.py behaviour: deadlines, failure accounting, op counts and the
benchmark description."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

SLEEPER = "import sys, time; print('progress %s', flush=True); time.sleep(60)"


def _sleeper(progress):
    return [sys.executable, "-c", SLEEPER % progress]


def test_deadline_kills_ranks_that_never_reply():
    t0 = time.monotonic()
    pair = run.RankPair([_sleeper(6), _sleeper(0)])
    assert pair.wait(time.monotonic() + 1.0) is False
    assert time.monotonic() - t0 < 15
    assert pair.killed
    assert all(p.returncode is not None for p in pair.procs)
    assert pair.progress == 6
    assert [pair.result(r) for r in range(2)] == [None, None]


def test_hung_ops_count_as_failed():
    wl = run.WORKLOADS["pingpong-1k"]
    pair = run.RankPair([_sleeper(6), _sleeper(0)])
    pair.wait(time.monotonic() + 1.0)
    phases = {"main": 1000}
    attempted = 2 * 1000 * wl.ops_per_interval
    assert run.failure_count(pair, [None, None], phases, wl) == attempted - 6


def test_failed_intervals_are_united_across_ranks():
    wl = run.WORKLOADS["alltoall-256k"]
    pair = run.RankPair([[sys.executable, "-c", "pass"]])
    pair.wait(time.monotonic() + 30)
    results = [{"main": {"failed": [3, 7]}}, {"main": {"failed": [7, 9]}}]
    assert run.failure_count(pair, results, {"main": 20}, wl) == 3


def test_rank_pair_reads_results_and_setup_time():
    code = "import time, json; print('ready', time.monotonic(), flush=True); print('result', json.dumps({'x': 1}))"
    pair = run.RankPair([[sys.executable, "-c", code]] * 2)
    assert pair.wait(time.monotonic() + 30)
    assert pair.result(1) == {"x": 1}
    assert 0 < pair.setup_s() < 30


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_op_counts_are_whole_blocks(name):
    wl = run.WORKLOADS[name]
    for seconds in (0.01, 1, 20):
        n = run.intervals_for(wl, seconds)
        assert n >= wl.block and n % wl.block == 0


def test_interval_wire_bytes():
    assert run.WORKLOADS["pingpong-1k"].interval_wire(True) == (2 * (12 + 1024 + 28), 2)
    assert run.WORKLOADS["alltoall-256k"].interval_wire(False) == (2 * (12 + 262144 + 1), 2)
    # the encrypted collective sends sealed frames through plaintext sends
    assert run.WORKLOADS["alltoall-256k"].interval_wire(True) == (2 * (12 + 262144 + 28 + 1), 2)


def test_benchmark_json_names_what_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_fails_fast_without_secmsg_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pingpong-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "secmsg" in proc.stderr
