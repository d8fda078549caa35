import collections
import math
import multiprocessing
import os
import random
import signal
import statistics
import threading
import time

import pytest

from helpers import run_process_ranks, run_ranks
from secmsg import benchmarks as bm
from secmsg.aead import ProviderError
from secmsg.benchmarks import (
    BenchmarkResult,
    LatencySample,
    StopPolicy,
    StopReason,
    default_pingpong_rounds,
    encdec_bench,
    read_samples_csv,
    run_until_stable,
    throughput,
    write_samples_csv,
)


@pytest.mark.parametrize("size", [0, 13, 1024])
def test_seeded_payload_is_reproducible_per_seed(size):
    assert len(bm._payload(size, 1)) == size
    assert bm._payload(size, 1) == bm._payload(size, 1)
    assert len(bm._payload(size)) == size
    if size:
        assert bm._payload(size, 1) != bm._payload(size, 2)


def test_stop_policy_validation():
    with pytest.raises(ValueError):
        StopPolicy(min_runs=1)
    with pytest.raises(ValueError):
        StopPolicy(min_runs=30, max_runs_phase1=20)
    with pytest.raises(ValueError):
        StopPolicy(hard_budget=50)  # below max_runs_phase1
    with pytest.raises(ValueError):
        StopPolicy(cv_target=0.0)


def test_latency_sample_validation():
    with pytest.raises(ValueError):
        LatencySample(10, 1, 0, 0.0)
    with pytest.raises(ValueError):
        LatencySample(10, 0, 0, 1.0)
    with pytest.raises(ValueError):
        LatencySample(-1, 1, 0, 1.0)


def test_constant_measure_stops_at_exactly_min_runs():
    result = run_until_stable(lambda: 100.0, StopPolicy())
    assert result.run_count == 20
    assert result.stop_reason is StopReason.STDDEV_OK
    assert result.stddev == 0.0


def test_low_noise_stops_in_phase_one():
    rng = random.Random(11)
    result = run_until_stable(lambda: rng.gauss(100.0, 4.0), StopPolicy())
    assert result.run_count == 20
    assert result.stop_reason is StopReason.STDDEV_OK


def test_high_noise_goes_to_confidence_branch():
    rng = random.Random(7)
    result = run_until_stable(lambda: rng.gauss(100.0, 20.0), StopPolicy(hard_budget=5000))
    assert result.run_count > 100
    assert result.stop_reason is StopReason.CI_OK
    assert result.ci99_halfwidth <= 0.05 * result.mean


def test_budget_branch_is_flagged_not_an_error():
    rng = random.Random(3)
    policy = StopPolicy(min_runs=5, max_runs_phase1=10, hard_budget=15)
    result = run_until_stable(lambda: rng.gauss(100.0, 60.0), policy)
    assert result.run_count == 15
    assert result.stop_reason is StopReason.BUDGET


def test_result_mean_is_arithmetic_mean_of_samples():
    values = iter([10.0, 12.0, 11.0, 13.0, 10.5, 11.5])
    policy = StopPolicy(min_runs=6, max_runs_phase1=6, hard_budget=6)
    result = run_until_stable(lambda: next(values), policy)
    latencies = [s.latency_us for s in result.samples]
    assert result.mean == pytest.approx(statistics.fmean(latencies), rel=1e-12)
    assert [s.run_index for s in result.samples] == list(range(6))


def test_encdec_default_policy_is_five_runs_minimum():
    result = run_until_stable(lambda: 42.0, bm.ENCDEC_STOP_POLICY)
    assert result.run_count == 5
    assert result.stop_reason is StopReason.STDDEV_OK


def test_throughput_units():
    assert throughput(10**6, 10**6) == 1.0
    assert throughput(2 * 2**20, 2000) == pytest.approx(1048.576)
    with pytest.raises(ValueError):
        throughput(0, 10.0)
    with pytest.raises(ValueError):
        throughput(1024, 0.0)


def test_default_rounds_follow_one_mebibyte_rule():
    assert default_pingpong_rounds(1) == 10_000
    assert default_pingpong_rounds(2**20 - 1) == 10_000
    assert default_pingpong_rounds(2**20) == 1_000
    assert default_pingpong_rounds(2**21) == 1_000
    assert default_pingpong_rounds(1, scale=0.01) == 100
    assert default_pingpong_rounds(2**20, scale=0.0001) == 1  # never zero


def test_samples_csv_round_trip(tmp_path):
    path = str(tmp_path / "samples.csv")
    samples = [
        LatencySample(1024, 2, 1, 3.25),
        LatencySample(16, 1, 0, 1.5),
        LatencySample(1024, 1, 0, 2.75),
        LatencySample(1024, 2, 0, 3.125),
    ]
    write_samples_csv(path, samples)
    back = read_samples_csv(path)
    assert back == sorted(samples, key=lambda s: (s.message_size, s.k_pairs, s.run_index))
    with open(path) as fh:
        assert fh.readline().strip() == "size_bytes,k_pairs,run_index,latency_us"


def test_samples_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_samples_csv(str(path))


# -- encrypt-decrypt benchmark ------------------------------------------------


def test_encdec_zero_size_has_positive_fixed_cost():
    latency = encdec_bench(0, 500, threads=1)
    assert latency > 0


def test_encdec_monotone_nondecreasing_in_size():
    small = encdec_bench(4096, 800, threads=1)
    large = encdec_bench(65536, 800, threads=1)
    assert large > small * 0.9  # larger buffers cannot get meaningfully cheaper


@pytest.mark.skipif(os.cpu_count() < 2, reason="scaling check needs a >= 2-core host")
def test_encdec_two_workers_keep_per_round_latency():
    one = encdec_bench(65536, 1200, threads=1)
    two = encdec_bench(65536, 1200, threads=2)
    assert two <= one * 1.1


def test_encdec_worker_failure_raises_in_caller_and_leaves_no_child():
    outcome = []

    def failing_call():
        try:
            encdec_bench(16, 10, threads=2, backend="no-such-backend")
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=failing_call, daemon=True)
    caller.start()
    caller.join(30)
    assert not caller.is_alive(), "a failing worker left encdec_bench blocked"
    assert len(outcome) == 1 and isinstance(outcome[0], ProviderError)
    assert multiprocessing.active_children() == []

    assert encdec_bench(16, 10, threads=2) > 0
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_encdec_dead_worker_raises_runtime_error_and_leaves_no_child():
    outcome = []

    def long_call():
        try:
            encdec_bench(65536, 10**7, threads=2)
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=long_call, daemon=True)
    caller.start()
    deadline = time.monotonic() + 30
    while len(multiprocessing.active_children()) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    workers = multiprocessing.active_children()
    assert len(workers) == 2, "encdec_bench did not start its two workers"
    os.kill(workers[0].pid, signal.SIGKILL)
    caller.join(30)
    assert not caller.is_alive(), "a dead worker left encdec_bench blocked"
    assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
    assert multiprocessing.active_children() == []


def test_encdec_rejects_bad_arguments():
    with pytest.raises(ValueError):
        encdec_bench(16, 0)
    with pytest.raises(ValueError):
        encdec_bench(16, 10, threads=0)


# -- networked benchmarks -----------------------------------------------------


def test_pingpong_needs_exactly_two_ranks():
    def fn(g):
        if g.rank == 0:
            with pytest.raises(ValueError):
                bm.pingpong(g, 16, 10)
        return True

    assert run_ranks(3, fn, with_provider=False) == [True] * 3


def test_pingpong_plaintext_loopback_positive():
    def fn(g):
        return bm.pingpong(g, 1024, 200, encrypted=False)

    for latency in run_ranks(2, fn, with_provider=False):
        assert latency > 0
        assert math.isfinite(latency)


def _symmetric_pingpong_rank(g):
    # interleave the two initiator variants so machine drift hits both
    # equally, then compare robust (median) per-variant latencies
    first, second = [], []
    for _ in range(15):
        first.append(bm.pingpong(g, 16384, 200, encrypted=False, initiator=0))
        second.append(bm.pingpong(g, 16384, 200, encrypted=False, initiator=1))
    return statistics.median(first), statistics.median(second)


def test_pingpong_symmetric_in_initiator():
    # process ranks: thread ranks would share one interpreter lock
    a, b = run_process_ranks(2, _symmetric_pingpong_rank, with_provider=False)[0]
    assert abs(a - b) / min(a, b) < 0.10


def test_multipair_k1_reduces_to_windowed_pingpong():
    def fn(g):
        return bm.multipair(g, 1, 1024, 5, encrypted=True)

    latency = run_ranks(2, fn)[0]
    assert latency > 0


def test_multipair_group_must_host_pairs():
    def fn(g):
        if g.rank == 0:
            with pytest.raises(ValueError):
                bm.multipair(g, 2, 16, 1)
        return True

    assert run_ranks(2, fn) == [True, True]


def test_multipair_rank0_reports_slowest_sender_and_idle_ranks_zero():
    def fn(g):
        return bm.multipair(g, 1, 64, 3), bm.multipair(g, 2, 64, 3)

    one, two = zip(*run_ranks(4, fn))
    assert one[0] > 0 and one[1] > 0  # sender and its partner
    assert one[2:] == (0.0, 0.0)  # ranks 2 and 3 host no pair when k = 1
    assert two[0] >= two[1] > 0  # rank 0 takes the max over senders 0 and 1


def _multipair_ratio_rank(g):
    # interleaved repeated runs; the median of paired ratios absorbs
    # one-off scheduler stalls and common-mode drift
    ratios = []
    for _ in range(9):
        one = bm.multipair(g, 1, 16384, 12, encrypted=True)
        two = bm.multipair(g, 2, 16384, 12, encrypted=True)
        ratios.append(2 * one / two)  # aggregate throughput k=2 over k=1
    return statistics.median(ratios)


def test_multipair_two_pair_aggregate_throughput_holds_up():
    # process ranks: AES-GCM holds the interpreter lock, so two pairs of
    # thread ranks could never encrypt at once
    ratio = run_process_ranks(4, _multipair_ratio_rank)[0]
    # the window latency is the slowest sender's time, so on a single
    # timeshared core the two-pair aggregate sits slightly below the
    # one-pair aggregate; with real concurrency the 0.9 slack binds
    slack = 0.9 if os.cpu_count() >= 2 else 0.75
    assert ratio >= slack


def test_collective_bench_single_rank_bcast_is_pure_cipher_cost():
    def fn(g):
        return bm.collective_bench(g, "bcast", 4096, 30)

    latency = run_ranks(1, fn)[0]
    encdec = encdec_bench(4096, 2000, threads=1)
    assert latency > 0
    assert latency < 60 * encdec  # no communication: near-pure seal+open cost


def test_collective_bench_encrypted_vs_plaintext_ratio_finite():
    def fn(g):
        enc = bm.collective_bench(g, "alltoall", 1024, 10, encrypted=True)
        plain = bm.collective_bench(g, "alltoall", 1024, 10, encrypted=False)
        return enc, plain

    enc, plain = run_ranks(2, fn)[0]
    assert enc > 0 and plain > 0
    assert math.isfinite(enc / plain)


def test_collective_bench_tiny_alltoall_dominated_by_fixed_costs():
    # interleaved repeats; the medians absorb a one-off host stall
    def fn(g):
        one, sixteen = [], []
        for _ in range(5):
            one.append(bm.collective_bench(g, "alltoall", 1, 40))
            sixteen.append(bm.collective_bench(g, "alltoall", 16, 40))
        return statistics.median(one), statistics.median(sixteen)

    one, sixteen = run_ranks(2, fn)[0]
    assert one < 3 * sixteen


def test_multipair_and_collective_bench_share_the_warmup_rule():
    # both run _warmup_rounds(n) untimed rounds before their n timed ones;
    # the rounds are counted through the group's own calls
    n = 3
    rounds = bm._warmup_rounds(n) + n

    def fn(g):
        tags = collections.Counter()
        barriers = 0
        isend, barrier = g.isend, g.barrier

        def counting_isend(dest, tag, body):
            tags[tag] += 1
            return isend(dest, tag, body)

        def counting_barrier():
            nonlocal barriers
            barriers += 1
            barrier()

        g.isend = counting_isend
        bm.multipair(g, 1, 16, n, encrypted=False)
        # the sender posts a window of data messages per round, and its
        # partner replies once per round
        if g.rank == 0:
            multipair_rounds = tags[bm.DATA_TAG] / bm.MULTIPAIR_WINDOW
        else:
            multipair_rounds = tags[bm.REPLY_TAG]
        g.barrier = counting_barrier  # one barrier precedes each round
        bm.collective_bench(g, "bcast", 16, n, encrypted=False)
        return multipair_rounds, barriers

    assert run_ranks(2, fn, with_provider=False) == [(rounds, rounds)] * 2


def test_group_stop_rule_runs_same_count_on_all_ranks():
    policy = StopPolicy(min_runs=5, max_runs_phase1=8, hard_budget=12)

    def fn(g):
        calls = 0

        def measure():
            nonlocal calls
            calls += 1
            return bm.pingpong(g, 64, 20, encrypted=False)

        result = run_until_stable(measure, policy, group=g)
        return calls, result.run_count, result.stop_reason

    results = run_ranks(2, fn, with_provider=False)
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1] == results[0][0]
    assert results[0][2] == results[1][2]


def test_wire_counters_show_frame_expansion_excluded_from_throughput():
    size = 1024
    rounds = 50

    def fn(g):
        before = g.bytes_sent
        latency = bm.pingpong(g, size, rounds, encrypted=True, warmup=0)
        sent = g.bytes_sent - before
        return latency, sent

    results = run_ranks(2, fn)
    latency, sent = results[0]
    # each rank sent `rounds` frames (header + plaintext + 28) plus one
    # 12-byte pre-timing barrier message
    assert sent == rounds * (12 + size + 28) + 12
    # the reported throughput is computed from the plaintext size alone,
    # while the wire moved strictly more bytes per message
    mbps = throughput(size, latency)
    assert mbps == pytest.approx(size / latency)
    wire_per_message = (sent - 12) / rounds
    assert wire_per_message == 12 + size + 28 > size
