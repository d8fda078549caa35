"""Aggregation, rusage, wire-format and span arithmetic of the benchmark."""

import statistics
import threading

import pytest

import stats
from spans import Tracer


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == statistics.median(values)
    assert stats.percentile(values, 99) == pytest.approx(99.01)
    assert stats.percentile([7.5], 99) == 7.5


@pytest.mark.parametrize("p", [0, 100])
def test_percentile_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        stats.percentile([1.0, 2.0], p)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9


def test_op_summary_splits_round_trips_into_ops():
    # four round trips of 20, 20, 20 and 60 µs: one-way ops of 10/10/10/30 µs
    s = stats.op_summary([20e-6, 20e-6, 20e-6, 60e-6], ops_per_interval=2, bytes_per_op=1000)
    assert s["p50_us"] == pytest.approx(10.0)
    assert s["mean_us"] == pytest.approx(15.0)
    assert s["samples"] == 4
    # 8 ops x 1000 B over 120 µs of timed intervals
    assert s["goodput_MBps"] == pytest.approx(8000 / 120e-6 / 1e6)


def test_rusage_per_op_sums_ranks_then_divides():
    zero = {f: 0 for f in stats.RUSAGE_FIELDS}
    a = dict(zero, ru_utime=0.5, ru_stime=0.25, ru_minflt=300, ru_nvcsw=10, ru_nivcsw=2)
    b = dict(zero, ru_utime=0.25, ru_minflt=100, ru_nvcsw=8)
    per = stats.rusage_per_op([a, b], ops=100)
    assert per["minor_faults_per_op"] == 4.0
    assert per["cpu_us_per_op"] == pytest.approx(10_000.0)
    assert per["ctx_switches_per_op"] == 0.2


def test_rusage_delta_sees_page_faults_of_fresh_memory():
    before = stats.rusage_snapshot()
    buf = bytearray(8 << 20)
    for i in range(0, len(buf), 4096):
        buf[i] = 1
    delta = stats.rusage_delta(before, stats.rusage_snapshot())
    assert delta["ru_minflt"] >= 1000  # 2048 pages touched, some may be reused
    assert stats.add_deltas({}, delta) == delta


def test_wire_bytes_follow_the_documented_format():
    threshold = stats.DEFAULT_THRESHOLD
    assert stats.message_wire_bytes(1024, False) == 12 + 1024
    assert stats.message_wire_bytes(1024, True) == 12 + 1024 + 28
    assert stats.message_wire_bytes(2 << 20, True) == 12 + (2 << 20) + 28 + 1
    # the eager/rendezvous split is made on the plaintext length
    assert stats.message_wire_bytes(threshold - 1, True) == 12 + threshold - 1 + 28
    assert stats.message_wire_bytes(threshold, False) == 12 + threshold + 1


def test_wire_arithmetic_matches_a_real_group():
    from secmsg.aead import create_provider
    from secmsg.transport import ProcessGroup
    from run import free_ports

    key = bytes(range(32))
    roster = [("127.0.0.1", p) for p in free_ports(2)]
    sizes = [(1024, False), (1024, True), (300_000, False), (300_000, True)]
    sent = [None, None]

    def rank(r):
        with ProcessGroup(r, roster, provider=create_provider("aes-gcm", key), timeout=20) as g:
            g.barrier()
            before = g.bytes_sent
            for size, enc in sizes:
                if r == 0:
                    (g.encrypted_send if enc else g.send)(1, 5, bytes(size))
                else:
                    (g.encrypted_recv if enc else g.recv)(0, 5)
            sent[r] = g.bytes_sent - before
            g.barrier()

    threads = [threading.Thread(target=rank, args=(r,), daemon=True) for r in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    assert sum(sent) == sum(stats.message_wire_bytes(size, enc) for size, enc in sizes)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", "enc", -1, 0.0, 10.0],
        ["isend", "enc", 0, 1.0, 3.0],
        ["alltoall", "enc", 0, 3.0, 9.0],
        ["seal", "enc", 2, 4.0, 5.0],
        ["op", "plain", -1, 20.0, 24.0],
    ]
    self_time = stats.self_times(spans)
    assert self_time[("enc", "bench")] == pytest.approx(2.0)
    assert self_time[("enc", "transport")] == pytest.approx(2.0)
    assert self_time[("enc", "collectives")] == pytest.approx(5.0)
    assert self_time[("enc", "aead")] == pytest.approx(1.0)
    assert self_time[("plain", "bench")] == pytest.approx(4.0)
    assert stats.span_medians_us(spans)[("enc", "isend")] == pytest.approx(2e6)


def test_tracer_nests_spans_and_closes_them_on_error():
    tracer = Tracer()
    tracer.variant = "enc"

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("isend", lambda: 3)
    failing = tracer.wrap("wait_send", boom)

    def body():
        inner()
        with pytest.raises(ValueError):
            failing()
        return 1

    assert tracer.wrap("op", body)() == 1
    calls = [(s[0], s[1], s[2]) for s in tracer.spans]
    assert calls == [("op", "enc", -1), ("isend", "enc", 0), ("wait_send", "enc", 0)]
    assert all(s[4] >= s[3] for s in tracer.spans)


def test_spread_is_interquartile_distance_over_median():
    # statistics.quantiles([1..5], n=4) gives 1.5, 3, 4.5
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
