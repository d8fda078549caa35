"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (outside pytest's capture) once its
assertions hold, so a green run reads as a per-criterion checklist.
"""

import math
import os
import random
import subprocess
import sys

import pytest

import synth
from conftest import TEST_KEY, run_cli_ranks, run_ranks, summary_rows
from secmsg import benchmarks as bm
from secmsg import collectives as coll
from secmsg.aead import FRAME_OVERHEAD, AesGcmProvider, Frame, IntegrityError, SecretKey
from secmsg.benchmarks import StopPolicy, StopReason, run_until_stable, throughput
from secmsg.models import (
    ENCDEC_PRESETS,
    MAXRATE_PRESET,
    MULTIPAIR_HOCKNEY_PRESETS,
    PINGPONG_HOCKNEY_PRESETS,
    compose_enhanced,
    fit_encdec_line,
    fit_hockney,
    fit_maxrate,
    maxrate_residual,
    overhead_single_large,
    predict_multipair,
    size_class_for,
)


def _report(capsys, number, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} PASS: {text}")


def test_acceptance_1_enhanced_composition_worked_example(capsys):
    enhanced = compose_enhanced(
        PINGPONG_HOCKNEY_PRESETS["ib"], ENCDEC_PRESETS["boringssl"]
    )
    # inputs (3.40, 3.83e-4) and (0.53, 6.90e-4) must print as (3.93, 10.73e-4)
    assert f"{enhanced.eager.alpha_us:.2f}" == "3.93"
    assert f"{enhanced.eager.beta_us_per_byte * 1e4:.2f}" == "10.73"
    assert enhanced.eager.alpha_us == 3.40 + 0.53
    assert enhanced.eager.beta_us_per_byte == 3.83e-4 + 6.90e-4
    _report(capsys, 1, "enhanced composition gives (3.93, 10.73e-4) exactly")


def test_acceptance_2_overhead_estimator_discussion_values(capsys):
    eth = overhead_single_large(
        ENCDEC_PRESETS["boringssl"], MULTIPAIR_HOCKNEY_PRESETS["ethernet"].rendezvous
    )
    ib = overhead_single_large(
        ENCDEC_PRESETS["boringssl"], PINGPONG_HOCKNEY_PRESETS["ib"].rendezvous
    )
    assert abs(round(eth * 100) - 86) <= 1
    assert abs(round(ib * 100) - 221) <= 1
    _report(capsys, 2, f"overheads 6.9/8.0 -> {eth * 100:.2f}% and 6.9/3.12 -> {ib * 100:.2f}%")


def test_acceptance_3_maxrate_and_multipair_worked_examples(capsys):
    # independent hand arithmetic, constants typed straight from the tables:
    # rate(8 workers) = 1502.21 + 7 * 1262.59 = 10340.34 B/us
    # T_enc(8, 2 MiB) = 3.44 + 16777216 / 10340.34
    hand_t_enc = 3.44 + 16_777_216 / 10_340.34
    t_enc = MAXRATE_PRESET.predict(8, 2 * 1024 * 1024)
    assert t_enc == pytest.approx(hand_t_enc, abs=1e-9)
    assert abs(t_enc - 1626.0) <= 0.5

    # T_comm(8, 2 MiB) = 2.38 + 2.78e-4 * 8 * 2097152
    hand_t_comm = 2.38 + 2.78e-4 * 8 * 2_097_152
    hand_prediction = max(hand_t_enc / 2, hand_t_comm) + hand_t_enc / 2
    prediction = predict_multipair(
        MULTIPAIR_HOCKNEY_PRESETS["ib"], MAXRATE_PRESET, 8, 2 * 1024 * 1024
    )
    assert prediction == pytest.approx(hand_prediction, abs=1e-9)
    assert abs(prediction - 5479.7) <= 1.0
    _report(capsys, 3, f"T_enc(8, 2 MiB) = {t_enc:.1f} us; multipair prediction = {prediction:.1f} us")


def test_acceptance_4_fit_recovery_suite(capsys):
    # noiseless recovery of every bundled calibration line, <= 1e-4 relative
    hockney_presets = {
        "ethernet-pingpong": PINGPONG_HOCKNEY_PRESETS["ethernet"],
        "ib-pingpong": PINGPONG_HOCKNEY_PRESETS["ib"],
        "ethernet-multipair": MULTIPAIR_HOCKNEY_PRESETS["ethernet"],
        "ib-multipair": MULTIPAIR_HOCKNEY_PRESETS["ib"],
    }
    for name, preset in hockney_presets.items():
        fitted = fit_hockney(
            synth.phased_samples(
                preset,
                eager_sizes=synth.EAGER_LINE_SIZES,
                rdv_sizes=[131072, 262144, 1048576, 2097152],
            )
        ).params
        for phase in ("eager", "rendezvous"):
            got, true = getattr(fitted, phase), getattr(preset, phase)
            assert synth.rel_err(got.alpha_us, true.alpha_us) <= 1e-4, (name, phase)
            assert synth.rel_err(got.beta_us_per_byte, true.beta_us_per_byte) <= 1e-4

    for name, line in ENCDEC_PRESETS.items():
        fitted_line = fit_encdec_line(synth.line_samples(line, synth.ENC_LINE_SIZES)).params
        assert synth.rel_err(fitted_line.alpha_us, line.alpha_us) <= 1e-4, name
        assert synth.rel_err(fitted_line.beta_us_per_byte, line.beta_us_per_byte) <= 1e-4

    fitted_mr = fit_maxrate(synth.maxrate_samples(MAXRATE_PRESET))
    for cls in ("small", "moderate", "large"):
        got, true = getattr(fitted_mr, cls), getattr(MAXRATE_PRESET, cls)
        assert synth.rel_err(got.alpha_us, true.alpha_us) <= 1e-4, cls
        assert synth.rel_err(got.a_bytes_per_us, true.a_bytes_per_us) <= 1e-4
        if true.b_bytes_per_us:
            assert synth.rel_err(got.b_bytes_per_us, true.b_bytes_per_us) <= 1e-4
        else:
            assert got.b_bytes_per_us <= 1e-4 * true.a_bytes_per_us

    # 5%-noise synthetic at a fixed seed, every parameter within 10%;
    # each phase line is fitted from a design where it is identifiable
    for name, preset in hockney_presets.items():
        rng = random.Random(42)
        eager_focus = synth.line_samples(
            preset.eager, synth.EAGER_LINE_SIZES, reps=8, noise=0.05, rng=rng
        ) + synth.line_samples(
            preset.rendezvous, synth.RDV_FILLER_SIZES, reps=2, noise=0.05, rng=rng
        )
        got = fit_hockney(eager_focus, 131072).params.eager
        assert synth.rel_err(got.alpha_us, preset.eager.alpha_us) <= 0.10, name
        assert synth.rel_err(got.beta_us_per_byte, preset.eager.beta_us_per_byte) <= 0.10

        rng = random.Random(43)
        rdv_focus = synth.line_samples(
            preset.eager, synth.EAGER_FILLER_SIZES, reps=2, noise=0.05, rng=rng
        ) + synth.line_samples(
            preset.rendezvous, synth.RDV_LINE_SIZES, reps=8, noise=0.05, rng=rng
        )
        got = fit_hockney(rdv_focus, synth.RDV_LINE_THRESHOLD).params.rendezvous
        assert synth.rel_err(got.alpha_us, preset.rendezvous.alpha_us) <= 0.10, name
        assert synth.rel_err(got.beta_us_per_byte, preset.rendezvous.beta_us_per_byte) <= 0.10

    for name, line in ENCDEC_PRESETS.items():
        rng = random.Random(42)
        noisy = synth.line_samples(line, synth.ENC_LINE_SIZES, reps=8, noise=0.05, rng=rng)
        got = fit_encdec_line(noisy).params
        assert synth.rel_err(got.alpha_us, line.alpha_us) <= 0.10, name
        assert synth.rel_err(got.beta_us_per_byte, line.beta_us_per_byte) <= 0.10

    noisy_mr_samples = synth.maxrate_samples(MAXRATE_PRESET, reps=8, noise=0.05, seed=42)
    noisy_mr = fit_maxrate(noisy_mr_samples)
    for cls in ("small", "moderate", "large"):
        got, true = getattr(noisy_mr, cls), getattr(MAXRATE_PRESET, cls)
        assert synth.rel_err(got.alpha_us, true.alpha_us) <= 0.10, cls
        assert synth.rel_err(got.a_bytes_per_us, true.a_bytes_per_us) <= 0.10
        if true.b_bytes_per_us:
            assert synth.rel_err(got.b_bytes_per_us, true.b_bytes_per_us) <= 0.10
        else:
            assert got.b_bytes_per_us <= 0.10 * true.a_bytes_per_us

    # solver residual within 5% of the exhaustive coarse-grid oracle
    for cls in ("small", "moderate", "large"):
        data = [
            (s.k_pairs, s.message_size, s.latency_us)
            for s in noisy_mr_samples
            if size_class_for(s.message_size).value == cls
        ]
        solver_res = maxrate_residual(getattr(noisy_mr, cls), data)
        assert solver_res <= 1.05 * synth.maxrate_grid_residual(data), cls

    _report(capsys, 4, "all calibration lines recovered (noiseless <= 1e-4, 5% noise <= 10%, solver <= 1.05x grid)")


def test_acceptance_5_aead_suite(capsys):
    provider = AesGcmProvider(SecretKey(TEST_KEY))
    rng = random.Random(5)
    for _ in range(10_000):
        plaintext = os.urandom(rng.randint(1, 65536))
        frame = provider.seal(plaintext)
        assert len(frame.to_bytes()) - len(plaintext) == FRAME_OVERHEAD
        assert provider.open(frame) == plaintext

    raw = provider.seal(os.urandom(64 - FRAME_OVERHEAD)).to_bytes()
    assert len(raw) == 64
    rejected = 0
    for position in range(64):
        corrupted = bytearray(raw)
        corrupted[position] ^= 0x01
        try:
            provider.open(Frame.from_bytes(bytes(corrupted)))
        except IntegrityError:
            rejected += 1
    assert rejected == 64

    for length in (0, 1, 15, 16, 17, 255, 256, 4096, 65536):
        assert len(provider.seal(bytes(length)).to_bytes()) == length + 28

    _report(capsys, 5, "10,000 round trips, 64/64 tamper rejections, expansion exactly 28")


@pytest.mark.parametrize("n", [1, 2, 4])
def test_acceptance_6_collective_oracle_equivalence(n, capsys):
    lengths = [0, 1, 256, 4096, 131072]

    def payload(src, dst, length):
        return bytes([(src * 16 + dst * 3 + length) % 256]) * length

    def fn(g):
        provider = g.provider
        for length in lengths:
            sendbuf = [payload(g.rank, dst, length) for dst in range(n)]
            expected = [payload(src, g.rank, length) for src in range(n)]

            assert coll.alltoall(g, sendbuf) == expected
            assert coll.encrypted_alltoall(g, provider, sendbuf) == expected

            mine = payload(g.rank, g.rank, length)
            gathered = [payload(src, src, length) for src in range(n)]
            assert coll.allgather(g, mine) == gathered
            assert coll.encrypted_allgather(g, provider, mine) == gathered

            root_body = payload(0, 0, length)
            body_arg = root_body if g.rank == 0 else None
            assert coll.bcast(g, 0, body_arg) == root_body
            body_arg = root_body if g.rank == 0 else None
            assert coll.encrypted_bcast(g, provider, 0, body_arg) == root_body

            recv_lengths = [length] * n
            assert coll.alltoallv(g, sendbuf, recv_lengths) == expected
            assert coll.encrypted_alltoallv(g, provider, sendbuf, recv_lengths) == expected
        return True

    assert run_ranks(n, fn, timeout=110) == [True] * n
    _report(capsys, 6, f"all four encrypted collectives match the in-memory oracle (n={n})")


def test_acceptance_7_benchmark_methodology(tmp_path, capsys):
    # stop-policy branch structure
    constant = run_until_stable(lambda: 50.0, StopPolicy())
    assert constant.run_count == 20
    assert constant.stop_reason is StopReason.STDDEV_OK

    rng = random.Random(7)
    noisy = run_until_stable(lambda: rng.gauss(100.0, 20.0), StopPolicy(hard_budget=5000))
    assert noisy.run_count > 100
    assert noisy.stop_reason is StopReason.CI_OK

    # encrypted >= plaintext mean latency at 2 MiB, on stable results, with
    # each rank in its own process (`secmsg bench pingpong`)
    size = 2 * 1024 * 1024
    assert bm.default_pingpong_rounds(size, scale=0.01) == 10

    def mean_and_stop(*flags):
        runs = run_cli_ranks(2, tmp_path, lambda rank: [
            "bench", "pingpong", "--sizes", str(size), "--scale", "0.01", "--budget", "400",
            *flags,
        ], timeout=280)
        assert [r.returncode for r in runs] == [0, 0]
        [row] = summary_rows(runs[0].stdout)  # size k runs mean stddev MB/s stop
        return float(row[3]), StopReason(row[6])

    plain_mean, plain_stop = mean_and_stop("--plaintext")
    enc_mean, enc_stop = mean_and_stop()
    assert plain_stop in (StopReason.STDDEV_OK, StopReason.CI_OK)
    assert enc_stop in (StopReason.STDDEV_OK, StopReason.CI_OK)
    assert enc_mean >= plain_mean

    # throughput excludes the 28-byte expansion: wire counters prove the
    # wire moved header + plaintext + 28 per message while the credited
    # throughput is computed from the plaintext size alone
    wire_size = 1024
    wire_rounds = 50

    def wire_fn(g):
        before = g.bytes_sent
        latency = bm.pingpong(g, wire_size, wire_rounds, encrypted=True, warmup=0)
        return latency, g.bytes_sent - before

    latency, sent = run_ranks(2, wire_fn)[0]
    assert sent == wire_rounds * (12 + wire_size + FRAME_OVERHEAD) + 12  # +1 barrier msg
    assert throughput(wire_size, latency) == pytest.approx(wire_size / latency)

    _report(
        capsys, 7,
        f"stop rule branches correct; encrypted {enc_mean:.0f} us >= plaintext {plain_mean:.0f} us at 2 MiB; "
        f"wire carried +{FRAME_OVERHEAD} B/message excluded from throughput",
    )


def test_acceptance_8_end_to_end_pipeline(tmp_path, capsys):
    env = dict(os.environ)
    pp_csv = str(tmp_path / "pingpong.csv")
    enc_csv = str(tmp_path / "encdec.csv")
    hockney_json = str(tmp_path / "hockney.json")
    encdec_json = str(tmp_path / "encdec.json")
    merged_json = str(tmp_path / "merged.json")
    report_csv = str(tmp_path / "report.csv")

    def cli(*args, timeout=240):
        return subprocess.run(
            [sys.executable, "-m", "secmsg.cli", *args],
            capture_output=True, text=True, timeout=timeout, env=env,
        )

    # measure: encrypted ping-pong on loopback (both ranks as real processes)
    runs = run_cli_ranks(2, tmp_path, lambda rank: [
        "bench", "pingpong", "--sizes", "1,256,1024,16384,32768,65536", "--threshold", "8192",
        "--scale", "0.001", "--min-runs", "4", "--max-runs", "6", "--budget", "8", "--out", pp_csv,
    ])
    assert [r.returncode for r in runs] == [0, 0]

    result = cli(
        "bench", "encdec", "--sizes", "1,256,4096,16384",
        "--scale", "0.0005", "--min-runs", "5", "--budget", "10", "--out", enc_csv,
    )
    assert result.returncode == 0, result.stderr

    # fit: the bench CSVs are consumed unmodified
    result = cli("fit", "hockney", "--input", pp_csv, "--threshold", "8192", "--out", hockney_json)
    assert result.returncode == 0, result.stderr
    result = cli("fit", "encdec", "--input", enc_csv, "--out", encdec_json)
    assert result.returncode == 0, result.stderr

    # predict: from the fitted parameters, also through a merged document
    import json

    merged = json.load(open(hockney_json))
    merged.update(json.load(open(encdec_json)))
    json.dump(merged, open(merged_json, "w"))
    result = cli("predict", "--mode", "single", "--params", merged_json, "--size", "4096")
    assert result.returncode == 0, result.stderr
    predicted_line = next(l for l in result.stdout.splitlines() if "latency" in l)
    predicted_value = float(predicted_line.split(":")[1].split()[0])
    assert math.isfinite(predicted_value) and predicted_value > 0

    # validate: finite MAPE against the fitted single-flow model
    result = cli(
        "validate", "--measured", pp_csv, "--mode", "single",
        "--params", hockney_json, "--out", report_csv,
    )
    assert result.returncode == 0, result.stderr
    mape_lines = [l for l in result.stdout.splitlines() if l.startswith("MAPE")]
    assert mape_lines
    mapes = [float(l.rsplit(":", 1)[1]) for l in mape_lines]
    assert all(math.isfinite(v) and v >= 0 for v in mapes)

    import csv as _csv

    rows = list(_csv.DictReader(open(report_csv)))
    assert {int(r["size_bytes"]) for r in rows} == {1, 256, 1024, 16384, 32768, 65536}
    _report(capsys, 8, f"bench -> fit -> predict -> validate pipeline, MAPE overall {mapes[-1]:.3f}")
