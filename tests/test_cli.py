import csv
import json
import random
import statistics

import pytest

import synth
from helpers import free_roster, run_cli_ranks, summary_rows, write_roster
from secmsg.benchmarks import LatencySample, read_samples_csv, write_samples_csv
from secmsg.cli import main
from secmsg.models import (
    ENCDEC_PRESETS,
    MAXRATE_PRESET,
    MULTIPAIR_HOCKNEY_PRESETS,
    PINGPONG_HOCKNEY_PRESETS,
    PhasedHockneyParams,
    HockneyParams,
    load_params,
    predict_multipair,
)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_fit_requires_input(capsys):
    assert main(["fit", "hockney"]) == 1


def test_unknown_preset_is_usage_error(capsys):
    for name in ("nope", "ib-rendezvous"):
        assert main(["predict", "--mode", "single", "--preset", name, "--size", "1"]) == 1
        err = capsys.readouterr().err
        assert "unknown preset" in err


def test_bad_key_hex_is_usage_error(capsys):
    rc = main(["bench", "encdec", "--sizes", "16", "--key", "zz", "--scale", "0.001"])
    assert rc == 1


def test_missing_roster_is_usage_error(tmp_path, capsys):
    rc = main(
        ["bench", "pingpong", "--roster", str(tmp_path / "none.txt"), "--rank", "0"]
    )
    assert rc == 1


def test_bench_encdec_writes_expected_csv_shape(tmp_path, capsys):
    out = str(tmp_path / "encdec.csv")
    rc = main(
        [
            "bench", "encdec", "--sizes", "1024", "--threads", "1,2",
            "--scale", "0.0004", "--min-runs", "5", "--budget", "12", "--out", out,
        ]
    )
    assert rc == 0
    samples = read_samples_csv(out)
    assert all(s.message_size == 1024 for s in samples)
    for k in (1, 2):
        assert len([s for s in samples if s.k_pairs == k]) >= 5
    rows = summary_rows(capsys.readouterr().out)
    assert [(row[0], row[1]) for row in rows] == [("1024", "1"), ("1024", "2")]


def test_bench_scale_changes_counts_not_schema(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for path, scale in ((a, "0.0002"), (b, "0.0004")):
        rc = main(
            [
                "bench", "encdec", "--sizes", "256", "--threads", "1",
                "--scale", scale, "--min-runs", "5", "--budget", "8", "--out", path,
            ]
        )
        assert rc == 0
    with open(a) as fh_a, open(b) as fh_b:
        assert fh_a.readline() == fh_b.readline()  # identical schema header


def test_fit_hockney_exact_line_echoed(tmp_path, capsys):
    params = PhasedHockneyParams(HockneyParams(10.0, 1e-3), HockneyParams(50.0, 5e-4))
    samples = synth.phased_samples(
        params, eager_sizes=[1, 1024, 65536], rdv_sizes=[131072, 1048576]
    )
    csv_path = str(tmp_path / "line.csv")
    out_path = str(tmp_path / "params.json")
    write_samples_csv(csv_path, samples)
    rc = main(["fit", "hockney", "--input", csv_path, "--out", out_path])
    assert rc == 0
    fitted = load_params(out_path).hockney
    assert fitted.eager.alpha_us == pytest.approx(10.0, rel=1e-9)
    assert fitted.eager.beta_us_per_byte == pytest.approx(1e-3, rel=1e-9)
    assert fitted.rendezvous.alpha_us == pytest.approx(50.0, rel=1e-9)
    stdout = capsys.readouterr().out
    assert "eager" in stdout and "rendezvous" in stdout
    assert "fallback" not in stdout


def test_fit_hockney_notes_one_byte_fallback(tmp_path, capsys):
    eager = [LatencySample(m, 1, 0, -5.0 + 1e-3 * m) for m in (8192, 16384, 32768, 65536)]
    eager.append(LatencySample(1, 1, 0, 0.8))
    rdv = [LatencySample(m, 1, 0, 20.0 + 5e-4 * m) for m in (131072, 262144)]
    csv_path = str(tmp_path / "fallback.csv")
    write_samples_csv(csv_path, eager + rdv)
    rc = main(["fit", "hockney", "--input", csv_path])
    assert rc == 0
    assert "fallback applied" in capsys.readouterr().out


def test_fit_underdetermined_names_deficient_phase(tmp_path, capsys):
    samples = [LatencySample(64, 1, i, 5.0) for i in range(3)]
    samples += [LatencySample(m, 1, 0, 20.0 + 5e-4 * m) for m in (131072, 262144)]
    csv_path = str(tmp_path / "thin.csv")
    write_samples_csv(csv_path, samples)
    rc = main(["fit", "hockney", "--input", csv_path])
    assert rc == 1
    assert "eager" in capsys.readouterr().err


def test_fit_maxrate_recovers_forward_model(tmp_path, capsys):
    csv_path = str(tmp_path / "maxrate.csv")
    out_path = str(tmp_path / "maxrate.json")
    write_samples_csv(csv_path, synth.maxrate_samples(MAXRATE_PRESET))
    rc = main(["fit", "maxrate", "--input", csv_path, "--out", out_path])
    assert rc == 0
    fitted = load_params(out_path).maxrate
    for cls in ("small", "moderate", "large"):
        true = getattr(MAXRATE_PRESET, cls)
        got = getattr(fitted, cls)
        assert got.alpha_us == pytest.approx(true.alpha_us, rel=1e-4, abs=1e-6)
        assert got.a_bytes_per_us == pytest.approx(true.a_bytes_per_us, rel=1e-4)


def test_fit_encdec_from_csv(tmp_path):
    line = ENCDEC_PRESETS["boringssl"]
    csv_path = str(tmp_path / "enc.csv")
    out_path = str(tmp_path / "enc.json")
    write_samples_csv(csv_path, synth.line_samples(line, synth.ENC_LINE_SIZES))
    assert main(["fit", "encdec", "--input", csv_path, "--out", out_path]) == 0
    fitted = load_params(out_path).encdec
    assert fitted.alpha_us == pytest.approx(0.53, rel=1e-9)
    assert fitted.beta_us_per_byte == pytest.approx(6.90e-4, rel=1e-9)


def test_predict_overhead_reproduces_221_percent(capsys):
    rc = main(["predict", "--mode", "overhead", "--preset", "ib-pingpong", "--enc", "boringssl"])
    assert rc == 0
    assert "221%" in capsys.readouterr().out


def test_predict_overhead_ethernet_multipair_is_86_percent(capsys):
    rc = main(["predict", "--mode", "overhead", "--preset", "ethernet-multipair", "--enc", "boringssl"])
    assert rc == 0
    assert "86%" in capsys.readouterr().out


def test_predict_multipair_reproduces_worked_value(capsys):
    rc = main(["predict", "--mode", "multipair", "--preset", "ib", "--pairs", "8", "--size", "2097152"])
    assert rc == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "window latency" in l)
    value = float(line.split(":")[1].split()[0])
    assert value == pytest.approx(5479.7, abs=1.0)
    assert "phase rendezvous" in out and "class large" in out


def test_predict_single_size_zero_is_eager_alpha(capsys):
    rc = main(["predict", "--mode", "single", "--preset", "ib", "--size", "0", "--plaintext"])
    assert rc == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "latency" in l)
    assert float(line.split(":")[1].split()[0]) == pytest.approx(3.40)
    assert "phase eager" in out


def test_predict_multipair_overhead_with_pairs(capsys):
    rc = main(
        ["predict", "--mode", "overhead", "--preset", "ethernet", "--pairs", "8", "--size", "2097152"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "overhead" in l and "%" in l)
    value = float(line.split(":")[1].split("%")[0])
    assert value == pytest.approx(6.04, abs=0.05)


def test_predict_multipair_overhead_takes_slope_from_phase_of_size(capsys):
    # 64 KiB is eager under the default threshold: beta is the eager 2.88e-4,
    # so 1 / (2 * 2.88e-4 * (1502.21 + 7 * 1262.59)) = 16.79%
    rc = main(["predict", "--mode", "overhead", "--preset", "ib", "--pairs", "8", "--size", "65536"])
    assert rc == 0
    assert "predicted overhead: 16.79%" in capsys.readouterr().out


def test_predict_pipelined_encryption_bound_is_about_120_percent(capsys):
    rc = main(["predict", "--mode", "pipelined", "--preset", "ib", "--size", "2097152"])
    assert rc == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("overhead versus plaintext"))
    assert 115.0 <= float(line.split(":")[1].split("%")[0]) <= 125.0
    assert "phase rendezvous" in out


def test_predict_pairs_takes_one_integer(capsys):
    rc = main(["predict", "--mode", "multipair", "--preset", "ib", "--pairs", "8,16", "--size", "2097152"])
    assert rc == 1
    assert "--pairs" in capsys.readouterr().err


def test_predict_negative_size_is_usage_error(capsys):
    for mode in (["single"], ["multipair", "--pairs", "2"], ["pipelined"], ["overhead"],
                 ["overhead", "--pairs", "2"]):
        assert main(["predict", "--mode", *mode, "--preset", "ib", "--size", "-5"]) == 1, mode
        assert "error" in capsys.readouterr().err


def test_predict_requires_sections(tmp_path, capsys):
    path = str(tmp_path / "only_enc.json")
    with open(path, "w") as fh:
        json.dump({"encdec": {"alpha_us": 1.0, "beta_us_per_byte": 1e-4}}, fh)
    rc = main(["predict", "--mode", "single", "--params", path, "--size", "64"])
    assert rc == 1


@pytest.mark.parametrize("row", ["1024,1,0", "1024,1,0,abc", "-1,1,0,2.5"])
def test_malformed_samples_csv_is_error_not_traceback(tmp_path, capsys, row):
    path = tmp_path / "samples.csv"
    path.write_text(f"size_bytes,k_pairs,run_index,latency_us\n16,1,0,1.5\n{row}\n")
    for argv in (["fit", "encdec", "--input", str(path)],
                 ["validate", "--mode", "single", "--preset", "ib", "--measured", str(path)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}, line 3" in err, err


@pytest.mark.parametrize("doc", [
    {"hockney": {"eager": {"alpha": 1}}},
    {"hockney": {"rendezvous": {"alpha_us": 1.0, "beta_us_per_byte": 1e-4}}},
    {"encdec": {"alpha_us": -1.0, "beta_us_per_byte": 1e-4}},
])
def test_malformed_parameter_json_is_error_not_traceback(tmp_path, capsys, doc):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert main(["predict", "--mode", "single", "--params", str(path), "--size", "64"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err, err


def test_validate_identity_and_shuffle_independence(tmp_path, capsys):
    model = PINGPONG_HOCKNEY_PRESETS["ib"]
    samples = []
    for size in (1024, 16384, 262144):
        for run in range(3):
            samples.append(
                LatencySample(size, 1, run, model.params_for(size).predict(size))
            )
    ordered = str(tmp_path / "ordered.csv")
    write_samples_csv(ordered, samples)

    shuffled = str(tmp_path / "shuffled.csv")
    rng = random.Random(5)
    rows = list(csv.reader(open(ordered)))
    header, body = rows[0], rows[1:]
    rng.shuffle(body)
    with open(shuffled, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)

    report_a = str(tmp_path / "a.csv")
    report_b = str(tmp_path / "b.csv")
    rc = main(
        ["validate", "--measured", ordered, "--mode", "single", "--preset", "ib",
         "--plaintext", "--out", report_a]
    )
    assert rc == 0
    out_a = capsys.readouterr().out
    assert "MAPE" in out_a
    rc = main(
        ["validate", "--measured", shuffled, "--mode", "single", "--preset", "ib",
         "--plaintext", "--out", report_b]
    )
    assert rc == 0
    with open(report_a) as fa, open(report_b) as fb:
        assert fa.read() == fb.read()
    for row in list(csv.DictReader(open(report_a))):
        assert float(row["rel_error"]) < 1e-9


def test_validate_multipair_identity(tmp_path, capsys):
    comm = MULTIPAIR_HOCKNEY_PRESETS["ib"]
    samples = [
        LatencySample(size, k, run, predict_multipair(comm, MAXRATE_PRESET, k, size))
        for size in (1024, 65536, 2097152)
        for k in (1, 3, 8)
        for run in range(2)
    ]
    path = str(tmp_path / "mp.csv")
    write_samples_csv(path, samples)
    rc = main(["validate", "--measured", path, "--mode", "multipair", "--preset", "ib"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MAPE overall: 0.0000" in out
    assert len([l for l in out.splitlines() if l.startswith("MAPE size")]) == 3


def test_validate_multipair_lists_a_zero_byte_point_without_prediction(tmp_path, capsys):
    comm = MULTIPAIR_HOCKNEY_PRESETS["ib"]
    samples = [LatencySample(0, 2, run, 5.0) for run in range(2)] + [
        LatencySample(1024, 2, run, predict_multipair(comm, MAXRATE_PRESET, 2, 1024))
        for run in range(2)
    ]
    path = str(tmp_path / "mp.csv")
    write_samples_csv(path, samples)
    rc = main(["validate", "--measured", path, "--mode", "multipair", "--preset", "ib"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[1].split()[:2] == ["1024", "2"]  # the only row
    assert lines[2:] == ["MAPE size 1024: 0.0000", "MAPE overall: 0.0000"]
    assert "warning: no prediction for (size=0, k=2)" in captured.err


@pytest.mark.parametrize("command", ["predict", "validate"])
def test_multipair_model_rejects_plaintext(command, tmp_path, capsys):
    # the multipair model always includes encryption
    path = str(tmp_path / "mp.csv")
    write_samples_csv(path, [LatencySample(1024, 2, run, 50.0) for run in range(2)])
    argv = {
        "predict": ["predict", "--pairs", "2", "--size", "1024"],
        "validate": ["validate", "--measured", path],
    }[command] + ["--mode", "multipair", "--preset", "ib"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--plaintext"]) == 1
    assert "--plaintext" in capsys.readouterr().err


def test_env_var_overrides_key_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("SECMSG_KEY", "zz-not-hex")
    rc = main(["bench", "encdec", "--sizes", "16", "--key", "00" * 32, "--scale", "0.001"])
    assert rc == 1  # the env var wins and it is invalid


def test_bad_key_error_names_the_fault_not_the_key(tmp_path, monkeypatch, capsys):
    bad = ("00112233445566778899aabbccddeeff" * 2)[:-1] + "Z"
    roster = str(tmp_path / "roster.txt")
    write_roster(roster, free_roster(1))
    monkeypatch.setenv("SECMSG_KEY", bad)
    assert main(["bench", "pingpong", "--roster", roster, "--rank", "0"]) == 1
    err = capsys.readouterr().err
    assert "position 63" in err
    assert not any(bad[i:i + 8] in err for i in range(len(bad) - 7))


def test_mismatched_keys_exit_with_integrity_code(tmp_path):
    keys = ["00" * 32, "11" * 32]
    runs = run_cli_ranks(2, tmp_path, lambda rank: [
        "bench", "pingpong", "--key", keys[rank], "--sizes", "1024",
        "--scale", "0.001", "--min-runs", "4", "--budget", "8",
    ], timeout=120)
    codes = [r.returncode for r in runs]
    assert 3 in codes  # at least one side rejects the peer's frames
    assert all(code in (2, 3) for code in codes)


def test_bench_multipair_produces_k_groups(tmp_path):
    csv_path = str(tmp_path / "mp.csv")
    runs = run_cli_ranks(4, tmp_path, lambda rank: [
        "bench", "multipair", "--pairs", "1,2", "--sizes", "16384", "--scale", "0.02",
        "--min-runs", "4", "--max-runs", "5", "--budget", "6", "--out", csv_path,
    ], timeout=180)
    assert [r.returncode for r in runs] == [0] * 4
    samples = read_samples_csv(csv_path)
    assert {s.k_pairs for s in samples} == {1, 2}
    assert all(s.message_size == 16384 for s in samples)
    # one summary line per (size, k); MB/s counts every message of the
    # 64-message window on each of the k pairs
    rows = summary_rows(runs[0].stdout)
    assert [(row[0], row[1]) for row in rows] == [("16384", "1"), ("16384", "2")]
    for row in rows:
        size, k = int(row[0]), int(row[1])
        mean = statistics.fmean(s.latency_us for s in samples if s.k_pairs == k)
        assert float(row[3]) == pytest.approx(mean, abs=0.0006)
        assert float(row[5]) == pytest.approx(size / mean * 64 * k, abs=0.006)


def test_bench_collective_records_group_size_as_k(tmp_path):
    csv_path = str(tmp_path / "coll.csv")
    runs = run_cli_ranks(2, tmp_path, lambda rank: [
        "bench", "collective", "--op", "allgather", "--sizes", "256,4096", "--scale", "0.05",
        "--min-runs", "4", "--max-runs", "5", "--budget", "6", "--out", csv_path,
    ], timeout=120)
    assert [r.returncode for r in runs] == [0, 0]
    samples = read_samples_csv(csv_path)
    assert sorted({s.message_size for s in samples}) == [256, 4096]
    assert {s.k_pairs for s in samples} == {2}


def test_bench_pingpong_groups_satisfy_stop_policy(tmp_path):
    # audit the emitted samples: every size group must terminate in a
    # state the stop rule accepts
    import statistics as stats

    csv_path = str(tmp_path / "pp.csv")
    min_runs, max_runs, budget, cv = 4, 6, 10, 0.05
    runs = run_cli_ranks(2, tmp_path, lambda rank: [
        "bench", "pingpong", "--sizes", "1,1024,2097152", "--scale", "0.002",
        "--min-runs", str(min_runs), "--max-runs", str(max_runs),
        "--budget", str(budget), "--cv", str(cv), "--plaintext", "--out", csv_path,
    ])
    assert [r.returncode for r in runs] == [0, 0]

    samples = read_samples_csv(csv_path)
    by_size = {}
    for s in samples:
        by_size.setdefault(s.message_size, []).append(s.latency_us)
    assert set(by_size) == {1, 1024, 2097152}
    z = 2.5758293035489004
    for size, latencies in by_size.items():
        n = len(latencies)
        assert n >= min_runs
        mean = stats.fmean(latencies)
        sd = stats.stdev(latencies)
        if n <= max_runs:
            assert sd <= cv * mean  # phase-1 stop
        elif n < budget:
            assert z * sd / n**0.5 <= cv * mean  # confidence stop
        else:
            assert n == budget  # budget stop


def test_end_to_end_pingpong_over_processes(tmp_path, capsys):
    csv_path = str(tmp_path / "pp.csv")
    params_path = str(tmp_path / "fit.json")
    report_path = str(tmp_path / "report.csv")

    runs = run_cli_ranks(2, tmp_path, lambda rank: [
        "bench", "pingpong", "--sizes", "1,1024,16384,65536", "--threshold", "8192",
        "--scale", "0.001", "--min-runs", "4", "--max-runs", "6",
        "--budget", "8", "--plaintext", "--out", csv_path,
    ], timeout=180)
    assert [r.returncode for r in runs] == [0, 0]

    # the CSV written by bench is accepted unmodified by fit and validate
    assert main(["fit", "hockney", "--input", csv_path, "--threshold", "8192",
                 "--out", params_path]) == 0
    assert main(["validate", "--measured", csv_path, "--mode", "single",
                 "--params", params_path, "--plaintext", "--out", report_path]) == 0
    out = capsys.readouterr().out
    assert "MAPE overall" in out
    rows = list(csv.DictReader(open(report_path)))
    assert {int(r["size_bytes"]) for r in rows} == {1, 1024, 16384, 65536}
