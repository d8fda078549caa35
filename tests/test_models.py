import dataclasses
import json
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import synth
from helpers import maxrate_residual
from secmsg.benchmarks import LatencySample
from secmsg.models import (
    DEFAULT_THRESHOLD,
    ENCDEC_PRESETS,
    MAXRATE_PRESET,
    MULTIPAIR_HOCKNEY_PRESETS,
    PINGPONG_HOCKNEY_PRESETS,
    PRESETS,
    FitError,
    HockneyParams,
    MaxRateClassParams,
    MaxRateParams,
    ParameterSet,
    Phase,
    PhasedHockneyParams,
    SizeClass,
    compose_enhanced,
    fit_encdec_line,
    fit_hockney,
    fit_maxrate,
    from_json_dict,
    load_params,
    mean_latency_by_key,
    overhead_multipair,
    overhead_single_large,
    phase_for,
    predict_multipair,
    predict_pipelined,
    save_params,
    size_class_for,
    to_json_dict,
    validate,
)

IB = PINGPONG_HOCKNEY_PRESETS["ib"]
ETH = PINGPONG_HOCKNEY_PRESETS["ethernet"]
BORINGSSL = ENCDEC_PRESETS["boringssl"]


# -- phase and size-class selection -----------------------------------------


def test_phase_boundary_is_threshold():
    assert phase_for(0) is Phase.EAGER
    assert phase_for(DEFAULT_THRESHOLD - 1) is Phase.EAGER
    assert phase_for(DEFAULT_THRESHOLD) is Phase.RENDEZVOUS
    assert phase_for(100, threshold=100) is Phase.RENDEZVOUS
    assert phase_for(99, threshold=100) is Phase.EAGER


def test_size_class_boundaries():
    assert size_class_for(0) is SizeClass.SMALL
    assert size_class_for(256) is SizeClass.SMALL
    assert size_class_for(257) is SizeClass.MODERATE
    assert size_class_for(32767) is SizeClass.MODERATE
    assert size_class_for(32768) is SizeClass.LARGE


def test_class_selection_ignores_worker_count():
    m = 1024  # moderate
    for k in (1, 2, 4, 8):
        base = MAXRATE_PRESET.predict(k, m) - MAXRATE_PRESET.moderate.alpha_us
        rate = MAXRATE_PRESET.moderate.a_bytes_per_us + MAXRATE_PRESET.moderate.b_bytes_per_us * (k - 1)
        assert base == pytest.approx(k * m / rate, rel=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        HockneyParams(-1.0, 1e-4)
    with pytest.raises(ValueError):
        HockneyParams(1.0, -1e-4)
    with pytest.raises(ValueError):
        MaxRateClassParams(1.0, 0.0, 0.0)  # A must be positive
    with pytest.raises(ValueError):
        MaxRateClassParams(1.0, 10.0, -1.0)
    with pytest.raises(ValueError):
        PhasedHockneyParams(HockneyParams(1, 0), HockneyParams(1, 0), 0)


# -- line fits ----------------------------------------------------------------


def test_exact_line_recovered_to_1e9():
    line = HockneyParams(10.0, 0.001)
    samples = synth.phased_samples(
        PhasedHockneyParams(line, HockneyParams(20.0, 0.0005)),
        eager_sizes=[1, 100, 5000, 60000],
        rdv_sizes=[131072, 300000, 2 * 1024 * 1024],
    )
    fitted = fit_hockney(samples).params
    assert synth.rel_err(fitted.eager.alpha_us, 10.0) <= 1e-9
    assert synth.rel_err(fitted.eager.beta_us_per_byte, 0.001) <= 1e-9
    assert synth.rel_err(fitted.rendezvous.alpha_us, 20.0) <= 1e-9
    assert synth.rel_err(fitted.rendezvous.beta_us_per_byte, 0.0005) <= 1e-9


def test_negative_intercept_falls_back_to_one_byte_latency():
    # eager data from T = -5 + 0.001 m (an unphysical negative intercept)
    # plus a measured 1-byte latency of 0.8; rendezvous data is a clean line
    sizes = [8192, 16384, 32768, 65536]
    eager = [LatencySample(m, 1, 0, -5.0 + 0.001 * m) for m in sizes]
    eager.append(LatencySample(1, 1, 0, 0.8))
    rdv = [LatencySample(m, 1, 0, 20.0 + 5e-4 * m) for m in (131072, 262144)]
    report = fit_hockney(eager + rdv)

    assert report.fallback_phases == frozenset({Phase.EAGER})
    assert report.params.eager.alpha_us == pytest.approx(0.8)
    # independent single-parameter least-squares oracle with alpha fixed:
    # beta = sum(x (y - alpha)) / sum(x^2)
    xs = [float(s.message_size) for s in eager]
    ys = [s.latency_us for s in eager]
    beta_oracle = sum(x * (y - 0.8) for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    assert report.params.eager.beta_us_per_byte == pytest.approx(beta_oracle, rel=1e-12)


def test_fallback_without_one_byte_sample_is_an_error():
    sizes = [8192, 16384, 32768, 65536]
    eager = [LatencySample(m, 1, 0, -5.0 + 0.001 * m) for m in sizes]
    rdv = [LatencySample(m, 1, 0, 20.0 + 5e-4 * m) for m in (131072, 262144)]
    with pytest.raises(FitError, match="1-byte"):
        fit_hockney(eager + rdv)


def test_single_size_in_a_phase_is_an_error():
    eager = [LatencySample(64, 1, i, 5.0) for i in range(3)]
    rdv = [LatencySample(m, 1, 0, 20.0 + 5e-4 * m) for m in (131072, 262144)]
    with pytest.raises(FitError, match="eager"):
        fit_hockney(eager + rdv)


def test_noisy_ib_eager_recovered_within_10_percent():
    rng = random.Random(42)
    samples = synth.line_samples(IB.eager, synth.EAGER_LINE_SIZES, reps=8, noise=0.05, rng=rng)
    samples += synth.line_samples(IB.rendezvous, synth.RDV_FILLER_SIZES, reps=2, noise=0.05, rng=rng)
    fitted = fit_hockney(samples).params
    assert synth.rel_err(fitted.eager.alpha_us, 3.40) <= 0.10
    assert synth.rel_err(fitted.eager.beta_us_per_byte, 3.83e-4) <= 0.10


def test_multipair_samples_fit_against_k_times_m():
    # aggregate-pair data: latency = alpha + beta * k * m
    line = MULTIPAIR_HOCKNEY_PRESETS["ib"].eager
    samples = []
    for k in (1, 2, 4, 8):
        samples += synth.line_samples(line, [64, 1024, 16384], k=k)
    samples += synth.line_samples(
        MULTIPAIR_HOCKNEY_PRESETS["ib"].rendezvous, [131072, 262144]
    )
    fitted = fit_hockney(samples).params
    assert synth.rel_err(fitted.eager.alpha_us, line.alpha_us) <= 1e-9
    assert synth.rel_err(fitted.eager.beta_us_per_byte, line.beta_us_per_byte) <= 1e-9


def test_encdec_exact_line_boringssl_row():
    samples = synth.line_samples(BORINGSSL, synth.ENC_LINE_SIZES)
    fitted = fit_encdec_line(samples).params
    assert synth.rel_err(fitted.alpha_us, 0.53) <= 1e-9
    assert synth.rel_err(fitted.beta_us_per_byte, 6.90e-4) <= 1e-9


def test_encdec_constant_samples_give_zero_slope():
    samples = [LatencySample(m, 1, 0, 7.5) for m in (1, 64, 1024, 65536)]
    fitted = fit_encdec_line(samples).params
    assert fitted.beta_us_per_byte == 0.0
    assert fitted.alpha_us == pytest.approx(7.5)


def test_encdec_noisy_libsodium_recovered_within_10_percent():
    rng = random.Random(42)
    samples = synth.line_samples(
        ENCDEC_PRESETS["libsodium"], synth.ENC_LINE_SIZES, reps=8, noise=0.05, rng=rng
    )
    fitted = fit_encdec_line(samples).params
    assert synth.rel_err(fitted.alpha_us, 0.48) <= 0.10
    assert synth.rel_err(fitted.beta_us_per_byte, 16.3e-4) <= 0.10


# -- composition ---------------------------------------------------------------


def test_compose_is_exact_addition():
    enhanced = compose_enhanced(IB, BORINGSSL)
    assert enhanced.eager.alpha_us == 3.40 + 0.53
    assert enhanced.eager.beta_us_per_byte == 3.83e-4 + 6.90e-4
    assert enhanced.rendezvous.alpha_us == 7.17 + 0.53
    assert enhanced.rendezvous.beta_us_per_byte == 3.12e-4 + 6.90e-4
    assert enhanced.threshold_bytes == IB.threshold_bytes


def test_compose_reproduces_worked_example_after_decimal_rounding():
    enhanced = compose_enhanced(IB, BORINGSSL)
    assert f"{enhanced.eager.alpha_us:.2f}" == "3.93"
    assert f"{enhanced.eager.beta_us_per_byte * 1e4:.2f}" == "10.73"


def test_compose_with_zero_encryption_is_identity():
    zero = HockneyParams(0.0, 0.0)
    enhanced = compose_enhanced(ETH, zero)
    assert enhanced.eager == ETH.eager
    assert enhanced.rendezvous == ETH.rendezvous


def test_compose_commutes_as_addition():
    a = compose_enhanced(IB, BORINGSSL)
    swapped_comm = PhasedHockneyParams(
        eager=HockneyParams(BORINGSSL.alpha_us, BORINGSSL.beta_us_per_byte),
        rendezvous=HockneyParams(BORINGSSL.alpha_us, BORINGSSL.beta_us_per_byte),
        threshold_bytes=IB.threshold_bytes,
    )
    swapped_enc = HockneyParams(IB.eager.alpha_us, IB.eager.beta_us_per_byte)
    b = compose_enhanced(swapped_comm, swapped_enc)
    assert a.eager.alpha_us == b.eager.alpha_us
    assert a.eager.beta_us_per_byte == b.eager.beta_us_per_byte


# -- point predictions ----------------------------------------------------------


def test_predict_single_at_zero_is_alpha():
    assert IB.predict(0) == IB.eager.alpha_us
    enhanced = compose_enhanced(IB, BORINGSSL)
    assert enhanced.predict(0) == enhanced.eager.alpha_us


def test_predict_single_worked_example_at_1024():
    enhanced = compose_enhanced(IB, BORINGSSL)
    # hand evaluation: 3.93 + 10.73e-4 * 1024 = 3.93 + 1.098752
    assert enhanced.predict(1024) == pytest.approx(5.028752, abs=1e-9)
    assert enhanced.predict(1024) == pytest.approx(5.029, abs=1e-3)


def test_predict_single_threshold_boundary_uses_rendezvous():
    at = IB.predict(IB.threshold_bytes)
    expected = IB.rendezvous.alpha_us + IB.rendezvous.beta_us_per_byte * IB.threshold_bytes
    assert at == expected
    below = IB.predict(IB.threshold_bytes - 1)
    assert below == IB.eager.alpha_us + IB.eager.beta_us_per_byte * (IB.threshold_bytes - 1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=DEFAULT_THRESHOLD - 1),
    st.integers(min_value=0, max_value=DEFAULT_THRESHOLD - 1),
)
def test_predict_single_monotone_within_phase(m1, m2):
    lo, hi = sorted((m1, m2))
    assert IB.predict(lo) <= IB.predict(hi)


# -- max-rate model --------------------------------------------------------------


def test_eval_maxrate_k1_is_alpha_plus_m_over_a():
    params = MAXRATE_PRESET.large
    m = 65536
    assert MAXRATE_PRESET.predict(1, m) == pytest.approx(
        params.alpha_us + m / params.a_bytes_per_us, rel=1e-12
    )


def test_eval_maxrate_zero_size_is_alpha():
    assert MAXRATE_PRESET.predict(4, 0) == MAXRATE_PRESET.small.alpha_us


def test_eval_maxrate_large_class_worked_example():
    # hand arithmetic: 3.44 + (8 * 2097152) / (1502.21 + 7 * 1262.59)
    rate = 1502.21 + 7 * 1262.59
    expected = 3.44 + (8 * 2097152) / rate
    got = MAXRATE_PRESET.predict(8, 2 * 1024 * 1024)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1626.0, abs=0.5)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=32768, max_value=2**21), st.integers(min_value=32768, max_value=2**21))
def test_eval_maxrate_monotone_in_size_within_class(m1, m2):
    lo, hi = sorted((m1, m2))
    assert MAXRATE_PRESET.predict(4, lo) <= MAXRATE_PRESET.predict(4, hi)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=32768, max_value=2**21))
def test_eval_maxrate_per_worker_latency_nonincreasing_when_b_positive(k, m):
    # the raw window time alpha + k*m/(A + B(k-1)) can grow with k whenever
    # A > B (it does for the large class); the scaling benefit shows in the
    # per-worker time T(k, m) / k, which never gets worse as workers join
    per_worker_now = MAXRATE_PRESET.predict(k, m) / k
    per_worker_next = MAXRATE_PRESET.predict(k + 1, m) / (k + 1)
    assert per_worker_next <= per_worker_now + 1e-9


def test_fit_maxrate_noiseless_recovers_all_classes():
    fitted = fit_maxrate(synth.maxrate_samples(MAXRATE_PRESET))
    for cls in ("small", "moderate", "large"):
        true = getattr(MAXRATE_PRESET, cls)
        got = getattr(fitted, cls)
        assert synth.rel_err(got.alpha_us, true.alpha_us) <= 1e-4
        assert synth.rel_err(got.a_bytes_per_us, true.a_bytes_per_us) <= 1e-4
        if true.b_bytes_per_us:
            assert synth.rel_err(got.b_bytes_per_us, true.b_bytes_per_us) <= 1e-4
        else:
            assert got.b_bytes_per_us <= 1e-3 * true.a_bytes_per_us


def test_fit_maxrate_single_worker_count_is_an_error():
    samples = [
        LatencySample(m, 1, 0, MAXRATE_PRESET.class_params(m).predict(1, m))
        for m in (16, 64, 512, 4096, 32768, 65536)
    ]
    with pytest.raises(FitError):
        fit_maxrate(samples)


def test_fit_maxrate_missing_class_is_an_error():
    samples = []
    for k in (1, 2, 4, 8):
        for m in (16, 64, 512, 4096):  # small and moderate only
            samples.append(LatencySample(m, k, 0, MAXRATE_PRESET.class_params(m).predict(k, m)))
    with pytest.raises(FitError, match="large"):
        fit_maxrate(samples)


def test_fit_maxrate_b_zero_data_yields_tiny_b():
    flat = MaxRateParams(
        small=MaxRateClassParams(1.0, 500.0, 0.0),
        moderate=MaxRateClassParams(1.5, 1000.0, 0.0),
        large=MaxRateClassParams(2.0, 1500.0, 0.0),
    )
    fitted = fit_maxrate(synth.maxrate_samples(flat))
    for cls in ("small", "moderate", "large"):
        got = getattr(fitted, cls)
        assert got.b_bytes_per_us <= 1e-3 * got.a_bytes_per_us


def test_fit_maxrate_solver_beats_coarse_grid_oracle():
    samples = synth.maxrate_samples(MAXRATE_PRESET, reps=8, noise=0.05, seed=42)
    fitted = fit_maxrate(samples)
    for cls in ("small", "moderate", "large"):
        data = [
            (s.k_pairs, s.message_size, s.latency_us)
            for s in samples
            if size_class_for(s.message_size).value == cls
        ]
        solver_res = maxrate_residual(getattr(fitted, cls), data)
        assert solver_res <= 1.05 * synth.maxrate_grid_residual(data)


_maxrate_class = st.builds(
    lambda alpha, a, b_over_a: MaxRateClassParams(alpha, a, b_over_a * a),
    st.floats(0.1, 20.0),
    st.floats(1.0, 5.0).map(lambda e: 10.0 ** e),
    st.just(0.0) | st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
)


@settings(max_examples=50, deadline=None)
@given(st.builds(MaxRateParams, _maxrate_class, _maxrate_class, _maxrate_class))
# B/A = 1e9: a search over B/A that stops at 1e8 fits this data worse
@example(MaxRateParams(*(
    MaxRateClassParams(alpha, a, 1e9 * a) for alpha, a in ((1.0, 500.0), (1.5, 1000.0), (2.0, 1500.0))
)))
def test_fit_maxrate_recovers_random_noiseless_parameters(true_params):
    fitted = fit_maxrate(synth.maxrate_samples(true_params))
    for cls in ("small", "moderate", "large"):
        true, got = getattr(true_params, cls), getattr(fitted, cls)
        assert synth.rel_err(got.alpha_us, true.alpha_us) <= 1e-6
        assert synth.rel_err(got.a_bytes_per_us, true.a_bytes_per_us) <= 1e-6
        if true.b_bytes_per_us:
            assert synth.rel_err(got.b_bytes_per_us, true.b_bytes_per_us) <= 1e-6
        else:
            assert got.b_bytes_per_us <= 1e-9 * got.a_bytes_per_us


# 0.1 and 3.3 are means that fmean does not return exactly, which leaves a
# rounding-level slope; 5.0 is one it does
@pytest.mark.parametrize("latency", [0.1, 3.3, 5.0])
def test_fit_maxrate_constant_latency_names_the_class(latency):
    samples = [
        dataclasses.replace(s, latency_us=latency) if s.message_size <= 256 else s
        for s in synth.maxrate_samples(MAXRATE_PRESET)
    ]
    with pytest.raises(FitError, match="small class latency does not grow"):
        fit_maxrate(samples)


def test_cli_and_maxrate_fit_import_neither_numpy_nor_scipy():
    script = (
        "import sys, secmsg.cli\n"
        "from secmsg.benchmarks import LatencySample\n"
        "from secmsg.models import MAXRATE_PRESET, fit_maxrate\n"
        "fit_maxrate([LatencySample(m, k, 0, MAXRATE_PRESET.predict(k, m))\n"
        "             for k in (1, 2, 4) for m in (16, 64, 512, 4096, 32768, 65536)])\n"
        "print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.split() == ["False", "False"]


# -- multipair prediction and overheads ----------------------------------------


def test_predict_multipair_worked_example():
    comm = MULTIPAIR_HOCKNEY_PRESETS["ib"]
    m = 2 * 1024 * 1024
    # hand arithmetic, straight from the calibration constants
    t_enc = 3.44 + (8 * m) / (1502.21 + 7 * 1262.59)
    t_comm = 2.38 + 2.78e-4 * 8 * m
    expected = max(t_enc / 2, t_comm) + t_enc / 2
    got = predict_multipair(comm, MAXRATE_PRESET, 8, m)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(5479.7, abs=1.0)


def test_predict_multipair_without_encryption_cost_is_comm_time():
    comm = MULTIPAIR_HOCKNEY_PRESETS["ib"]
    free = MaxRateClassParams(0.0, 1e15, 0.0)
    zero_enc = MaxRateParams(small=free, moderate=free, large=free)
    m, k = 65536, 4
    got = predict_multipair(comm, zero_enc, k, m)
    p = comm.params_for(m)
    assert got == pytest.approx(p.alpha_us + p.beta_us_per_byte * k * m, rel=1e-6)


def test_predict_multipair_k1_matches_formula():
    comm = MULTIPAIR_HOCKNEY_PRESETS["ethernet"]
    m = 16384
    t_enc = MAXRATE_PRESET.predict(1, m)
    t_comm = comm.predict(m)
    assert predict_multipair(comm, MAXRATE_PRESET, 1, m) == max(t_enc / 2, t_comm) + t_enc / 2


def test_overhead_single_large_discussion_values():
    eth = overhead_single_large(BORINGSSL, MULTIPAIR_HOCKNEY_PRESETS["ethernet"].rendezvous)
    assert eth == pytest.approx(0.8625, abs=1e-4)
    ib = overhead_single_large(BORINGSSL, IB.rendezvous)
    assert ib == pytest.approx(2.2115, abs=1e-3)
    # exactly the ratio of the stored constants
    assert ib == 6.90e-4 / 3.12e-4
    assert overhead_single_large(HockneyParams(1.0, 0.0), IB.rendezvous) == 0.0


def flat_line(beta):
    """A phased communication line with slope beta in both phases."""
    return PhasedHockneyParams(HockneyParams(1.0, beta), HockneyParams(1.0, beta))


def test_overhead_multipair_slow_worked_example():
    ratio, _ = overhead_multipair(flat_line(8e-4), MAXRATE_PRESET, 8, 2 * 1024 * 1024)
    # 1 / (2 * 8e-4 * (1502.21 + 7 * 1262.59))
    assert ratio == pytest.approx(1.0 / (2 * 8e-4 * 10340.34), rel=1e-12)
    assert ratio == pytest.approx(0.0604, abs=1e-4)


def test_overhead_multipair_b_zero_is_k_independent():
    cls = MaxRateClassParams(1.0, 888.5, 0.0)
    enc = MaxRateParams(small=cls, moderate=cls, large=cls)
    r1, _ = overhead_multipair(flat_line(8e-4), enc, 1, 2 * 1024 * 1024)
    r8, _ = overhead_multipair(flat_line(8e-4), enc, 8, 2 * 1024 * 1024)
    assert r1 == r8


def test_overhead_multipair_doubling_beta_halves_overhead():
    a, _ = overhead_multipair(flat_line(4e-4), MAXRATE_PRESET, 4, 2 * 1024 * 1024)
    b, _ = overhead_multipair(flat_line(8e-4), MAXRATE_PRESET, 4, 2 * 1024 * 1024)
    assert a == pytest.approx(2 * b, rel=1e-12)


def test_overhead_multipair_regime_tagging():
    comm = MULTIPAIR_HOCKNEY_PRESETS["ethernet"]  # slow network: comm-dominated
    _, in_regime = overhead_multipair(comm, MAXRATE_PRESET, 8, 2 * 1024 * 1024)
    assert in_regime is True
    fast = PhasedHockneyParams(HockneyParams(0.1, 1e-6), HockneyParams(0.1, 1e-6))
    _, in_regime = overhead_multipair(fast, MAXRATE_PRESET, 1, 2 * 1024 * 1024)
    assert in_regime is False


def test_pipelined_communication_bound_regime():
    # slow network: transmission dominates, overhead vanishes
    m = 2 * 1024 * 1024
    t_comm = ETH.predict(m)
    assert predict_pipelined(ETH, BORINGSSL, m) == t_comm


def test_pipelined_encryption_bound_regime_is_about_120_percent():
    m = 2 * 1024 * 1024
    t_comm = IB.predict(m)
    latency = predict_pipelined(IB, BORINGSSL, m)
    overhead = latency / t_comm - 1.0
    assert 1.15 <= overhead <= 1.25  # the slope ratio 6.90/3.12 minus 1, roughly


def test_pipelined_equal_costs():
    comm = PhasedHockneyParams(HockneyParams(1.0, 1e-4), HockneyParams(1.0, 1e-4))
    enc = HockneyParams(1.0, 1e-4)
    assert predict_pipelined(comm, enc, 5000) == comm.predict(5000)


# -- validation reports ----------------------------------------------------------


def test_validate_identity_has_zero_errors():
    measured = {(1024, 1): 10.0, (65536, 1): 55.0}
    report = validate(measured, dict(measured))
    assert all(e.rel_error == 0.0 for e in report.entries)
    assert report.mape == 0.0


def test_validate_double_prediction_is_error_one():
    measured = {(1024, 1): 10.0, (65536, 2): 55.0}
    predicted = {key: 2 * value for key, value in measured.items()}
    report = validate(measured, predicted)
    assert all(e.rel_error == pytest.approx(1.0) for e in report.entries)


def test_validate_three_key_hand_case():
    measured = {(100, 1): 8.0, (200, 1): 40.0, (200, 2): 10.0}
    predicted = {(100, 1): 10.0, (200, 1): 30.0, (200, 2): 7.0}
    report = validate(measured, predicted)
    # per-key: |8-10|/8 = 0.25, |40-30|/40 = 0.25, |10-7|/10 = 0.3
    by_key = {(e.message_size, e.k_pairs): e.rel_error for e in report.entries}
    assert by_key[(100, 1)] == pytest.approx(0.25)
    assert by_key[(200, 1)] == pytest.approx(0.25)
    assert by_key[(200, 2)] == pytest.approx(0.30)
    assert report.mape_by_size == {
        100: pytest.approx(0.25),
        200: pytest.approx(0.275),
    }
    assert report.mape == pytest.approx((0.25 + 0.25 + 0.30) / 3)


def test_validate_lists_missing_keys_without_failing():
    report = validate({(1, 1): 5.0, (2, 1): 6.0}, {(2, 1): 6.5, (3, 1): 9.0})
    assert report.missing_predictions == [(1, 1)]
    assert report.missing_measurements == [(3, 1)]
    assert len(report.entries) == 1


def test_mean_latency_by_key_groups_samples():
    samples = [
        LatencySample(10, 1, 0, 4.0),
        LatencySample(10, 1, 1, 6.0),
        LatencySample(20, 2, 0, 9.0),
    ]
    assert mean_latency_by_key(samples) == {(10, 1): 5.0, (20, 2): 9.0}


# -- parameter documents -----------------------------------------------------------


def test_parameter_file_round_trip(tmp_path):
    path = str(tmp_path / "params.json")
    ps = PRESETS["ib-pingpong"]
    save_params(path, ps)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc == {
        "hockney": {
            "eager": {"alpha_us": 3.40, "beta_us_per_byte": 3.83e-4},
            "rendezvous": {"alpha_us": 7.17, "beta_us_per_byte": 3.12e-4},
            "threshold_bytes": 131072,
        },
        "encdec": {"alpha_us": 0.53, "beta_us_per_byte": 6.90e-4},
        "maxrate": {
            "small": {"alpha_us": 1.8, "a_bytes_per_us": 888.5, "b_bytes_per_us": 0.0},
            "moderate": {"alpha_us": 2.66, "a_bytes_per_us": 1764.0, "b_bytes_per_us": 4135.0},
            "large": {"alpha_us": 3.44, "a_bytes_per_us": 1502.21, "b_bytes_per_us": 1262.59},
        },
    }
    assert load_params(path) == ps


def test_partial_parameter_documents():
    ps = from_json_dict({"encdec": {"alpha_us": 1.0, "beta_us_per_byte": 2e-4}})
    assert ps.hockney is None and ps.maxrate is None
    assert ps.encdec == HockneyParams(1.0, 2e-4)
    assert to_json_dict(ps) == {"encdec": {"alpha_us": 1.0, "beta_us_per_byte": 2e-4}}


def test_presets_transcribe_calibration_tables():
    assert PINGPONG_HOCKNEY_PRESETS["ethernet"].eager == HockneyParams(32.74, 23.7e-4)
    assert PINGPONG_HOCKNEY_PRESETS["ethernet"].rendezvous == HockneyParams(117.30, 8.63e-4)
    assert PINGPONG_HOCKNEY_PRESETS["ib"].eager == HockneyParams(3.40, 3.83e-4)
    assert PINGPONG_HOCKNEY_PRESETS["ib"].rendezvous == HockneyParams(7.17, 3.12e-4)
    assert MULTIPAIR_HOCKNEY_PRESETS["ethernet"].eager == HockneyParams(3.84, 8.11e-4)
    assert MULTIPAIR_HOCKNEY_PRESETS["ethernet"].rendezvous == HockneyParams(16.35, 8e-4)
    assert MULTIPAIR_HOCKNEY_PRESETS["ib"].eager == HockneyParams(1.02, 2.88e-4)
    assert MULTIPAIR_HOCKNEY_PRESETS["ib"].rendezvous == HockneyParams(2.38, 2.78e-4)
    assert ENCDEC_PRESETS["boringssl"] == HockneyParams(0.53, 6.90e-4)
    assert ENCDEC_PRESETS["libsodium"] == HockneyParams(0.48, 16.3e-4)
    assert ENCDEC_PRESETS["cryptopp-mpich"] == HockneyParams(5.51, 34.8e-4)
    assert ENCDEC_PRESETS["cryptopp-mvapich"] == HockneyParams(5.16, 21.4e-4)
    assert MAXRATE_PRESET.small == MaxRateClassParams(1.8, 888.5, 0.0)
    assert MAXRATE_PRESET.moderate == MaxRateClassParams(2.66, 1764.0, 4135.0)
    assert MAXRATE_PRESET.large == MaxRateClassParams(3.44, 1502.21, 1262.59)
    assert set(PRESETS) == {
        "ethernet-pingpong",
        "ethernet-multipair",
        "ib-pingpong",
        "ib-multipair",
    }
