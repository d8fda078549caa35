"""Latency models for encrypted point-to-point communication.

All models are in µs and bytes.  Two of them are straight lines
``T(m) = alpha + beta * m`` and share one type, ``HockneyParams``:

* the communication line, with separate (alpha, beta) for the eager and
  rendezvous protocol phases (``PhasedHockneyParams``), fitted by
  ordinary least squares on ping-pong measurements;
* the encrypt-then-decrypt line, fitted the same way on encrypt-decrypt
  benchmark measurements.

The third is a multi-worker encryption model
``T(k, m) = alpha + k*m / (A + B*(k-1))`` with separate (alpha, A, B) per
message-size class, fitted by bounded nonlinear least squares with
multiple starting points.

Each parameter type evaluates itself with ``predict``: ``m`` for a line
or a phased line, ``(k, m)`` for the multi-worker model.  The encrypted
single-flow model is the per-phase sum of the communication and
encryption lines, again a ``PhasedHockneyParams``; the windowed
multi-pair model is ``max(T_enc(k,m)/2, T_comm(k,m)) + T_enc(k,m)/2``
where ``T_comm(k, m) = alpha + beta * k * m``.  Large-message overhead
estimators and the pipelined-transfer bound are derived from the same
parameters.

If a straight line fit lands on a negative intercept, the intercept is
pinned to the mean measured 1-byte latency and the slope is refitted
with the intercept held fixed.  Parameter sets round-trip through a JSON
document; four presets transcribing published calibration tables ship
with the module.
"""

from __future__ import annotations

import enum
import json
import statistics
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

import numpy as np

from .benchmarks import LatencySample
from .transport import DEFAULT_THRESHOLD


class FitError(ValueError):
    """The sample set cannot identify the requested parameters."""


class Phase(str, enum.Enum):
    EAGER = "eager"
    RENDEZVOUS = "rendezvous"


class SizeClass(str, enum.Enum):
    SMALL = "small"
    MODERATE = "moderate"
    LARGE = "large"


def phase_for(m: int, threshold: int = DEFAULT_THRESHOLD) -> Phase:
    """Messages below the threshold are eager; at or above, rendezvous."""
    return Phase.EAGER if m < threshold else Phase.RENDEZVOUS


def size_class_for(m: int) -> SizeClass:
    """Small is up to 256 B, large is 32 KiB or more, moderate between."""
    if m <= 256:
        return SizeClass.SMALL
    if m < 32768:
        return SizeClass.MODERATE
    return SizeClass.LARGE


@dataclass(frozen=True)
class HockneyParams:
    """Fixed cost plus per-byte cost: one phase's communication line or the encrypt-decrypt line."""

    alpha_us: float
    beta_us_per_byte: float

    def __post_init__(self) -> None:
        if self.alpha_us < 0 or self.beta_us_per_byte < 0:
            raise ValueError("alpha and beta must be nonnegative")

    def predict(self, m: float) -> float:
        return self.alpha_us + self.beta_us_per_byte * m


@dataclass(frozen=True)
class PhasedHockneyParams:
    """One line per protocol phase, split at ``threshold_bytes``."""

    eager: HockneyParams
    rendezvous: HockneyParams
    threshold_bytes: int = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.threshold_bytes <= 0:
            raise ValueError("threshold must be positive")

    def params_for(self, m: int) -> HockneyParams:
        return self.eager if phase_for(m, self.threshold_bytes) is Phase.EAGER else self.rendezvous

    def predict(self, m: int) -> float:
        return self.params_for(m).predict(m)


@dataclass(frozen=True)
class MaxRateClassParams:
    """One size class of the multi-worker encryption model."""

    alpha_us: float
    a_bytes_per_us: float
    b_bytes_per_us: float

    def __post_init__(self) -> None:
        if self.alpha_us < 0:
            raise ValueError("alpha must be nonnegative")
        if self.a_bytes_per_us <= 0:
            raise ValueError("A must be positive")
        if self.b_bytes_per_us < 0:
            raise ValueError("B must be nonnegative")

    def predict(self, k: int, m: float) -> float:
        rate = self.a_bytes_per_us + self.b_bytes_per_us * (k - 1)
        return self.alpha_us + k * m / rate


@dataclass(frozen=True)
class MaxRateParams:
    small: MaxRateClassParams
    moderate: MaxRateClassParams
    large: MaxRateClassParams

    def class_params(self, m: int) -> MaxRateClassParams:
        return getattr(self, size_class_for(m).value)

    def predict(self, k: int, m: int) -> float:
        """Multi-worker encrypt-decrypt latency with the class chosen by m."""
        return self.class_params(m).predict(k, m)


# -- line fitting -------------------------------------------------------


def _ols_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    xbar = statistics.fmean(xs)
    ybar = statistics.fmean(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    beta = sxy / sxx
    return ybar - beta * xbar, beta


def _slope_with_fixed_intercept(xs: list[float], ys: list[float], alpha: float) -> float:
    sxx = sum(x * x for x in xs)
    sxy = sum(x * (y - alpha) for x, y in zip(xs, ys))
    return sxy / sxx if sxx > 0 else 0.0


def _fit_line(
    samples: list[LatencySample], label: str
) -> tuple[float, float, bool]:
    """OLS on (k*m, latency); returns (alpha, beta, one_byte_fallback_used)."""
    xs = [float(s.k_pairs * s.message_size) for s in samples]
    ys = [s.latency_us for s in samples]
    if len(set(xs)) < 2:
        raise FitError(f"fewer than 2 distinct sizes in the {label} data")
    alpha, beta = _ols_line(xs, ys)
    fallback = False
    if alpha < 0:
        one_byte = [s.latency_us for s in samples if s.message_size == 1]
        if not one_byte:
            raise FitError(
                f"negative intercept in the {label} data and no 1-byte sample to fall back on"
            )
        alpha = statistics.fmean(one_byte)
        beta = _slope_with_fixed_intercept(xs, ys, alpha)
        fallback = True
    if beta < 0:
        # decreasing data has no meaningful slope; best nonnegative line
        beta = 0.0
        if not fallback:
            alpha = statistics.fmean(ys)
    return alpha, beta, fallback


@dataclass(frozen=True)
class HockneyFitReport:
    params: PhasedHockneyParams
    fallback_phases: frozenset[Phase]


def fit_hockney(
    samples: Iterable[LatencySample], threshold: int = DEFAULT_THRESHOLD
) -> HockneyFitReport:
    """Least-squares fit of both protocol phases, with fit diagnostics.

    The regressor is ``k * m`` so the same routine fits single-pair
    ping-pong data (k == 1) and multi-pair aggregate data.  The phase of
    a sample is decided by its message size alone.
    """
    by_phase: dict[Phase, list[LatencySample]] = {Phase.EAGER: [], Phase.RENDEZVOUS: []}
    for s in samples:
        by_phase[phase_for(s.message_size, threshold)].append(s)
    fitted: dict[Phase, HockneyParams] = {}
    fallbacks = set()
    for phase, phase_samples in by_phase.items():
        alpha, beta, used_fallback = _fit_line(phase_samples, f"{phase.value} phase")
        fitted[phase] = HockneyParams(alpha, beta)
        if used_fallback:
            fallbacks.add(phase)
    params = PhasedHockneyParams(
        eager=fitted[Phase.EAGER],
        rendezvous=fitted[Phase.RENDEZVOUS],
        threshold_bytes=threshold,
    )
    return HockneyFitReport(params=params, fallback_phases=frozenset(fallbacks))


@dataclass(frozen=True)
class EncDecFitReport:
    params: HockneyParams
    fallback: bool


def fit_encdec_line(samples: Iterable[LatencySample]) -> EncDecFitReport:
    """Single-line least squares on encrypt-decrypt latency over size."""
    alpha, beta, fallback = _fit_line(list(samples), "encrypt-decrypt")
    return EncDecFitReport(params=HockneyParams(alpha, beta), fallback=fallback)


# -- composition and evaluation -----------------------------------------


def compose_enhanced(comm: PhasedHockneyParams, enc: HockneyParams) -> PhasedHockneyParams:
    """Per-phase exact sums of the communication and encryption lines."""
    return PhasedHockneyParams(
        eager=HockneyParams(
            comm.eager.alpha_us + enc.alpha_us,
            comm.eager.beta_us_per_byte + enc.beta_us_per_byte,
        ),
        rendezvous=HockneyParams(
            comm.rendezvous.alpha_us + enc.alpha_us,
            comm.rendezvous.beta_us_per_byte + enc.beta_us_per_byte,
        ),
        threshold_bytes=comm.threshold_bytes,
    )


def _window_times(
    comm: PhasedHockneyParams, enc: MaxRateParams, k: int, m: int
) -> tuple[float, float]:
    """(T_comm, T_enc) of k concurrent pairs, T_comm = alpha + beta * k * m."""
    p = comm.params_for(m)
    return p.alpha_us + p.beta_us_per_byte * k * m, enc.predict(k, m)


def predict_multipair(
    comm: PhasedHockneyParams, enc: MaxRateParams, k: int, m: int
) -> float:
    """Per-window latency of k concurrent encrypted pair flows.

    Encryption of one window half-overlaps with transmission, so the
    window costs max(T_enc/2, T_comm) plus the trailing T_enc/2 of
    decryption.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m <= 0:
        raise ValueError("message size must be positive")
    t_comm, t_enc = _window_times(comm, enc, k, m)
    return max(t_enc / 2.0, t_comm) + t_enc / 2.0


def overhead_single_large(enc: HockneyParams, comm: HockneyParams) -> float:
    """Large-message single-flow overhead: the ratio of the two slopes."""
    if comm.beta_us_per_byte <= 0:
        raise ValueError("communication slope must be positive")
    return enc.beta_us_per_byte / comm.beta_us_per_byte


def overhead_multipair(
    comm: PhasedHockneyParams, enc: MaxRateParams, k: int, m: int
) -> tuple[float, bool]:
    """Multi-pair overhead 1 / (2 * beta * (A + (k-1) * B)) at size m.

    beta is the slope of m's phase and (A, B) the rates of m's class.
    Returns the ratio and whether (k, m) is in the regime where it holds,
    i.e. communication dominates: T_comm(k, m) >= T_enc(k, m)/2.
    """
    beta = comm.params_for(m).beta_us_per_byte
    if beta <= 0:
        raise ValueError("communication slope must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    cls = enc.class_params(m)
    rate = cls.a_bytes_per_us + (k - 1) * cls.b_bytes_per_us
    t_comm, t_enc = _window_times(comm, enc, k, m)
    return 1.0 / (2.0 * beta * rate), t_comm >= t_enc / 2.0


def predict_pipelined(
    comm: PhasedHockneyParams | HockneyParams, enc: HockneyParams, m: int
) -> float:
    """Latency bound when encryption is pipelined with transmission."""
    if m <= 0:
        raise ValueError("message size must be positive")
    return max(comm.predict(m), enc.predict(m))


# -- nonlinear max-rate fit ----------------------------------------------


def _maxrate_starts(ks: np.ndarray, ms: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
    ymin = float(ys.min())
    alphas = [0.0, 0.5 * ymin, ymin]
    spread = ys - min(0.9 * ymin, ymin - 1e-9)
    rates = (ks * ms) / np.maximum(spread, 1e-12)
    lo, hi = max(float(rates.min()) / 4.0, 1e-6), float(rates.max()) * 4.0
    a_grid = np.geomspace(lo, hi, 6)
    starts = []
    for alpha in alphas:
        for a in a_grid:
            for b_factor in (0.0, 0.25, 1.0, 4.0):
                starts.append(np.array([alpha, a, a * b_factor]))
    return starts


def _fit_maxrate_class(
    data: list[tuple[int, int, float]], label: str
) -> MaxRateClassParams:
    from scipy.optimize import least_squares

    ks = np.array([d[0] for d in data], dtype=float)
    ms = np.array([d[1] for d in data], dtype=float)
    ys = np.array([d[2] for d in data], dtype=float)
    if len(set(ks)) < 2 or len(set(ms)) < 2:
        raise FitError(
            f"{label} class needs at least 2 distinct worker counts and 2 distinct sizes"
        )

    def residuals(p: np.ndarray) -> np.ndarray:
        alpha, a, b = p
        return alpha + ks * ms / (a + b * (ks - 1.0)) - ys

    lower = np.array([0.0, 1e-9, 0.0])
    upper = np.array([np.inf, np.inf, np.inf])
    best = None
    for start in _maxrate_starts(ks, ms, ys):
        x0 = np.clip(start, lower, upper)
        try:
            sol = least_squares(
                residuals,
                x0,
                bounds=(lower, upper),
                method="trf",
                xtol=1e-13,
                ftol=1e-13,
                gtol=1e-13,
                max_nfev=2000,
            )
        except Exception:
            continue
        if best is None or sol.cost < best.cost:
            best = sol
    if best is None:
        raise FitError(f"{label} class fit did not converge from any starting point")
    alpha, a, b = (float(v) for v in best.x)
    return MaxRateClassParams(alpha_us=alpha, a_bytes_per_us=a, b_bytes_per_us=b)


def fit_maxrate(samples: Iterable[LatencySample]) -> MaxRateParams:
    """Fit (alpha, A, B) per size class by bounded least squares.

    Samples carry the worker count in ``k_pairs``.  Every class must be
    covered with at least two distinct worker counts and two distinct
    sizes, otherwise the deficient class is named in the error.
    """
    grouped: dict[SizeClass, list[tuple[int, int, float]]] = {c: [] for c in SizeClass}
    for s in samples:
        grouped[size_class_for(s.message_size)].append(
            (s.k_pairs, s.message_size, s.latency_us)
        )
    fitted = {}
    for cls in SizeClass:
        if not grouped[cls]:
            raise FitError(f"no samples in the {cls.value} class")
        fitted[cls] = _fit_maxrate_class(grouped[cls], cls.value)
    return MaxRateParams(
        small=fitted[SizeClass.SMALL],
        moderate=fitted[SizeClass.MODERATE],
        large=fitted[SizeClass.LARGE],
    )


# -- measured-versus-predicted reports ------------------------------------


@dataclass(frozen=True)
class PredictionEntry:
    message_size: int
    k_pairs: int
    predicted_us: float
    measured_us: float

    @property
    def rel_error(self) -> float:
        return abs(self.measured_us - self.predicted_us) / self.measured_us


@dataclass(frozen=True)
class PredictionReport:
    entries: list[PredictionEntry]
    missing_predictions: list[tuple[int, int]]
    missing_measurements: list[tuple[int, int]]

    @property
    def mape_by_size(self) -> dict[int, float]:
        per_size: dict[int, list[float]] = {}
        for e in self.entries:
            per_size.setdefault(e.message_size, []).append(e.rel_error)
        return {size: statistics.fmean(errs) for size, errs in sorted(per_size.items())}

    @property
    def mape(self) -> float:
        return statistics.fmean(e.rel_error for e in self.entries)


def mean_latency_by_key(samples: Iterable[LatencySample]) -> dict[tuple[int, int], float]:
    grouped: dict[tuple[int, int], list[float]] = {}
    for s in samples:
        grouped.setdefault((s.message_size, s.k_pairs), []).append(s.latency_us)
    return {key: statistics.fmean(vals) for key, vals in grouped.items()}


def validate(
    measured: Mapping[tuple[int, int], float],
    predicted: Mapping[tuple[int, int], float],
) -> PredictionReport:
    """Relative error per (size, k) key plus per-size mean absolute error.

    Keys present on only one side are listed, not fatal.
    """
    entries = []
    for key in sorted(set(measured) & set(predicted)):
        size, k = key
        entries.append(
            PredictionEntry(
                message_size=size,
                k_pairs=k,
                predicted_us=predicted[key],
                measured_us=measured[key],
            )
        )
    return PredictionReport(
        entries=entries,
        missing_predictions=sorted(set(measured) - set(predicted)),
        missing_measurements=sorted(set(predicted) - set(measured)),
    )


# -- parameter documents and presets --------------------------------------


@dataclass(frozen=True)
class ParameterSet:
    """The sections of one parameter document; any section may be absent."""

    hockney: PhasedHockneyParams | None = None
    encdec: HockneyParams | None = None
    maxrate: MaxRateParams | None = None


def to_json_dict(ps: ParameterSet) -> dict:
    return {name: section for name, section in asdict(ps).items() if section is not None}


def from_json_dict(doc: Mapping) -> ParameterSet:
    hockney = None
    if "hockney" in doc:
        h = doc["hockney"]
        hockney = PhasedHockneyParams(
            eager=HockneyParams(**h["eager"]),
            rendezvous=HockneyParams(**h["rendezvous"]),
            threshold_bytes=int(h.get("threshold_bytes", DEFAULT_THRESHOLD)),
        )
    encdec = HockneyParams(**doc["encdec"]) if "encdec" in doc else None
    maxrate = None
    if "maxrate" in doc:
        mr = doc["maxrate"]
        maxrate = MaxRateParams(
            small=MaxRateClassParams(**mr["small"]),
            moderate=MaxRateClassParams(**mr["moderate"]),
            large=MaxRateClassParams(**mr["large"]),
        )
    return ParameterSet(hockney=hockney, encdec=encdec, maxrate=maxrate)


def save_params(path: str, ps: ParameterSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(ps), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path: str) -> ParameterSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_json_dict(json.load(fh))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"{path}: bad parameter set ({type(exc).__name__}: {exc})") from exc


# Calibration presets.  Ping-pong flavors carry the blocking single-pair
# communication lines; multipair flavors carry the non-blocking
# concurrent-pair lines.  All bundle the BoringSSL encrypt-decrypt line
# and the BoringSSL multi-worker surface; other encrypt-decrypt lines
# are available in ENCDEC_PRESETS.

ENCDEC_PRESETS: dict[str, HockneyParams] = {
    "boringssl": HockneyParams(0.53, 6.90e-4),
    "libsodium": HockneyParams(0.48, 16.3e-4),
    "cryptopp-mpich": HockneyParams(5.51, 34.8e-4),
    "cryptopp-mvapich": HockneyParams(5.16, 21.4e-4),
}

PINGPONG_HOCKNEY_PRESETS: dict[str, PhasedHockneyParams] = {
    "ethernet": PhasedHockneyParams(
        eager=HockneyParams(32.74, 23.7e-4),
        rendezvous=HockneyParams(117.30, 8.63e-4),
    ),
    "ib": PhasedHockneyParams(
        eager=HockneyParams(3.40, 3.83e-4),
        rendezvous=HockneyParams(7.17, 3.12e-4),
    ),
}

MULTIPAIR_HOCKNEY_PRESETS: dict[str, PhasedHockneyParams] = {
    "ethernet": PhasedHockneyParams(
        eager=HockneyParams(3.84, 8.11e-4),
        rendezvous=HockneyParams(16.35, 8e-4),
    ),
    "ib": PhasedHockneyParams(
        eager=HockneyParams(1.02, 2.88e-4),
        rendezvous=HockneyParams(2.38, 2.78e-4),
    ),
}

MAXRATE_PRESET: MaxRateParams = MaxRateParams(
    small=MaxRateClassParams(1.8, 888.5, 0.0),
    moderate=MaxRateClassParams(2.66, 1764.0, 4135.0),
    large=MaxRateClassParams(3.44, 1502.21, 1262.59),
)

PRESETS: dict[str, ParameterSet] = {
    f"{net}-{flavor}": ParameterSet(
        hockney=lines[net], encdec=ENCDEC_PRESETS["boringssl"], maxrate=MAXRATE_PRESET
    )
    for flavor, lines in (("pingpong", PINGPONG_HOCKNEY_PRESETS), ("multipair", MULTIPAIR_HOCKNEY_PRESETS))
    for net in ("ethernet", "ib")
}
