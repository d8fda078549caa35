"""Command-line front end: run benchmarks, fit models, predict, validate.

Exit codes: 0 success, 1 usage or malformed input, 2 transport or runtime
failure, 3 integrity failure.  The env var SECMSG_KEY overrides --key.
Summaries are plain text on stdout; machine output is CSV/JSON files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from functools import partial
from typing import Callable

from . import benchmarks, models
from .aead import DEFAULT_BACKEND, IntegrityError, ProviderError, SecretKey, available_backends, create_provider
from .benchmarks import (
    BenchmarkResult,
    ENCDEC_ITERATIONS,
    LatencySample,
    MULTIPAIR_ITERATIONS,
    MULTIPAIR_WINDOW,
    COLLECTIVE_ITERATIONS,
    StopPolicy,
    read_samples_csv,
    write_samples_csv,
)
from .models import (
    ENCDEC_PRESETS,
    PRESETS,
    ParameterSet,
    compose_enhanced,
    load_params,
    phase_for,
    save_params,
    size_class_for,
)
from .transport import DEFAULT_THRESHOLD, ProcessGroup, TransportError, read_roster

DEFAULT_KEY = bytes(range(32))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_INTEGRITY = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on exit code 1
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")
    if not values or any(v < 0 for v in values):
        raise UsageError(f"expected nonnegative integers, got {text!r}")
    return values


def _resolve_key(args) -> SecretKey:
    text = os.environ.get("SECMSG_KEY") or getattr(args, "key", None)
    if not text:
        return SecretKey(DEFAULT_KEY)
    return SecretKey.from_hex(text)


def _stop_policy(args, *, min_runs: int | None = None) -> StopPolicy:
    base = StopPolicy()
    resolved_min = args.min_runs if args.min_runs is not None else (min_runs or base.min_runs)
    budget = args.budget if args.budget is not None else base.hard_budget
    if args.max_runs is not None:
        max_runs = args.max_runs
    else:
        # only the budget was lowered: shrink phase 1 to fit inside it
        max_runs = min(base.max_runs_phase1, budget)
    return StopPolicy(
        min_runs=min(resolved_min, max_runs),
        max_runs_phase1=max_runs,
        cv_target=args.cv if args.cv is not None else base.cv_target,
        hard_budget=budget,
    )


def _resolve_preset(name: str, flavor: str) -> ParameterSet:
    if name in PRESETS:
        return PRESETS[name]
    if name in ("ethernet", "ib"):
        return PRESETS[f"{name}-{flavor}"]
    known = ", ".join(sorted(PRESETS) + ["ethernet", "ib"])
    raise UsageError(f"unknown preset {name!r} (have: {known})")


def _load_parameter_set(args, flavor: str) -> ParameterSet:
    if getattr(args, "params", None):
        ps = load_params(args.params)
    elif getattr(args, "preset", None):
        ps = _resolve_preset(args.preset, flavor)
    else:
        raise UsageError("either --params or --preset is required")
    enc_name = getattr(args, "enc", None)
    if enc_name:
        if enc_name not in ENCDEC_PRESETS:
            raise UsageError(
                f"unknown encrypt-decrypt preset {enc_name!r} "
                f"(have: {', '.join(sorted(ENCDEC_PRESETS))})"
            )
        ps = dataclasses.replace(ps, encdec=ENCDEC_PRESETS[enc_name])
    return ps


# -- bench ----------------------------------------------------------------


def _summary_header() -> str:
    return (
        f"{'size_bytes':>10} {'k':>3} {'runs':>5} {'mean_us':>12} "
        f"{'stddev_us':>11} {'MB_per_s':>10} {'stop':>10}"
    )


def _summary_line(size: int, k: int, res: BenchmarkResult, mbps: float | None) -> str:
    mbps_text = f"{mbps:10.2f}" if mbps is not None else f"{'-':>10}"
    return (
        f"{size:>10} {k:>3} {res.run_count:>5} {res.mean:>12.3f} "
        f"{res.stddev:>11.3f} {mbps_text} {res.stop_reason.value:>10}"
    )


def _open_group(args, *, encrypted: bool) -> ProcessGroup:
    if not args.roster or args.rank is None:
        raise UsageError("this benchmark needs --roster and --rank")
    try:
        roster = read_roster(args.roster)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad roster: {exc}")
    provider = None
    if encrypted:
        provider = create_provider(args.backend, _resolve_key(args))
    return ProcessGroup(
        args.rank, roster, provider=provider, threshold=args.threshold
    )


def _scaled(count: int, args) -> int:
    return max(1, round(count * args.scale))


def _traffic(args) -> dict:
    return {"encrypted": not args.plaintext, "payload_seed": args.seed}


def _encdec_points(args, g):
    iterations = _scaled(ENCDEC_ITERATIONS, args)
    key = _resolve_key(args).data
    for size in args.sizes:
        for k in args.threads:
            measure = partial(
                benchmarks.encdec_bench, size, iterations,
                threads=k, backend=args.backend, key=key, payload_seed=args.seed,
            )
            yield size, k, measure, 1


def _pingpong_points(args, g):
    for size in args.sizes:
        rounds = benchmarks.default_pingpong_rounds(size, args.scale)
        yield size, 1, partial(benchmarks.pingpong, g, size, rounds, **_traffic(args)), 1


def _multipair_points(args, g):
    iterations = _scaled(MULTIPAIR_ITERATIONS, args)
    for size in args.sizes:
        for k in args.pairs:
            # one sample is a window of MULTIPAIR_WINDOW messages on each of k pairs
            measure = partial(benchmarks.multipair, g, k, size, iterations, **_traffic(args))
            yield size, k, measure, MULTIPAIR_WINDOW * k


def _collective_points(args, g):
    iterations = _scaled(COLLECTIVE_ITERATIONS, args)
    for size in args.sizes:
        measure = partial(benchmarks.collective_bench, g, args.op, size, iterations, **_traffic(args))
        yield size, g.size, measure, 1


# kind -> generator of (size, k, measure, throughput multiplier), one per
# point in sweep order; encdec runs on this host alone, so its group is None
BENCH_POINTS = {
    "pingpong": _pingpong_points,
    "multipair": _multipair_points,
    "encdec": _encdec_points,
    "collective": _collective_points,
}


def cmd_bench(args) -> int:
    if not 0 < args.scale < math.inf:
        raise UsageError(f"--scale must be a positive number, got {args.scale}")
    local = args.kind == "encdec"
    policy = _stop_policy(args, min_runs=benchmarks.ENCDEC_STOP_POLICY.min_runs if local else None)
    group = contextlib.nullcontext() if local else _open_group(args, encrypted=not args.plaintext)
    collected: list[LatencySample] = []
    lines: list[str] = []
    with group as g:
        reporting = local or g.rank == 0
        for size, k, measure, multiplier in BENCH_POINTS[args.kind](args, g):
            res = benchmarks.run_until_stable(measure, policy, group=g, message_size=size, k_pairs=k)
            if reporting and res is not None:
                collected.extend(res.samples)
                mbps = benchmarks.throughput(size, res.mean) * multiplier if size > 0 else None
                lines.append(_summary_line(size, k, res, mbps))
    if not reporting:
        return EXIT_OK
    if args.out:
        write_samples_csv(args.out, collected)
        print(f"wrote {len(collected)} samples to {args.out}")
    print(_summary_header())
    for line in lines:
        print(line)
    return EXIT_OK


# -- fit -------------------------------------------------------------------


def _print_line_table(rows: list[tuple[str, float, float]]) -> None:
    print(f"{'':<14} {'alpha_us':>10} {'beta_us_per_byte':>18}")
    for label, alpha, beta in rows:
        print(f"{label:<14} {alpha:>10.4f} {beta:>18.6e}")


def cmd_fit(args) -> int:
    samples = read_samples_csv(args.input)
    if args.model == "hockney":
        report = models.fit_hockney(samples, args.threshold)
        p = report.params
        _print_line_table(
            [
                ("eager", p.eager.alpha_us, p.eager.beta_us_per_byte),
                ("rendezvous", p.rendezvous.alpha_us, p.rendezvous.beta_us_per_byte),
            ]
        )
        print(f"threshold_bytes {p.threshold_bytes}")
        for phase in sorted(f.value for f in report.fallback_phases):
            print(f"note: negative intercept in the {phase} phase; "
                  f"1-byte fallback applied")
        ps = ParameterSet(hockney=p)
    elif args.model == "encdec":
        report = models.fit_encdec_line(samples)
        p = report.params
        _print_line_table([("encdec", p.alpha_us, p.beta_us_per_byte)])
        if report.fallback:
            print("note: negative intercept; 1-byte fallback applied")
        ps = ParameterSet(encdec=p)
    else:  # maxrate
        mr = models.fit_maxrate(samples)
        print(f"{'class':<10} {'alpha_us':>10} {'A_B_per_us':>12} {'B_B_per_us':>12}")
        for label, c in (("small", mr.small), ("moderate", mr.moderate), ("large", mr.large)):
            print(
                f"{label:<10} {c.alpha_us:>10.4f} {c.a_bytes_per_us:>12.4f} "
                f"{c.b_bytes_per_us:>12.4f}"
            )
        ps = ParameterSet(maxrate=mr)
    if args.out:
        save_params(args.out, ps)
        print(f"wrote parameters to {args.out}")
    return EXIT_OK


# -- predict ----------------------------------------------------------------


def _point_model(mode: str, ps: ParameterSet, plaintext: bool) -> tuple[Callable[[int, int], float], bool]:
    """The (size, k) -> µs model of a single or multipair point, and whether it encrypts."""
    if mode == "single":
        if ps.hockney is None:
            raise UsageError("single mode needs a hockney section")
        if ps.encdec is None or plaintext:
            return lambda size, k: ps.hockney.predict(size), False
        enhanced = compose_enhanced(ps.hockney, ps.encdec)
        return lambda size, k: enhanced.predict(size), True
    if plaintext:
        raise UsageError("multipair mode models encrypted pairs only; drop --plaintext")
    if ps.hockney is None or ps.maxrate is None:
        raise UsageError("multipair mode needs hockney and maxrate sections")
    return lambda size, k: models.predict_multipair(ps.hockney, ps.maxrate, k, size), True


def cmd_predict(args) -> int:
    multipair = args.mode == "multipair" or (args.mode == "overhead" and args.pairs is not None)
    ps = _load_parameter_set(args, "multipair" if multipair else "pingpong")
    if args.size is not None and args.size < 0:
        raise UsageError("--size must be nonnegative")
    if args.pairs is not None and args.pairs < 1:
        raise UsageError("--pairs must be at least 1")

    if args.mode == "single":
        predict, encrypted = _point_model("single", ps, args.plaintext)
        if args.size is None:
            raise UsageError("single prediction needs --size")
        latency = predict(args.size, 1)
        phase = phase_for(args.size, ps.hockney.threshold_bytes).value
        print(f"mode single ({'encrypted' if encrypted else 'plaintext'}), size {args.size} B, phase {phase}")
        print(f"predicted latency: {latency:.3f} us")
        if args.size > 0:
            print(f"predicted throughput: {benchmarks.throughput(args.size, latency):.3f} MB/s")
    elif args.mode == "multipair":
        predict, _ = _point_model("multipair", ps, args.plaintext)
        if args.size is None or args.pairs is None:
            raise UsageError("multipair prediction needs --size and --pairs")
        k = args.pairs
        latency = predict(args.size, k)
        phase = phase_for(args.size, ps.hockney.threshold_bytes).value
        cls = size_class_for(args.size).value
        print(f"mode multipair, k {k}, size {args.size} B, phase {phase}, class {cls}")
        print(f"predicted window latency: {latency:.3f} us")
        print(
            f"predicted aggregate throughput: "
            f"{benchmarks.throughput(args.size, latency) * k:.3f} MB/s"
        )
    elif args.mode == "pipelined":
        if ps.hockney is None or ps.encdec is None:
            raise UsageError("pipelined prediction needs hockney and encdec sections")
        if args.size is None:
            raise UsageError("pipelined prediction needs --size")
        latency = models.predict_pipelined(ps.hockney, ps.encdec, args.size)
        overhead = latency / ps.hockney.predict(args.size) - 1.0
        phase = phase_for(args.size, ps.hockney.threshold_bytes).value
        print(f"mode pipelined, size {args.size} B, phase {phase}")
        print(f"predicted latency: {latency:.3f} us")
        print(f"predicted throughput: {benchmarks.throughput(args.size, latency):.3f} MB/s")
        print(f"overhead versus plaintext: {overhead * 100.0:.1f}%")
    else:  # overhead
        if args.pairs is not None:
            if ps.hockney is None or ps.maxrate is None:
                raise UsageError("multipair overhead needs hockney and maxrate sections")
            k = args.pairs
            size = args.size if args.size is not None else 2 * 1024 * 1024
            ratio, in_regime = models.overhead_multipair(ps.hockney, ps.maxrate, k, size)
            tag = "" if in_regime else " (out of regime: encryption-bound)"
            print(
                f"mode overhead (multipair), k {k}, class {size_class_for(size).value}"
            )
            print(f"predicted overhead: {ratio * 100.0:.2f}%{tag}")
        else:
            if ps.hockney is None or ps.encdec is None:
                raise UsageError("single-flow overhead needs hockney and encdec sections")
            ratio = models.overhead_single_large(ps.encdec, ps.hockney.rendezvous)
            print("mode overhead (single flow, large messages, rendezvous phase)")
            print(f"predicted overhead: {ratio * 100.0:.0f}%")
    return EXIT_OK


# -- validate -----------------------------------------------------------------


def cmd_validate(args) -> int:
    samples = read_samples_csv(args.measured)
    flavor = "multipair" if args.mode == "multipair" else "pingpong"
    ps = _load_parameter_set(args, flavor)
    measured = models.mean_latency_by_key(samples)
    predict, _ = _point_model(args.mode, ps, args.plaintext)
    # the multipair model needs a positive size; a 0-byte point is
    # reported as having no prediction
    predicted = {
        (size, k): predict(size, k)
        for size, k in measured
        if size > 0 or args.mode == "single"
    }

    report = models.validate(measured, predicted)
    print(f"{'size_bytes':>10} {'k':>3} {'predicted_us':>13} {'measured_us':>13} {'rel_error':>10}")
    for e in report.entries:
        print(
            f"{e.message_size:>10} {e.k_pairs:>3} {e.predicted_us:>13.3f} "
            f"{e.measured_us:>13.3f} {e.rel_error:>10.4f}"
        )
    for size, mape in report.mape_by_size.items():
        print(f"MAPE size {size}: {mape:.4f}")
    if report.entries:
        print(f"MAPE overall: {report.mape:.4f}")
    for key in report.missing_predictions:
        print(f"warning: no prediction for (size={key[0]}, k={key[1]})", file=sys.stderr)
    for key in report.missing_measurements:
        print(f"warning: no measurement for (size={key[0]}, k={key[1]})", file=sys.stderr)
    if args.out:
        import csv as _csv

        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["size_bytes", "k_pairs", "predicted_us", "measured_us", "rel_error"])
            for e in report.entries:
                writer.writerow(
                    [e.message_size, e.k_pairs, repr(e.predicted_us), repr(e.measured_us), repr(e.rel_error)]
                )
        print(f"wrote report to {args.out}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secmsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a benchmark and write samples CSV")
    bench.add_argument("kind", choices=list(BENCH_POINTS))
    bench.add_argument("--roster", help="roster file of 'rank host port' lines")
    bench.add_argument("--rank", type=int, help="this process's rank")
    bench.add_argument("--backend", default=DEFAULT_BACKEND, choices=available_backends())
    bench.add_argument("--key", help="hex AEAD key (env SECMSG_KEY overrides)")
    bench.add_argument("--sizes", type=_int_list, default=[1024], help="comma list of bytes")
    bench.add_argument("--pairs", type=_int_list, default=[1], help="comma list of pair counts")
    bench.add_argument("--threads", type=_int_list, default=[1], help="comma list of worker process counts")
    bench.add_argument("--op", default="alltoall", choices=list(benchmarks.COLLECTIVE_OPS))
    bench.add_argument("--scale", type=float, default=1.0, help="iteration-count multiplier")
    bench.add_argument("--seed", type=int, default=None, help="payload generator seed")
    bench.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD, help="eager/rendezvous split, bytes")
    bench.add_argument("--plaintext", action="store_true", help="run without encryption")
    bench.add_argument("--out", help="samples CSV path (rank 0 only)")
    bench.add_argument("--min-runs", type=int, default=None)
    bench.add_argument("--max-runs", type=int, default=None)
    bench.add_argument("--cv", type=float, default=None, help="stop when stddev <= cv * mean")
    bench.add_argument("--budget", type=int, default=None, help="hard cap on runs")
    bench.set_defaults(func=cmd_bench)

    fit = sub.add_parser("fit", help="fit model parameters from a samples CSV")
    fit.add_argument("model", choices=["hockney", "encdec", "maxrate"])
    fit.add_argument("--input", required=True, help="samples CSV from 'bench'")
    fit.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)
    fit.add_argument("--out", help="parameter JSON path")
    fit.set_defaults(func=cmd_fit)

    predict = sub.add_parser("predict", help="evaluate the models at a point")
    predict.add_argument("--mode", required=True, choices=["single", "multipair", "pipelined", "overhead"])
    predict.add_argument("--params", help="parameter JSON from 'fit'")
    predict.add_argument("--preset", help=f"bundled preset ({', '.join(sorted(PRESETS))}; 'ethernet'/'ib' pick by mode)")
    predict.add_argument("--enc", help=f"encrypt-decrypt preset ({', '.join(sorted(ENCDEC_PRESETS))})")
    predict.add_argument("--size", type=int, default=None, help="message bytes")
    predict.add_argument("--pairs", type=int, default=None, help="pair count")
    predict.add_argument("--plaintext", action="store_true", help="predict without encryption cost")
    predict.set_defaults(func=cmd_predict)

    validate = sub.add_parser("validate", help="compare measurements against predictions")
    validate.add_argument("--measured", required=True, help="samples CSV from 'bench'")
    validate.add_argument("--mode", required=True, choices=["single", "multipair"])
    validate.add_argument("--params", help="parameter JSON from 'fit'")
    validate.add_argument("--preset", help="bundled preset name")
    validate.add_argument("--enc", help="encrypt-decrypt preset override")
    validate.add_argument("--plaintext", action="store_true", help="measurements are unencrypted")
    validate.add_argument("--out", help="report CSV path")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # UsageError, FitError and bad model inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (TransportError, ProviderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
