"""Command-line harness.

Subcommands: simulate, pcf, alpha-table, boot-var, moments, ci-band,
coverage, variance-comparison, ci-suite.  Exit codes: 0 success, else the
raised error's ``exit_code``: 2 configuration/parameter, 3 numerical, 4 data.

All randomized commands take ``--seed``; identical arguments and seed
produce byte-identical output files for any ``--threads`` value.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .bootstrap import (SCHEMES, _limit_from_sums, alpha_coefficients, bootstrap_statistics,
                        variance_with_error)
from .errors import ConfigError, ParameterError, PpbootError
from .experiments import (
    midpoint_grid,
    parse_f_spec,
    parse_lambda_spec,
    run_ci_suite,
    run_variance_comparison,
)
from .geometry import simulate_homogeneous_poisson, simulate_inhomogeneous_poisson
from .intensity import _MC_DRAWS, confidence_band, coverage_experiment
from .moments import _MC_SAMPLES, s_moments_poisson
from .patternio import ingest_pattern, parse_window, read_window, write_pattern
from .rng import RngSeed
from .twopoint import _KERNELS, KernelFunction, distinct_index_sums, estimate_product_density

_CLI_METHODS = {"mc": "bootstrap_mc", "closed": "bootstrap_closed_form", "exact": "exact_poisson"}
# ci-band and coverage take a short name or any full method name, which the library checks
_METHOD_OPTION = {"type": lambda m: _CLI_METHODS.get(m, m), "required": True,
                  "help": "mc, closed, exact, or a full method name (e.g. oracle_true_t)"}


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: str | None, columns: dict) -> None:
    """A CSV table from {header: column}, one row per column entry."""
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=0, help="base RNG seed (u64)")
    p.add_argument("--threads", type=int, default=1, help="worker threads (results identical)")
    p.add_argument("--out", type=str, default=None, help="output path (stdout if omitted)")


def _cmd_simulate(args) -> int:
    seed = RngSeed(args.seed)
    if (args.intensity is None) == (args.lambda_spec is None):
        raise ConfigError("simulate needs exactly one of --lambda or --lambda-spec")
    if args.out is None:
        raise ConfigError("simulate needs --out to name the pattern CSV")
    window = read_window(args.window)
    if args.intensity is not None:
        pattern = simulate_homogeneous_poisson(args.intensity, window, seed)
    else:
        intensity = parse_lambda_spec(args.lambda_spec, window)
        pattern = simulate_inhomogeneous_poisson(intensity, window, seed)
    write_pattern(pattern, args.out)
    sys.stderr.write(f"wrote {pattern.n} points to {args.out}\n")
    return 0


def _cmd_pcf(args) -> int:
    pattern = ingest_pattern(args.input, args.window)
    kernel = KernelFunction(args.kernel, args.bandwidth)
    if args.rmin <= 0 or args.rmax <= args.rmin or args.rsteps < 1:
        raise ConfigError("need 0 < rmin < rmax and rsteps >= 1")
    r_grid = np.linspace(args.rmin, args.rmax, args.rsteps)
    table = estimate_product_density(pattern, r_grid, kernel)
    _write_csv(args.out, {"r": table[:, 0], "rho_hat": table[:, 1]})
    return 0


def _cmd_alpha_table(args) -> int:
    if args.nmin < 1 or args.nmax < args.nmin:
        raise ConfigError("need 1 <= nmin <= nmax")
    ns = range(args.nmin, args.nmax + 1)
    a2, a3, a4 = zip(*(astuple(alpha_coefficients(n, args.scheme)) for n in ns))
    _write_csv(args.out, {"n": ns, "alpha2": a2, "alpha3": a3, "alpha4": a4})
    return 0


def _cmd_boot_var(args) -> int:
    pattern = ingest_pattern(args.input, args.window)
    f = parse_f_spec(args.f_spec, pattern.window)
    sums = distinct_index_sums(pattern, f)
    doc = {
        "n": pattern.n,
        "scheme": args.scheme,
        "seed": args.seed,
        "theta_hat": sums.P,
        "limit_closed_form": float(_limit_from_sums(sums, pattern.n, args.scheme)[0]),
    }
    if args.n_resamples is not None:
        stats = bootstrap_statistics(pattern, f, args.n_resamples, args.scheme,
                                     RngSeed(args.seed), threads=args.threads)
        v_n, v_n_err = variance_with_error(stats)
        doc.update({"N": args.n_resamples, "v_star_N": v_n, "v_star_N_err": v_n_err})
    _write_text(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_moments(args) -> int:
    window = read_window(args.window)
    f = parse_f_spec(args.f_spec, window)
    m = s_moments_poisson(args.intensity, window, f, args.samples, RngSeed(args.seed),
                          args.threads)
    doc = {"s2": m.s2, "s3": m.s3, "s4": m.s4, "e_theta": m.e_theta,
           "lambda": args.intensity, "f_spec": args.f_spec, "method": "monte_carlo",
           "errors": dict(m.errors)}
    _write_text(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_ci_band(args) -> int:
    pattern = ingest_pattern(args.input, args.window)
    grid = midpoint_grid(pattern.window, args.grid_steps)
    band = confidence_band(pattern, args.h, args.alpha, grid, args.method,
                           mc_draws=args.mc_draws, seed=RngSeed(args.seed))
    _write_csv(args.out, {**band.columns(), "flag": [flag or "ok" for flag in band.flags]})
    return 0


def _cmd_coverage(args) -> int:
    try:
        lo, hi = (float(v) for v in args.interval.split(","))
        interval = parse_window({"lo": lo, "hi": hi})
    except ValueError as exc:
        raise ConfigError(f"--interval must be lo,hi: {exc}") from exc
    intensity = parse_lambda_spec(args.lambda_spec, interval)
    grid = midpoint_grid(interval, args.grid_steps)
    cov = coverage_experiment(intensity, interval, args.h, args.alpha, [args.method],
                              args.reps, grid, RngSeed(args.seed),
                              mc_draws=args.mc_draws)[args.method]
    _write_csv(args.out, cov.columns())
    return 0


def _cmd_experiment(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    record = args.run(config, threads=args.threads)
    _write_text(args.out, record.to_json())
    sys.stderr.write(f"{args.command} done in {record.wall_clock_s:.2f}s\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ppboot",
                                     description="Pointwise bootstrap audits for point process statistics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a Poisson pattern and write CSV + window sidecar")
    p.add_argument("--lambda", dest="intensity", type=float, default=None,
                   help="homogeneous intensity (planar window)")
    p.add_argument("--lambda-spec", type=str, default=None,
                   help="inhomogeneous intensity, e.g. linear:50,20 (interval window)")
    p.add_argument("--window", type=str, required=True, help="window sidecar JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pcf", help="product density estimate over a radius grid")
    p.add_argument("--input", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--rsteps", type=int, required=True)
    p.add_argument("--bandwidth", type=float, required=True)
    p.add_argument("--kernel", choices=sorted(_KERNELS), default="box")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_pcf)

    p = sub.add_parser("alpha-table", help="alpha coefficients per n")
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--scheme", choices=list(SCHEMES), default="multinomial")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_alpha_table)

    p = sub.add_parser("boot-var", help="bootstrap variance estimate and its closed-form limit")
    p.add_argument("--input", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--f-spec", required=True)
    p.add_argument("--N", dest="n_resamples", type=int, default=None,
                   help="resamples to simulate beside the limit (none if omitted)")
    p.add_argument("--scheme", choices=list(SCHEMES), default="multinomial")
    _add_common(p)
    p.set_defaults(func=_cmd_boot_var)

    p = sub.add_parser("moments", help="integrated s2, s3, s4 and E theta for a Poisson truth")
    p.add_argument("--lambda", dest="intensity", type=float, required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--f-spec", required=True)
    p.add_argument("--method", choices=["mc"], default="mc", help="mc: Monte Carlo")
    p.add_argument("--samples", type=int, default=_MC_SAMPLES)
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("ci-band", help="confidence band for the intensity from one pattern")
    p.add_argument("--input", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", **_METHOD_OPTION)
    p.add_argument("--grid-steps", type=int, default=20)
    p.add_argument("--mc-draws", type=int, default=_MC_DRAWS)
    _add_common(p)
    p.set_defaults(func=_cmd_ci_band)

    p = sub.add_parser("coverage", help="empirical band coverage under a known intensity")
    p.add_argument("--lambda-spec", required=True)
    p.add_argument("--interval", default="0,1", help="lo,hi")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", **_METHOD_OPTION)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--grid-steps", type=int, default=9)
    p.add_argument("--mc-draws", type=int, default=_MC_DRAWS)
    _add_common(p)
    p.set_defaults(func=_cmd_coverage)

    # the runners are looked up per parser build, so a wrapper that replaces
    # one of these names in this module after import is the one that runs
    for name, run, text in (
        ("variance-comparison", run_variance_comparison,
         "bootstrap limit vs true variance experiment (config-driven)"),
        ("ci-suite", run_ci_suite, "bands + coverage tables for all methods (config-driven)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        _add_common(p, seed=False)
        p.set_defaults(func=_cmd_experiment, run=run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ParameterError(f"threads must be at least 1, got {args.threads}")
        return args.func(args)
    except PpbootError as exc:
        sys.stderr.write(f"{exc.kind}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
