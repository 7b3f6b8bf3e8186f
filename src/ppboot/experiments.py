"""Reproducible experiment drivers tying the modules together.

``run_variance_comparison`` reproduces the head-to-head between what the
bootstrap estimates and the true estimator variance: it simulates
patterns from a homogeneous Poisson truth, evaluates the closed-form
bootstrap variance limit on each, and compares the Monte Carlo sample
variance of the statistic against the integrated targets 4*s3 + 2*s2
(truth) and 4*s3 + 6*s2 (what the bootstrap converges to), surfacing
their ratio.  The replicates come from ``geometry._replicate_blocks`` and
are summed a block at a time, one pair search per block; no replicate's
points or sums depend on the block size.  Threads serve only the moments.

``run_ci_suite`` builds intensity confidence bands on one realization by
every configured method, scores every method's coverage on one shared
simulation, and tabulates closed-form versus Monte Carlo bootstrap thresholds.

Configurations are plain JSON-compatible dicts validated against a
strict schema: unknown keys are rejected.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bootstrap import _check_scheme, _limit_from_sums, alpha_coefficients, variance_with_error
from .errors import ConfigError, ParameterError, UnattainableLevelError
from .geometry import (
    Interval1,
    IntensityFunction,
    Window2,
    _poisson_block,
    _replicate_blocks,
    _require_window,
    constant_intensity,
    linear_intensity,
    simulate_inhomogeneous_poisson,
)
from .intensity import (
    _MC_DRAWS,
    BAND_METHODS,
    confidence_band,
    coverage_experiment,
    t_star_closed_form,
    t_star_monte_carlo_band,
    window_counts,
)
from .moments import _MC_SAMPLES, s_moments_poisson, true_variance_poisson
from .patternio import _number, parse_window
from .rng import RngSeed
from .twopoint import (_KERNELS, KernelFunction, PairFunction, _grouped_sums,
                       constant_pair_function, kernel_pair_function)

# Most candidate pairs ``run_variance_comparison`` expects in one pair
# search: it keeps a block's pair arrays to a few MB when patterns are
# large or the reach is wide.
_GROUP_PAIRS = 1 << 16


def parse_f_spec(spec: str, window) -> PairFunction:
    """Pair function from a compact string: ``ones``, ``const:v``, ``box:r=R,b=B``, ``epa:r=R,b=B``."""
    try:
        if spec == "ones":
            return constant_pair_function(window, 1.0)
        kind, _, rest = spec.partition(":")
        if kind == "const":
            return constant_pair_function(window, float(rest))
        if kind in _KERNELS:
            items = [item.split("=", 1) for item in rest.split(",")]
            params = dict(items)
            if set(params) - {"r", "b"} or len(params) < len(items):
                raise ConfigError(f"unknown or repeated f-spec parameters in {spec!r}")
            return kernel_pair_function(KernelFunction(kind, float(params["b"])),
                                        float(params["r"]), window)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot parse f-spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown f-spec kind in {spec!r}; use ones, const:v, box:r=..,b=.., epa:r=..,b=..")


def parse_lambda_spec(spec: str, interval: Interval1) -> IntensityFunction:
    """Intensity from a compact string: ``const:c`` or ``linear:a,b`` (a + b*x)."""
    try:
        kind, _, rest = spec.partition(":")
        if kind == "const":
            return constant_intensity(float(rest))
        if kind == "linear":
            a_str, b_str = rest.split(",")
            return linear_intensity(float(a_str), float(b_str), interval)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse lambda-spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown lambda-spec kind in {spec!r}; use const:c or linear:a,b")


@dataclass(frozen=True)
class ResultRecord:
    """One experiment's outputs: config echo, named results, error estimates.

    The serialized record adds ``input_digest``, the sha256 of the config's
    canonical JSON.  ``wall_clock_s`` is informational and excluded from
    it, so identical (config, seed) runs produce byte-identical files.
    """

    experiment: str
    config: dict
    results: dict
    errors: dict
    series: dict
    seed: int
    wall_clock_s: float = field(compare=False)

    def to_json(self) -> str:
        canonical = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        doc = {
            "experiment": self.experiment,
            "config": self.config,
            "input_digest": hashlib.sha256(canonical.encode()).hexdigest(),
            "results": self.results,
            "errors": self.errors,
            "series": self.series,
            "seed": self.seed,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_columns(columns: dict) -> dict[str, list]:
    """A result table's columns as JSON lists."""
    return {key: np.asarray(col).tolist() for key, col in columns.items()}


def _validate_config(config: dict, schema: dict[str, tuple], experiment: str) -> dict:
    """Apply a {key: (checker, required, default)} schema; reject unknown keys.

    An optional ``experiment`` key must name ``experiment``.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"{experiment} config must be an object, got {type(config).__name__}")
    if config.get("experiment", experiment) != experiment:
        raise ConfigError(f"experiment must be {experiment!r}, got {config['experiment']!r}")
    unknown = set(config) - set(schema) - {"experiment"}
    if unknown:
        raise ConfigError(f"unknown {experiment} config keys: {sorted(unknown)}")
    out = {}
    for key, (checker, required, default) in schema.items():
        if key not in config:
            if required:
                raise ConfigError(f"{experiment} config missing required key {key!r}")
            out[key] = default
            continue
        try:
            out[key] = checker(config[key])
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return out


def _positive_float(v) -> float:
    x = _number(v)
    if not x > 0:
        raise ValueError(f"must be > 0, got {x}")
    return x


def _level(v) -> float:
    x = _number(v)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"must lie in (0, 1], got {x}")
    return x


def _int_at_least(least: int):
    """A checker for integers no smaller than ``least``."""
    def check(v) -> int:
        _number(v)  # refuses strings, booleans and infinities
        if int(v) != v or v < least:  # v itself: past 2^53 an integer has no exact float
            raise ValueError(f"must be an integer >= {least}, got {v!r}")
        return int(v)
    return check


def _integration(v) -> int:
    """The Monte Carlo sample count of an ``integration`` object."""
    if not isinstance(v, dict):
        raise ValueError("integration must be an object")
    unknown = set(v) - {"method", "sample_count"}
    if unknown:
        raise ConfigError(f"unknown integration keys: {sorted(unknown)}")
    if v.get("method", "monte_carlo") != "monte_carlo":
        raise ValueError(f"unknown integration method {v['method']!r}; use 'monte_carlo'")
    return _int_at_least(1000)(v.get("sample_count", _MC_SAMPLES))


def _methods_list(v) -> list[str]:
    if isinstance(v, str):
        v = [v]
    if not isinstance(v, list) or not v:
        raise ValueError("methods must be a nonempty list of method names")
    for m in v:
        if m not in BAND_METHODS:
            raise ValueError(f"unknown band method {m!r}; use one of {BAND_METHODS}")
    if len(set(v)) < len(v):
        raise ValueError(f"methods must not repeat, got {v}")
    return list(v)


_VARIANCE_SCHEMA = {
    "lambda": (_positive_float, True, None),
    "window": (parse_window, True, None),
    "f_spec": (str, True, None),
    "scheme": (_check_scheme, True, None),
    "reps": (_int_at_least(2), True, None),
    "integration": (_integration, False, _MC_SAMPLES),
    "seed": (_int_at_least(0), True, None),
}

_CI_SUITE_SCHEMA = {
    "lambda_spec": (str, True, None),
    "interval": (parse_window, True, None),
    "h": (_positive_float, True, None),
    "alpha": (_level, True, None),
    "methods": (_methods_list, True, None),
    "reps": (_int_at_least(100), True, None),
    "grid_steps": (_int_at_least(1), True, None),
    "mc_draws": (_int_at_least(1000), False, _MC_DRAWS),
    "seed": (_int_at_least(0), True, None),
}


def midpoint_grid(interval: Interval1, steps: int) -> np.ndarray:
    """Cell-midpoint grid of the interval (steps points)."""
    _require_window(interval, Interval1, "a midpoint grid")
    if not isinstance(steps, numbers.Integral) or steps < 1:
        raise ParameterError(f"grid steps must be an integer of at least 1, got {steps!r}")
    edges = np.linspace(interval.lo, interval.hi, steps + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def run_variance_comparison(config: dict, threads: int = 1) -> ResultRecord:
    """Bootstrap limit versus true variance for a homogeneous Poisson truth."""
    t0 = time.perf_counter()
    cfg = _validate_config(config, _VARIANCE_SCHEMA, "variance_comparison")
    window = cfg["window"]
    if not isinstance(window, Window2):
        raise ConfigError("variance_comparison needs a planar window")
    f = parse_f_spec(cfg["f_spec"], window)
    lam = cfg["lambda"]
    seed = RngSeed(cfg["seed"])

    reps = cfg["reps"]
    thetas = np.empty(reps)
    limits = np.empty(reps)
    # a replicate expects about mu^2/2 pairs, times the share of W its search disc covers
    mu = lam * window.area
    pairs = 0.5 * mu * mu * min(1.0, math.pi * f.search_reach ** 2 / window.area)
    for lo, points, counts in _replicate_blocks(partial(_poisson_block, mu, window), mu, window,
                                                reps, seed, most=_GROUP_PAIRS / max(pairs, 1.0)):
        sums = _grouped_sums(points, counts, f)
        thetas[lo:lo + len(counts)] = sums.P
        limits[lo:lo + len(counts)] = _limit_from_sums(sums, counts, cfg["scheme"])

    mc_var, mc_var_err = variance_with_error(thetas)
    mean_limit = float(np.mean(limits))
    mean_limit_se = float(np.std(limits, ddof=1) / np.sqrt(reps))

    moments = s_moments_poisson(lam, window, f, cfg["integration"], seed.substream(1), threads)

    poissonized = alpha_coefficients(None, "poissonized")
    target_boot = poissonized.variance(moments.s4, moments.s3, moments.s2)
    target_true = moments.reduced_true_variance()
    results = {
        "mc_variance_theta": mc_var,
        "mean_bootstrap_limit": mean_limit,
        "integrated_4s3_plus_2s2": target_true,
        "integrated_4s3_plus_6s2": target_boot,
        "true_variance_full_form": true_variance_poisson(moments),
        "ratio_empirical_bootstrap_over_true": (mean_limit / mc_var) if mc_var else 0.0,
        "ratio_integrated_bootstrap_over_true": (target_boot / target_true) if target_true else 0.0,
        "moments": {"s2": moments.s2, "s3": moments.s3, "s4": moments.s4,
                    "e_theta": moments.e_theta},
        "expected_pattern_size": lam * window.area,
    }
    errors = {
        "mc_variance_theta": mc_var_err,
        "mean_bootstrap_limit": 3.0 * mean_limit_se,
        "moments": dict(moments.errors),
    }
    series = {"theta": thetas.tolist(), "bootstrap_limit": limits.tolist()}
    return ResultRecord(
        experiment="variance_comparison",
        config=dict(config),
        results=results,
        errors=errors,
        series=series,
        seed=cfg["seed"],
        wall_clock_s=time.perf_counter() - t0,
    )


def run_ci_suite(config: dict, threads: int = 1) -> ResultRecord:
    """Every configured method's band on one realization, and its coverage on shared replicates.

    Nothing here is threaded; ``threads`` is accepted so every experiment runs alike.
    """
    t0 = time.perf_counter()
    cfg = _validate_config(config, _CI_SUITE_SCHEMA, "ci_suite")
    interval = cfg["interval"]
    if not isinstance(interval, Interval1):
        raise ConfigError("ci_suite needs a one-dimensional interval")
    intensity = parse_lambda_spec(cfg["lambda_spec"], interval)
    h, alpha = cfg["h"], cfg["alpha"]
    seed = RngSeed(cfg["seed"])
    grid = midpoint_grid(interval, cfg["grid_steps"])

    reference = simulate_inhomogeneous_poisson(intensity, interval, seed.substream(0))
    bands = {}
    for k, method in enumerate(cfg["methods"]):
        band = confidence_band(reference, h, alpha, grid, method,
                               intensity=intensity, mc_draws=cfg["mc_draws"],
                               seed=seed.substream(2, k))
        bands[method] = _json_columns(band.columns())
    coverage = {}
    if alpha < 1.0:
        covs = coverage_experiment(intensity, interval, h, alpha, cfg["methods"], cfg["reps"],
                                   grid, seed.substream(3, 0), mc_draws=cfg["mc_draws"])
        coverage = {method: _json_columns(cov.columns()) for method, cov in covs.items()}

    # closed-form vs Monte Carlo thresholds at the counts seen on the grid
    ref_counts = window_counts(reference, h, grid)
    distinct_counts = sorted({int(p) for p in ref_counts if p >= 1}) if alpha < 1.0 else []
    t_rows = []
    unattainable = []  # counts whose Monte Carlo draws miss the level
    for j, p in enumerate(distinct_counts):
        try:
            t_closed = t_star_closed_form(p, h, alpha)
        except UnattainableLevelError:  # no finite t* reaches the level at this count
            continue
        try:
            t_mc, t_lo, t_hi = t_star_monte_carlo_band(p, h, alpha, cfg["mc_draws"],
                                                       seed.substream(4, j))
        except UnattainableLevelError:
            unattainable.append(p)
            continue
        t_rows.append({"p": p, "t_closed": t_closed, "t_mc": t_mc,
                       "t_mc_err": max(t_hi - t_mc, t_mc - t_lo)})
    results = {"bands": bands, "coverage": coverage, "t_star_table": t_rows,
               "t_star_unattainable": unattainable, "alpha": alpha, "h": h}
    errors = {"coverage_se": "per-point columns inside results.coverage"}
    return ResultRecord(
        experiment="ci_suite",
        config=dict(config),
        results=results,
        errors=errors,
        series={},
        seed=cfg["seed"],
        wall_clock_s=time.perf_counter() - t0,
    )
