"""The four benchmark workloads: inputs, CLI commands and output checks.

Inputs are made from the workload seed by this module alone, so the
program receives only files: pattern CSVs, window sidecars and config
JSON.  Every check compares an output with an oracle that does not call
ppboot: pair counts from ``scipy.spatial.cKDTree``, multinomial weight
moments derived here, textbook Garwood intervals, or statistical bounds
stated by the paper.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree

UNIT_SQUARE = {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}


class Checks:
    """Tally of output checks; a failure keeps its description."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why each was chosen."""

    name: str
    make_inputs: Callable[[Path, int], None]
    commands: Callable[[Path, Path, int], list[list[str]]]  # (inputs, outputs, seed)
    check: Callable[[Path, Path, Checks], None]
    items: Callable[[list[float]], float]  # work items per second, from per-command seconds


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write_pattern(path: Path, n: int, rng: np.random.Generator) -> None:
    """n uniform points on the unit square (a Poisson pattern conditioned on its count)."""
    pts = rng.random((n, 2))
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    path.with_suffix(".json").write_text(json.dumps({"window": UNIT_SQUARE}))


def _read_points(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _box_spec(r: float, b: float) -> str:
    return f"box:r={r!r},b={b!r}"


# -- oracles -------------------------------------------------------------

def _ordered_pairs_within(points: np.ndarray, radii) -> np.ndarray:
    """Ordered pairs i != j with distance <= each radius."""
    tree = cKDTree(points)
    return tree.count_neighbors(tree, np.asarray(radii, dtype=float)) - len(points)


def _box_sum(points: np.ndarray, r: np.ndarray, b: float) -> np.ndarray:
    """sum_{i != j} K_b(r - d_ij) for the box kernel K_b = 1/(2b) on |u| <= b."""
    r = np.asarray(r, dtype=float)
    return (_ordered_pairs_within(points, r + b) - _ordered_pairs_within(points, r - b)) / (2 * b)


def _bootstrap_limit_oracle(points: np.ndarray, r: float, b: float) -> tuple[float, float]:
    """Multinomial bootstrap variance limit of the box two-point statistic, and its rounding scale.

    Distinct-index sums come from sparse neighbour pairs.  The alphas
    come from the multinomial factorial moments
    E[w_1^(k_1) ... w_m^(k_m)] = n!/(n-K)! / n^K with K = sum k_i.
    """
    n = len(points)
    pairs = cKDTree(points).query_pairs(r + b, output_type="ndarray")
    d = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    f = np.where(np.abs(r - d) <= b, 0.5 / b, 0.0)
    q = np.bincount(pairs[:, 0], f, n) + np.bincount(pairs[:, 1], f, n)
    rr = np.bincount(pairs[:, 0], f * f, n) + np.bincount(pairs[:, 1], f * f, n)
    p, r_sum = q.sum(), rr.sum()
    t3 = float((q * q - rr).sum())
    q4 = p * p - 4 * t3 - 2 * r_sum
    ff = [math.prod((n - j) / n for j in range(k)) for k in range(5)]
    e11 = ff[2]
    a2 = ff[4] + 2 * ff[3] + ff[2] - e11**2
    a3 = ff[4] + ff[3] - e11**2
    a4 = ff[4] - e11**2
    limit = a4 * q4 + 4 * a3 * t3 + 2 * a2 * r_sum
    scale = abs(a4) * (p * p + 4 * abs(t3) + 2 * r_sum) + 4 * abs(a3 * t3) + 2 * abs(a2) * r_sum
    return float(limit), float(scale)


def _close(got: float, want: float, rel: float = 1e-9) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)


# -- shared boot-var pieces ----------------------------------------------

def _boot_var_argv(inputs: Path, outputs: Path, r: float, b: float, n_resamples: int,
                   seed: int) -> list[str]:
    return ["boot-var", "--input", str(inputs / "pattern.csv"), "--f-spec", _box_spec(r, b),
            "--N", str(n_resamples), "--scheme", "multinomial", "--seed", str(seed),
            "--out", str(outputs / "bootvar.json")]


def _check_boot_var(points: np.ndarray, doc: dict, r: float, b: float, n_resamples: int,
                    checks: Checks) -> None:
    checks.expect(doc["n"] == len(points) and doc["N"] == n_resamples,
                  f"boot-var echoes n={doc['n']}, N={doc['N']}")
    theta = float(_box_sum(points, [r], b)[0])
    checks.expect(_close(doc["theta_hat"], theta),
                  f"theta_hat {doc['theta_hat']!r} vs pair-count oracle {theta!r}")
    limit, scale = _bootstrap_limit_oracle(points, r, b)
    got = doc["limit_closed_form"]
    checks.expect(abs(got - limit) <= 1e-9 * scale,
                  f"limit_closed_form {got!r} vs sparse-sum oracle {limit!r}")
    checks.expect(abs(doc["v_star_N"] - got) <= doc["v_star_N_err"],
                  f"|v*_N - limit| = {abs(doc['v_star_N'] - got)!r} > 3-sigma {doc['v_star_N_err']!r}")


# -- boot-small ----------------------------------------------------------

SMALL_N, SMALL_RESAMPLES, SMALL_R, SMALL_B = 100, 100_000, 0.05, 0.01


def _small_inputs(inputs: Path, seed: int) -> None:
    _write_pattern(inputs / "pattern.csv", SMALL_N, _rng(seed, 1))


def _small_commands(inputs: Path, outputs: Path, seed: int) -> list[list[str]]:
    return [_boot_var_argv(inputs, outputs, SMALL_R, SMALL_B, SMALL_RESAMPLES, seed)]


def _small_check(inputs: Path, outputs: Path, checks: Checks) -> None:
    doc = json.loads((outputs / "bootvar.json").read_text())
    _check_boot_var(_read_points(inputs / "pattern.csv"), doc, SMALL_R, SMALL_B,
                    SMALL_RESAMPLES, checks)


# -- pattern-large -------------------------------------------------------

LARGE_N, LARGE_RESAMPLES, LARGE_R, LARGE_B = 3000, 200, 0.04, 0.0033
# 16 radii in two pcf calls: one call over all 16 holds ~2 GB of
# kernel temporaries at n = 3000, two calls of 8 hold ~1.3 GB
PCF_RANGES = ((0.005, 0.04), (0.045, 0.08))
PCF_STEPS = 8


def _large_inputs(inputs: Path, seed: int) -> None:
    _write_pattern(inputs / "pattern.csv", LARGE_N, _rng(seed, 2))


def _large_commands(inputs: Path, outputs: Path, seed: int) -> list[list[str]]:
    pcf = [["pcf", "--input", str(inputs / "pattern.csv"), "--rmin", repr(lo), "--rmax", repr(hi),
            "--rsteps", str(PCF_STEPS), "--bandwidth", repr(LARGE_B), "--kernel", "box",
            "--out", str(outputs / f"pcf{k}.csv")] for k, (lo, hi) in enumerate(PCF_RANGES)]
    return pcf + [_boot_var_argv(inputs, outputs, LARGE_R, LARGE_B, LARGE_RESAMPLES, seed)]


def _large_check(inputs: Path, outputs: Path, checks: Checks) -> None:
    points = _read_points(inputs / "pattern.csv")
    for k in range(len(PCF_RANGES)):
        table = np.loadtxt(outputs / f"pcf{k}.csv", delimiter=",", skiprows=1, ndmin=2)
        checks.expect(len(table) == PCF_STEPS, f"pcf{k} has {len(table)} rows")
        r, rho = table[:, 0], table[:, 1]
        want = _box_sum(points, r, LARGE_B) / (2 * np.pi * r)  # unit-square area
        for ri, g, w in zip(r, rho, want):
            checks.expect(_close(g, w), f"pcf rho_hat({ri!r}) = {g!r} vs pair-count oracle {w!r}")
    doc = json.loads((outputs / "bootvar.json").read_text())
    _check_boot_var(points, doc, LARGE_R, LARGE_B, LARGE_RESAMPLES, checks)


# -- variance-comparison -------------------------------------------------

VC_REPS, VC_SAMPLES = 2000, 20_000_000


def _vc_inputs(inputs: Path, seed: int) -> None:
    config = {"experiment": "variance_comparison", "lambda": 50.0, "window": UNIT_SQUARE,
              "f_spec": _box_spec(0.04, 0.0033), "scheme": "poissonized", "reps": VC_REPS,
              "integration": {"method": "monte_carlo", "sample_count": VC_SAMPLES},
              "seed": seed}
    (inputs / "config.json").write_text(json.dumps(config))


def _vc_commands(inputs: Path, outputs: Path, seed: int) -> list[list[str]]:
    return [["variance-comparison", "--config", str(inputs / "config.json"),
             "--out", str(outputs / "result.json")]]


def _vc_check(inputs: Path, outputs: Path, checks: Checks) -> None:
    doc = json.loads((outputs / "result.json").read_text())
    res, err = doc["results"], doc["errors"]
    m_err = err["moments"]
    ratio = res["ratio_empirical_bootstrap_over_true"]
    checks.expect(2.5 < ratio < 3.5, f"bootstrap/true ratio {ratio!r} outside (2.5, 3.5)")
    for got, target, budget in (
        ("mc_variance_theta", "integrated_4s3_plus_2s2", 4 * m_err["s3"] + 2 * m_err["s2"]),
        ("mean_bootstrap_limit", "integrated_4s3_plus_6s2", 4 * m_err["s3"] + 6 * m_err["s2"]),
    ):
        gap = abs(res[got] - res[target])
        checks.expect(gap <= err[got] + budget,
                      f"{got} - {target} = {gap!r} exceeds summed errors {err[got] + budget!r}")
    theta = np.asarray(doc["series"]["theta"])
    limits = np.asarray(doc["series"]["bootstrap_limit"])
    checks.expect(len(theta) == len(limits) == VC_REPS
                  and _close(float(np.var(theta, ddof=1)), res["mc_variance_theta"])
                  and _close(float(limits.mean()), res["mean_bootstrap_limit"]),
                  "summaries match the per-replicate series")


# -- ci-suite ------------------------------------------------------------

CI_REPS, CI_GRID, CI_H, CI_ALPHA = 500, 20, 0.05, 0.05
CI_METHODS = ("bootstrap_mc", "bootstrap_closed_form", "exact_poisson", "oracle_true_t")


def _ci_inputs(inputs: Path, seed: int) -> None:
    config = {"experiment": "ci_suite", "lambda_spec": "linear:20,2000",
              "interval": {"lo": 0.0, "hi": 1.0}, "h": CI_H, "alpha": CI_ALPHA,
              "methods": list(CI_METHODS), "reps": CI_REPS, "grid_steps": CI_GRID,
              "mc_draws": 100_000, "seed": seed}
    (inputs / "config.json").write_text(json.dumps(config))


def _ci_commands(inputs: Path, outputs: Path, seed: int) -> list[list[str]]:
    return [["ci-suite", "--config", str(inputs / "config.json"),
             "--out", str(outputs / "result.json")]]


def _ci_check(inputs: Path, outputs: Path, checks: Checks) -> None:
    res = json.loads((outputs / "result.json").read_text())["results"]
    checks.expect(sorted(res["bands"]) == sorted(res["coverage"]) == sorted(CI_METHODS),
                  "bands and coverage for every method")
    # coverage of the exact band at each interior point, against the
    # nominal level less three binomial standard errors
    floor = (1 - CI_ALPHA) - 3 * math.sqrt(CI_ALPHA * (1 - CI_ALPHA) / CI_REPS)
    cov = res["coverage"]["exact_poisson"]
    for x, c in zip(cov["x"], cov["coverage_true_lambda"]):
        if CI_H <= x <= 1 - CI_H:
            checks.expect(c >= floor, f"exact_poisson coverage {c!r} at x={x!r} below {floor!r}")
    # 1e-12 slack: atoms that tie in exact arithmetic may round one ulp
    # apart between the closed-form and the Monte Carlo routes
    for row in res["t_star_table"]:
        lo, hi = row["t_mc"] - row["t_mc_err"], row["t_mc"] + row["t_mc_err"]
        checks.expect(lo * (1 - 1e-12) <= row["t_closed"] <= hi * (1 + 1e-12),
                      f"t_closed {row['t_closed']!r} outside MC bracket [{lo!r}, {hi!r}] at p={row['p']}")
    for method, band in res["bands"].items():
        inside = all(lo <= lam <= hi for lo, lam, hi in zip(band["lo"], band["lambda_hat"], band["hi"]))
        checks.expect(inside, f"{method} band excludes lambda_hat somewhere")
    exact = res["bands"]["exact_poisson"]
    counts = np.rint(np.asarray(exact["lambda_hat"]) * 2 * CI_H)
    g_lo = np.where(counts > 0, 0.5 * stats.chi2.ppf(CI_ALPHA / 2, 2 * counts), 0.0) / (2 * CI_H)
    g_hi = 0.5 * stats.chi2.ppf(1 - CI_ALPHA / 2, 2 * counts + 2) / (2 * CI_H)
    checks.expect(np.allclose(exact["lo"], g_lo, rtol=1e-12, atol=0)
                  and np.allclose(exact["hi"], g_hi, rtol=1e-12, atol=0),
                  "exact_poisson band matches the Garwood interval")


WORKLOADS = {w.name: w for w in (
    Workload("boot-small",
             _small_inputs, _small_commands, _small_check,
             lambda t: SMALL_RESAMPLES / t[0]),
    Workload("pattern-large",
             _large_inputs, _large_commands, _large_check,
             lambda t: LARGE_RESAMPLES / t[-1]),
    Workload("variance-comparison",
             _vc_inputs, _vc_commands, _vc_check,
             lambda t: VC_SAMPLES / sum(t)),
    Workload("ci-suite",
             _ci_inputs, _ci_commands, _ci_check,
             lambda t: CI_REPS * CI_GRID * len(CI_METHODS) / sum(t)),
)}
