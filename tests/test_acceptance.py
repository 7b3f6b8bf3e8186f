"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Each test also enforces its runtime budget.
"""
import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ppboot.bootstrap import alpha_polynomials_exact, bootstrap_variance, bootstrap_variance_limit
from ppboot.cli import main as cli_main
from ppboot.errors import UnattainableLevelError
from ppboot.experiments import midpoint_grid, run_variance_comparison
from ppboot.geometry import Interval1, linear_intensity, simulate_homogeneous_poisson, unit_square
from ppboot.intensity import (
    TStarQuery,
    coverage_experiment,
    t_star_closed_form,
    t_star_monte_carlo_band,
)
from ppboot.patternio import write_window
from ppboot.rng import RngSeed
from ppboot.twopoint import KernelFunction, kernel_pair_function

from conftest import (
    alpha_fractions_from_moments,
    brute_force_sums,
    coverage_probability,
    pair_values,
    random_pattern,
    random_smooth_pair_function,
)


def report(number: int, elapsed: float, budget: float, message: str) -> None:
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.1f}s < {budget:.0f}s): {message}")


def test_criterion_1_distinct_index_decomposition():
    """Brute-force tuple sums satisfy P^2 = Q4 + 4 T3 + 2 R and match the fast path."""
    t0 = time.perf_counter()
    from ppboot.twopoint import distinct_index_sums

    rng = np.random.default_rng(160_001)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        pat = random_pattern(n, rng)
        f = random_smooth_pair_function(rng)
        p, t3, q4, r = brute_force_sums(pair_values(pat, f))
        scale = max(p * p, abs(q4), abs(t3), abs(r), 1.0)
        identity_err = abs(p * p - (q4 + 4 * t3 + 2 * r)) / scale
        fast = distinct_index_sums(pat, f)
        path_err = max(abs(fast.P - p), abs(fast.T3 - t3),
                       abs(fast.Q4 - q4), abs(fast.R - r)) / scale
        worst = max(worst, identity_err, path_err)
        assert identity_err < 1e-9
        assert path_err < 1e-9
    report(1, time.perf_counter() - t0, 10.0,
           f"100 patterns (n <= 12): decomposition and fast path agree, worst rel err {worst:.2e}")


def test_criterion_2_alpha_polynomials_vs_exact_moments():
    """Closed-form alpha polynomials equal exact rational moment enumeration for n = 4..7."""
    t0 = time.perf_counter()
    for n in (4, 5, 6, 7):
        assert alpha_polynomials_exact(n) == alpha_fractions_from_moments(n)
    a2, a3, a4 = (float(a) for a in alpha_polynomials_exact(4))
    assert (a2, a3, a4) == (1.03125, -0.09375, -0.46875)
    assert alpha_polynomials_exact(4) == (Fraction(66, 64), Fraction(-6, 64), Fraction(-30, 64))
    report(2, time.perf_counter() - t0, 60.0,
           "alpha polynomials match exact rational enumeration for n = 4..7 "
           "(n=4 spot: 1.03125, -0.09375, -0.46875)")


def test_criterion_3_bootstrap_variance_converges_to_limit():
    """v*_N approaches the closed-form limit at the Monte Carlo rate."""
    t0 = time.perf_counter()
    window = unit_square()
    f = kernel_pair_function(KernelFunction("box", 0.01), 0.05, window)
    pattern = simulate_homogeneous_poisson(100.0, window, RngSeed(424242))
    limit = bootstrap_variance_limit(pattern, f, "multinomial")

    v = bootstrap_variance(pattern, f, 100_000, "multinomial", RngSeed(31337), threads=2)
    rel = abs(v / limit - 1.0)
    assert rel < 0.05

    sweep = (1000, 10_000, 100_000)
    rms = []
    for N in sweep:
        devs = [
            bootstrap_variance(pattern, f, N, "multinomial", RngSeed(555).substream(rep),
                               threads=2) - limit
            for rep in range(8)
        ]
        rms.append(float(np.sqrt(np.mean(np.square(devs)))))
    slope = float(np.polyfit(np.log10(sweep), np.log10(rms), 1)[0])
    assert -0.75 < slope < -0.25, f"sweep slope {slope} not consistent with N^-1/2"
    assert rms[2] < rms[0] / 3.0
    report(3, time.perf_counter() - t0, 120.0,
           f"n={pattern.n}: |v*_N/limit - 1| = {rel:.4f} at N=1e5; sweep slope {slope:.2f}")


def test_criterion_4_bootstrap_expectation_and_factor_three():
    """Poissonized bootstrap limit estimates 4s3+6s2, not the true variance 4s3+2s2."""
    t0 = time.perf_counter()
    config = {
        "experiment": "variance_comparison",
        "lambda": 50.0,
        "window": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0},
        "f_spec": "box:r=0.04,b=0.0033",
        "scheme": "poissonized",
        "reps": 2000,
        "integration": {"method": "monte_carlo", "sample_count": 900_000_000},
        "seed": 20_260_808,
    }
    record = run_variance_comparison(config, threads=2)
    r = record.results
    dev_a = abs(r["mean_bootstrap_limit"] / r["integrated_4s3_plus_6s2"] - 1.0)
    dev_b = abs(r["mc_variance_theta"] / r["integrated_4s3_plus_2s2"] - 1.0)
    ratio = r["ratio_empirical_bootstrap_over_true"]
    assert dev_a < 0.05, f"(a) mean limit off integrated 4s3+6s2 by {dev_a:.3f}"
    assert dev_b < 0.10, f"(b) MC variance off integrated 4s3+2s2 by {dev_b:.3f}"
    assert 2.5 < ratio < 3.5, f"(c) bootstrap/true ratio {ratio:.3f} outside (2.5, 3.5)"
    report(4, time.perf_counter() - t0, 600.0,
           f"(a) {dev_a:.3f} < 0.05, (b) {dev_b:.3f} < 0.10, (c) ratio {ratio:.3f} in (2.5, 3.5)")


def test_criterion_5_closed_form_threshold_sweep():
    """Exact-CDF coverage and minimality of t*, plus Monte Carlo spot agreement."""
    t0 = time.perf_counter()
    checked = 0
    infeasible = 0
    for h in (0.02, 0.1):
        for alpha in (0.05, 0.10):
            for p in range(1, 51):
                if math.exp(-p) >= alpha:
                    # the resampled count is 0 with probability exp(-p) and is
                    # never covered, so the level is unattainable; verify the
                    # exact-CDF fact and the documented error
                    assert 1.0 - math.exp(-p) < 1.0 - alpha
                    with pytest.raises(UnattainableLevelError):
                        t_star_closed_form(TStarQuery(p, h, alpha))
                    infeasible += 1
                    continue
                t = t_star_closed_form(TStarQuery(p, h, alpha))
                assert coverage_probability(p, h, t) >= 1 - alpha
                # preceding jump of the coverage step function, found by
                # independent enumeration of candidate thresholds
                cap = int(p + 20 * math.sqrt(p) + 60)
                ms = np.arange(1, cap)
                cands = np.abs(ms - p) / np.sqrt(2 * h * ms)
                below = cands[cands < t * (1 - 1e-9)]
                t_prev = float(below.max())
                assert coverage_probability(p, h, t_prev) < 1 - alpha
                checked += 1
    for h in (0.02, 0.1):
        for alpha in (0.05, 0.10):
            t = t_star_closed_form(TStarQuery(4, h, alpha))
            seed = RngSeed(5000 + int(1000 * h) + int(1000 * alpha))
            _, lo, hi = t_star_monte_carlo_band(4, h, alpha, 10**6, seed)
            # 1e-12 slack: tied atoms (counts 1 and 16 at p = 4) have equal
            # real |T| but may round one ulp apart between the two routes
            assert lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12)
    report(5, time.perf_counter() - t0, 300.0,
           f"{checked} feasible (p, h, alpha) combos: coverage >= 1-alpha and minimal; "
           f"{infeasible} infeasible combos raise as documented; MC spot cases in 3-sigma bands")


def test_criterion_6_interval_forms_equivalent():
    """|p*-p| <= t sqrt(2 h p*) and |p*-a| <= b select identical counts (exact integers)."""
    t0 = time.perf_counter()
    p = np.arange(0, 201, dtype=np.int64)[:, None, None, None]
    ps = np.arange(0, 201, dtype=np.int64)[None, :, None, None]
    T = np.arange(1, 51, dtype=np.int64)[None, None, :, None]
    H = np.array([2, 10], dtype=np.int64)[None, None, None, :]
    delta = ps - p
    lhs = 10_000 * delta**2 <= 2 * H * T**2 * ps
    rhs = (10_000 * delta - H * T**2) ** 2 <= 2 * H * p * T**2 * 10_000 + H**2 * T**4
    violations = int(np.count_nonzero(lhs != rhs))
    assert violations == 0
    report(6, time.perf_counter() - t0, 30.0,
           f"0 violations over {lhs.size} (p, p*, t, h) combinations, exact arithmetic")


def test_criterion_7_exact_band_coverage_and_clt():
    """Exact Poisson bands cover a linear intensity at nominal level; CLT sanity."""
    t0 = time.perf_counter()
    interval = Interval1(0.0, 1.0)
    intensity = linear_intensity(50.0, 20.0, interval)
    grid = midpoint_grid(interval, 9)
    h, alpha, reps = 0.05, 0.05, 5000
    cov = coverage_experiment(intensity, interval, h, alpha, "exact_poisson",
                              reps, grid, RngSeed(90210), threads=2)
    assert all(flag == "" for flag in cov.flags), "grid points must be interior"
    floor = 0.95 - 3 * math.sqrt(0.95 * 0.05 / reps)
    assert np.all(cov.coverage_true >= floor), (
        f"min coverage {cov.coverage_true.min():.4f} below {floor:.4f}"
    )
    # with 2h = 1 the studentized deviation is asymptotically standard normal
    t400 = t_star_closed_form(TStarQuery(400, 0.5, 0.05))
    assert abs(t400 / 1.959964 - 1.0) < 0.05
    report(7, time.perf_counter() - t0, 300.0,
           f"min pointwise coverage {cov.coverage_true.min():.4f} >= {floor:.4f}; "
           f"t*(400) = {t400:.4f} within 5% of 1.96")


def test_criterion_8_determinism_across_thread_counts(tmp_path):
    """Identical seeds give byte-identical outputs for any thread count."""
    t0 = time.perf_counter()

    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    window_path = tmp_path / "w.json"
    write_window(unit_square(), window_path)
    interval_path = tmp_path / "iv.json"
    write_window(Interval1(0.0, 1.0), interval_path)

    pat = tmp_path / "p.csv"
    runs = {
        "simulate": ["simulate", "--lambda", "150", "--window", str(window_path),
                     "--seed", "21", "--out", str(pat)],
    }
    digests = {}
    for name, argv in runs.items():
        assert cli_main(argv) == 0
        first = digest(pat)
        assert cli_main(argv) == 0
        assert digest(pat) == first
        digests[name] = first

    cfg = {
        "experiment": "variance_comparison",
        "lambda": 30.0,
        "window": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0},
        "f_spec": "box:r=0.05,b=0.01",
        "scheme": "multinomial",
        "reps": 100,
        "integration": {"method": "monte_carlo", "sample_count": 2_000_000},
        "seed": 8,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    threaded = {
        "boot-var": ["boot-var", "--input", str(pat), "--f-spec", "box:r=0.05,b=0.01",
                     "--N", "2000", "--scheme", "multinomial", "--seed", "5",
                     "--out", str(tmp_path / "bv.json")],
        "coverage": ["coverage", "--lambda-spec", "linear:50,20", "--h", "0.05",
                     "--alpha", "0.05", "--method", "exact", "--reps", "400",
                     "--grid-steps", "5", "--seed", "6", "--out", str(tmp_path / "cov.csv")],
        "moments": ["moments", "--lambda", "40", "--window", str(window_path),
                    "--f-spec", "box:r=0.05,b=0.01", "--method", "mc",
                    "--samples", "1000000", "--seed", "7", "--out", str(tmp_path / "m.json")],
        "variance-comparison": ["variance-comparison", "--config", str(cfg_path),
                                "--out", str(tmp_path / "vc.json")],
    }
    out_of = {"boot-var": "bv.json", "coverage": "cov.csv", "moments": "m.json",
              "variance-comparison": "vc.json"}
    for name, argv in threaded.items():
        per_thread = []
        for threads in (1, 4):
            assert cli_main(argv + ["--threads", str(threads)]) == 0
            per_thread.append(digest(tmp_path / out_of[name]))
        assert per_thread[0] == per_thread[1], f"{name} output depends on thread count"
        digests[name] = per_thread[0]

    report(8, time.perf_counter() - t0, 300.0,
           f"{len(digests)} randomized commands byte-identical across reruns and thread counts")
