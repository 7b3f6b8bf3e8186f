import numpy as np
import pytest

from ppboot.errors import ConfigError, UnattainableLevelError
from ppboot.experiments import (
    midpoint_grid,
    parse_f_spec,
    parse_lambda_spec,
    run_ci_suite,
    run_variance_comparison,
)
from ppboot.geometry import Interval1, unit_square
from ppboot.intensity import t_star_monte_carlo_band
from ppboot.rng import RngSeed

UNIT_WINDOW = {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}


def variance_config(**overrides):
    cfg = {
        "experiment": "variance_comparison",
        "lambda": 30.0,
        "window": dict(UNIT_WINDOW),
        "f_spec": "box:r=0.1,b=0.05",
        "scheme": "poissonized",
        "reps": 60,
        "integration": {"method": "monte_carlo", "sample_count": 200000},
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


def ci_config(**overrides):
    cfg = {
        "experiment": "ci_suite",
        "lambda_spec": "linear:50,20",
        "interval": {"lo": 0.0, "hi": 1.0},
        "h": 0.05,
        "alpha": 0.05,
        "methods": ["bootstrap_closed_form", "exact_poisson"],
        "reps": 150,
        "grid_steps": 5,
        "mc_draws": 20000,
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


class TestParsers:
    def test_f_spec_forms(self):
        w = unit_square()
        assert parse_f_spec("ones", w).label.startswith("const")
        assert parse_f_spec("const:2.5", w)(np.array([0.1, 0.1]), np.array([0.2, 0.2])) == 2.5
        f = parse_f_spec("box:r=0.05,b=0.01", w)
        assert "box" in f.label
        f2 = parse_f_spec("epa:r=0.05,b=0.01", w)
        assert "epa" in f2.label

    def test_f_spec_errors(self):
        w = unit_square()
        with pytest.raises(ConfigError):
            parse_f_spec("mystery:1", w)
        with pytest.raises(ConfigError):
            parse_f_spec("box:r=0.05", w)
        with pytest.raises(ConfigError):
            parse_f_spec("box:r=0.05,b=0.01,c=3", w)
        with pytest.raises(ConfigError):
            parse_f_spec("box:r=0.05,b=0.01,r=0.2", w)

    def test_lambda_spec_forms(self):
        iv = Interval1(0, 1)
        assert parse_lambda_spec("const:40", iv).lambda_max == 40
        lin = parse_lambda_spec("linear:50,20", iv)
        assert lin(np.array(0.5)) == pytest.approx(60.0)
        with pytest.raises(ConfigError):
            parse_lambda_spec("spline:1,2,3", iv)

    def test_midpoint_grid(self):
        grid = midpoint_grid(Interval1(0, 1), 4)
        np.testing.assert_allclose(grid, [0.125, 0.375, 0.625, 0.875])


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            run_variance_comparison(variance_config(bogus=1))
        with pytest.raises(ConfigError, match="unknown"):
            run_ci_suite(ci_config(bogus=1))

    def test_missing_required_key(self):
        cfg = variance_config()
        del cfg["lambda"]
        with pytest.raises(ConfigError, match="lambda"):
            run_variance_comparison(cfg)

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            run_variance_comparison(variance_config(reps=0))
        with pytest.raises(ConfigError):
            run_variance_comparison(variance_config(scheme="jackknife"))
        with pytest.raises(ConfigError):
            run_ci_suite(ci_config(methods=["mystery"]))
        with pytest.raises(ConfigError):
            run_ci_suite(ci_config(alpha=0.0))

    @pytest.mark.parametrize("run, config, key", [
        (run_variance_comparison, variance_config(reps=1), "reps"),
        (run_ci_suite, ci_config(reps=99), "reps"),
        (run_ci_suite, ci_config(mc_draws=999), "mc_draws"),
    ])
    def test_minima_checked_before_any_work(self, run, config, key):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            run(config)

    def test_window_kind_checked(self):
        with pytest.raises(ConfigError):
            run_variance_comparison(variance_config(window={"lo": 0.0, "hi": 1.0}))
        with pytest.raises(ConfigError):
            run_ci_suite(ci_config(interval=dict(UNIT_WINDOW)))
        with pytest.raises(ConfigError):
            run_variance_comparison(variance_config(window={**UNIT_WINDOW, "x_min": "a"}))
        with pytest.raises(ConfigError):
            run_ci_suite(ci_config(interval={"lo": None, "hi": 1}))
        with pytest.raises(ConfigError):
            run_ci_suite(ci_config(interval=[0, 1]))
        # booleans and numeric strings are not JSON numbers
        for lo, hi in ((False, True), ("0", "1")):
            with pytest.raises(ConfigError, match="bad value for 'interval'"):
                run_ci_suite(ci_config(interval={"lo": lo, "hi": hi}))
            with pytest.raises(ConfigError, match="bad value for 'window'"):
                run_variance_comparison(variance_config(window={**UNIT_WINDOW,
                                                                "x_min": lo, "x_max": hi}))


class TestVarianceComparison:
    def test_zero_pair_function_gives_zero_record(self):
        record = run_variance_comparison(variance_config(f_spec="const:0", reps=20))
        assert record.results["mc_variance_theta"] == 0.0
        assert record.results["mean_bootstrap_limit"] == 0.0
        assert record.results["integrated_4s3_plus_6s2"] == 0.0

    def test_rerun_is_byte_identical(self):
        a = run_variance_comparison(variance_config())
        b = run_variance_comparison(variance_config())
        assert a.to_json() == b.to_json()
        assert a.to_json() == b.to_json()

    def test_sane_small_run(self):
        record = run_variance_comparison(variance_config(reps=400))
        r = record.results
        assert r["mc_variance_theta"] > 0
        assert r["mean_bootstrap_limit"] > 0
        # wide-kernel regime: bootstrap inflates variance, ratio in (1, 3]
        assert 1.0 < r["ratio_integrated_bootstrap_over_true"] <= 3.0
        assert "mc_variance_theta" in record.errors
        assert record.series["theta"] and record.series["bootstrap_limit"]

    def test_wall_clock_not_serialized(self):
        record = run_variance_comparison(variance_config(reps=10))
        assert record.wall_clock_s > 0
        assert "wall_clock" not in record.to_json()


class TestCiSuite:
    def test_alpha_one_bootstrap_bands_degenerate(self):
        record = run_ci_suite(ci_config(alpha=1.0, methods=["bootstrap_closed_form"]))
        band = record.results["bands"]["bootstrap_closed_form"]
        lam = np.array(band["lambda_hat"])
        lo = np.array(band["lo"])
        hi = np.array(band["hi"])
        nonzero = lam > 0
        np.testing.assert_allclose(lo[nonzero], lam[nonzero], rtol=1e-12)
        np.testing.assert_allclose(hi[nonzero], lam[nonzero], rtol=1e-12)

    def test_closed_and_mc_thresholds_agree(self):
        record = run_ci_suite(ci_config(methods=["bootstrap_closed_form"], reps=150))
        rows = record.results["t_star_table"]
        assert rows, "no threshold rows produced"
        for row in rows:
            assert abs(row["t_mc"] - row["t_closed"]) <= row["t_mc_err"] + 1e-12

    def test_unattainable_monte_carlo_count_is_listed(self):
        # exp(-3) = 0.0498 is just under alpha, so at p = 3 the share of zero
        # draws falls on either side of alpha from seed to seed.  A count is
        # listed exactly when its own Monte Carlo band raises, and is in the
        # table otherwise; counts below the level are in neither.
        h, alpha = 0.05, 0.05
        for seed in range(8):
            record = run_ci_suite(ci_config(lambda_spec="const:30", methods=["exact_poisson"],
                                            reps=100, mc_draws=100_000, seed=seed))
            lam_hat = record.results["bands"]["exact_poisson"]["lambda_hat"]
            counts = sorted({round(v * 2 * h) for v in lam_hat} - {0})
            unattainable, tabled = [], []
            for j, p in enumerate(counts):
                if np.exp(-p) >= alpha:
                    continue
                try:
                    t_star_monte_carlo_band(p, h, alpha, 100_000, RngSeed(seed).substream(4, j))
                except UnattainableLevelError:
                    unattainable.append(p)
                else:
                    tabled.append(p)
            assert record.results["t_star_unattainable"] == unattainable, seed
            assert [row["p"] for row in record.results["t_star_table"]] == tabled, seed

    def test_count_just_short_of_the_level_is_skipped(self):
        # exp(-1) < alpha by one ulp, yet the closed form cannot attain the
        # level at p = 1; the table skips that count rather than aborting
        alpha = float(np.nextafter(np.exp(-1.0), 1.0))
        record = run_ci_suite(ci_config(lambda_spec="const:20", h=0.01, alpha=alpha,
                                        grid_steps=20, reps=100, seed=1))
        lam_hat = record.results["bands"]["bootstrap_closed_form"]["lambda_hat"]
        assert 1 in {round(v * 2 * 0.01) for v in lam_hat}
        assert 1 not in [row["p"] for row in record.results["t_star_table"]]
        assert record.results["coverage"]["exact_poisson"]["coverage_true_lambda"]

    def test_exact_coverage_near_nominal(self):
        record = run_ci_suite(ci_config(methods=["exact_poisson"], reps=400))
        cov = record.results["coverage"]["exact_poisson"]
        values = np.array(cov["coverage_true_lambda"])
        se = np.sqrt(0.95 * 0.05 / 400)
        assert np.all(values >= 0.95 - 3 * se)

    def test_rerun_is_byte_identical(self):
        a = run_ci_suite(ci_config())
        b = run_ci_suite(ci_config())
        assert a.to_json() == b.to_json()
