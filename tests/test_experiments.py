import numpy as np
import pytest

from ppboot import experiments, geometry
from ppboot.bootstrap import bootstrap_variance_limit
from ppboot.errors import ConfigError, DuplicatePointError, ParameterError, UnattainableLevelError
from ppboot.experiments import (
    midpoint_grid,
    parse_f_spec,
    parse_lambda_spec,
    run_ci_suite,
    run_variance_comparison,
)
from ppboot.geometry import Interval1, PointPattern, _poisson_block, unit_square
from ppboot.intensity import coverage_experiment, t_star_monte_carlo_band
from ppboot.rng import RngSeed
from ppboot.twopoint import distinct_index_sums

from conftest import one_at_a_time

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

    @pytest.mark.parametrize("steps", [2.5, 4.0, "4", None, 0, -1])
    def test_midpoint_grid_needs_a_positive_integer_step_count(self, steps):
        with pytest.raises(ParameterError, match="grid step"):
            midpoint_grid(Interval1(0, 1), steps)


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

    def test_seed_past_2_53_accepted(self):
        # 2^53 + 1 has no exact float; as a float it would read as 2^53
        for seed in (2**53 + 1, 2**64 - 1):
            record = run_variance_comparison(variance_config(reps=2, seed=seed))
            assert record.seed == seed
        for seed in (2.5, -1, True, "3"):
            with pytest.raises(ConfigError, match="bad value for 'seed'"):
                run_variance_comparison(variance_config(reps=2, seed=seed))

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
        c = run_variance_comparison(variance_config(), threads=2)
        assert a.to_json() == b.to_json()
        assert a.to_json() == c.to_json()

    @pytest.mark.parametrize("f_spec, scheme", [("box:r=0.1,b=0.05", "poissonized"),
                                                ("epa:r=0.2,b=0.1", "multinomial"),
                                                ("ones", "multinomial")])
    def test_series_match_a_loop_over_replicate_streams(self, monkeypatch, f_spec, scheme):
        # blocks of 7 replicates of 3 expected points: several blocks and a ragged last one
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", 7 * 3.0)
        cfg = variance_config(f_spec=f_spec, scheme=scheme, reps=30, **{"lambda": 3.0})
        record = run_variance_comparison(cfg)
        window, seed = unit_square(), RngSeed(cfg["seed"])
        f = parse_f_spec(f_spec, window)
        patterns = [PointPattern(points, window)
                    for points in one_at_a_time(_poisson_block, 3.0, window,
                                                seed=seed.substream(0), reps=30)]
        assert {p.n for p in patterns} & {0, 1}
        assert record.series["theta"] == [distinct_index_sums(p, f).P for p in patterns]
        assert record.series["bootstrap_limit"] == [bootstrap_variance_limit(p, f, scheme)
                                                    for p in patterns]

    def test_repeat_in_a_later_block_named_by_its_replicate(self, monkeypatch):
        draw, calls = experiments._poisson_block, []

        def with_repeat(*args):
            points, counts = draw(*args)
            calls.append(len(counts))
            if len(calls) == 2:
                points[counts[0] + 1] = points[counts[0]]  # replicate 64 + 1 repeats its point 0
            return points, counts

        monkeypatch.setattr(geometry, "_BLOCK_POINTS", 64 * 30.0)  # blocks of 64 at lambda 30
        monkeypatch.setattr(experiments, "_poisson_block", with_repeat)
        with pytest.raises(DuplicatePointError,
                           match="point 1 of replicate 65 repeats its point 0;"):
            run_variance_comparison(variance_config(reps=80))
        assert calls == [64, 16]

    def test_integration_defaults_to_200000_samples(self):
        cfg = variance_config(reps=10, integration={"sample_count": 200000})
        default = {k: v for k, v in cfg.items() if k != "integration"}
        a, b = run_variance_comparison(cfg), run_variance_comparison(default)
        assert (a.results, a.errors, a.series) == (b.results, b.errors, b.series)

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

    def test_coverage_is_one_shared_experiment(self):
        # every method's coverage comes from one run on substream (3, 0)
        cfg = ci_config(methods=["bootstrap_mc", "oracle_true_t", "exact_poisson"], reps=100,
                        mc_draws=2000)
        record = run_ci_suite(cfg)
        interval = Interval1(0.0, 1.0)
        cov = coverage_experiment(parse_lambda_spec(cfg["lambda_spec"], interval), interval,
                                  cfg["h"], cfg["alpha"], cfg["methods"], cfg["reps"],
                                  midpoint_grid(interval, cfg["grid_steps"]),
                                  RngSeed(cfg["seed"]).substream(3, 0), mc_draws=cfg["mc_draws"])
        assert list(record.results["coverage"]) == cfg["methods"]
        assert record.results["coverage"] == {
            method: experiments._json_columns(result.columns()) for method, result in cov.items()}

    def test_rerun_is_byte_identical(self):
        a = run_ci_suite(ci_config())
        b = run_ci_suite(ci_config())
        assert a.to_json() == b.to_json()
