import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ppboot import cli, errors
from ppboot.bootstrap import alpha_coefficients, bootstrap_variance_limit
from ppboot.cli import main
from ppboot.geometry import Interval1, unit_square
from ppboot.patternio import ingest_pattern, write_window
from ppboot.twopoint import KernelFunction, estimate_product_density, kernel_pair_function


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def square_window(tmp_path):
    path = tmp_path / "window.json"
    write_window(unit_square(), path)
    return str(path)


@pytest.fixture
def interval_window(tmp_path):
    path = tmp_path / "interval.json"
    write_window(Interval1(0.0, 1.0), path)
    return str(path)


@pytest.fixture
def planar_pattern(tmp_path, square_window):
    out = tmp_path / "pat.csv"
    rc = main(["simulate", "--lambda", "120", "--window", square_window,
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    return str(out)


@pytest.fixture
def interval_pattern(tmp_path, interval_window):
    out = tmp_path / "pat1d.csv"
    rc = main(["simulate", "--lambda-spec", "linear:50,20", "--window", interval_window,
               "--seed", "10", "--out", str(out)])
    assert rc == 0
    return str(out)


def test_import_leaves_scipy_stats_unloaded():
    # conftest imports scipy.stats, so only a fresh interpreter shows what ppboot loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, ppboot, ppboot.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


class TestSimulate:
    def test_writes_pattern_and_sidecar(self, planar_pattern):
        pat = ingest_pattern(planar_pattern)
        assert pat.n > 60 and pat.dim == 2

    def test_deterministic_output_bytes(self, tmp_path, square_window):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--lambda", "80", "--window", square_window, "--seed", "3",
              "--out", str(a)])
        main(["simulate", "--lambda", "80", "--window", square_window, "--seed", "3",
              "--out", str(b)])
        assert sha(a) == sha(b)

    def test_requires_exactly_one_intensity_flavor(self, square_window, tmp_path, capsys):
        rc = main(["simulate", "--window", square_window, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        rc = main(["simulate", "--lambda", "5", "--lambda-spec", "const:5",
                   "--window", square_window, "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_requires_out_before_any_work(self, square_window, tmp_path, capsys):
        for window in (square_window, str(tmp_path / "missing.json")):
            capsys.readouterr()
            assert main(["simulate", "--lambda", "5", "--window", window]) == 2
            assert capsys.readouterr().err.startswith("config error: ")

    def test_window_kind_mismatch(self, interval_window, tmp_path):
        rc = main(["simulate", "--lambda", "5", "--window", interval_window,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestPcf:
    def test_matches_library(self, tmp_path, planar_pattern):
        out = tmp_path / "pcf.csv"
        rc = main(["pcf", "--input", planar_pattern, "--rmin", "0.02", "--rmax", "0.2",
                   "--rsteps", "10", "--bandwidth", "0.01", "--kernel", "box",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,rho_hat"
        assert len(lines) == 11
        pat = ingest_pattern(planar_pattern)
        table = estimate_product_density(pat, np.linspace(0.02, 0.2, 10),
                                         KernelFunction("box", 0.01))
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(table[0, 0])
        assert first[1] == pytest.approx(table[0, 1])

    def test_bad_radius_config(self, planar_pattern, tmp_path):
        rc = main(["pcf", "--input", planar_pattern, "--rmin", "0.2", "--rmax", "0.1",
                   "--rsteps", "5", "--bandwidth", "0.01", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestAlphaTable:
    def test_values_match_library(self, tmp_path):
        out = tmp_path / "alpha.csv"
        rc = main(["alpha-table", "--nmin", "4", "--nmax", "8",
                   "--scheme", "multinomial", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,alpha2,alpha3,alpha4"
        row4 = lines[1].split(",")
        assert int(row4[0]) == 4
        a = alpha_coefficients(4, "multinomial")
        assert float(row4[1]) == a.alpha2
        assert float(row4[2]) == a.alpha3
        assert float(row4[3]) == a.alpha4

    def test_poissonized_rows_constant(self, tmp_path):
        out = tmp_path / "alpha.csv"
        main(["alpha-table", "--nmin", "2", "--nmax", "4", "--scheme", "poissonized",
              "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            _, a2, a3, a4 = line.split(",")
            assert (float(a2), float(a3), float(a4)) == (3.0, 1.0, 0.0)


class TestBootVar:
    def test_emits_estimate_and_limit(self, tmp_path, planar_pattern):
        out = tmp_path / "bv.json"
        rc = main(["boot-var", "--input", planar_pattern, "--f-spec", "box:r=0.05,b=0.01",
                   "--N", "2000", "--scheme", "multinomial", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        pat = ingest_pattern(planar_pattern)
        f = kernel_pair_function(KernelFunction("box", 0.01), 0.05, unit_square())
        assert doc["limit_closed_form"] == pytest.approx(
            bootstrap_variance_limit(pat, f, "multinomial"))
        assert doc["v_star_N"] > 0 and doc["v_star_N_err"] > 0
        assert abs(doc["v_star_N"] / doc["limit_closed_form"] - 1) < 0.25

    def test_thread_invariant_bytes(self, tmp_path, planar_pattern):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["boot-var", "--input", planar_pattern, "--f-spec", "box:r=0.05,b=0.01",
                "--N", "500", "--scheme", "poissonized", "--seed", "6"]
        main(base + ["--threads", "1", "--out", str(a)])
        main(base + ["--threads", "4", "--out", str(b)])
        assert sha(a) == sha(b)


class TestMoments:
    def test_json_structure(self, tmp_path, square_window):
        out = tmp_path / "m.json"
        rc = main(["moments", "--lambda", "2", "--window", square_window,
                   "--f-spec", "const:1", "--method", "mc", "--samples", "2000",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"s2", "s3", "s4", "e_theta", "errors"}
        assert doc["s2"] == pytest.approx(4.0)
        assert set(doc["errors"]) == {"s2", "s3", "s4", "e_theta"}

    @pytest.mark.parametrize("flags", [["--method", "quad"], ["--nodes", "10"]])
    def test_removed_options_rejected_by_parser(self, tmp_path, square_window, flags):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--lambda", "2", "--window", square_window, "--f-spec", "ones",
                  *flags, "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    def test_nonfinite_integrand_exit_code(self, tmp_path, square_window):
        rc = main(["moments", "--lambda", "2", "--window", square_window,
                   "--f-spec", "const:nan", "--method", "mc", "--samples", "2000",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 3


class TestCiBand:
    def test_csv_columns_and_flags(self, tmp_path, interval_pattern):
        out = tmp_path / "band.csv"
        rc = main(["ci-band", "--input", interval_pattern, "--h", "0.05",
                   "--alpha", "0.05", "--method", "exact", "--grid-steps", "12",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,lambda_hat,lo,hi,flag"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[4] == "edge"  # midpoint 1/24 is closer than h to the end
        lo, hi = float(first[2]), float(first[3])
        assert 0 <= lo <= hi

    def test_zero_count_fallback_flagged(self, tmp_path, interval_window):
        pat_csv = tmp_path / "sparse.csv"
        pat_csv.write_text("x\n0.95\n")
        (tmp_path / "sparse.json").write_text('{"window": {"lo": 0.0, "hi": 1.0}}')
        out = tmp_path / "band.csv"
        rc = main(["ci-band", "--input", str(pat_csv), "--h", "0.05", "--alpha", "0.05",
                   "--method", "closed", "--grid-steps", "4", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert any("zero-count" in row[4] for row in rows)


class TestCoverage:
    def test_csv_with_error_columns(self, tmp_path):
        out = tmp_path / "cov.csv"
        rc = main(["coverage", "--lambda-spec", "const:40", "--h", "0.1",
                   "--alpha", "0.1", "--method", "exact", "--reps", "200",
                   "--grid-steps", "4", "--seed", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("x,coverage_true_lambda,coverage_true_lambda_se,"
                            "coverage_e_lambda_hat,coverage_e_lambda_hat_se")
        assert len(lines) == 5

    def test_thread_invariant_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["coverage", "--lambda-spec", "linear:50,20", "--h", "0.05",
                "--alpha", "0.05", "--method", "closed", "--reps", "300",
                "--grid-steps", "5", "--seed", "12"]
        main(base + ["--threads", "1", "--out", str(a)])
        main(base + ["--threads", "3", "--out", str(b)])
        assert sha(a) == sha(b)


class TestConfigDriven:
    def test_variance_comparison_runs_and_is_deterministic(self, tmp_path):
        cfg = {
            "experiment": "variance_comparison",
            "lambda": 25.0,
            "window": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0},
            "f_spec": "box:r=0.1,b=0.05",
            "scheme": "poissonized",
            "reps": 40,
            "integration": {"method": "monte_carlo", "sample_count": 100000},
            "seed": 77,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["variance-comparison", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["variance-comparison", "--config", str(cfg_path), "--out", str(b)]) == 0
        assert sha(a) == sha(b)
        doc = json.loads(a.read_text())
        assert "mc_variance_theta" in doc["results"]

    def test_ci_suite_runs(self, tmp_path):
        cfg = {
            "experiment": "ci_suite",
            "lambda_spec": "linear:50,20",
            "interval": {"lo": 0.0, "hi": 1.0},
            "h": 0.05,
            "alpha": 0.05,
            "methods": ["exact_poisson"],
            "reps": 120,
            "grid_steps": 4,
            "mc_draws": 5000,
            "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "suite.json"
        assert main(["ci-suite", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "exact_poisson" in doc["results"]["coverage"]

    def test_ci_suite_thread_invariant_bytes(self, tmp_path):
        # 300 replicates span two blocks of the coverage simulation
        cfg = {
            "experiment": "ci_suite",
            "lambda_spec": "linear:50,20",
            "interval": {"lo": 0.0, "hi": 1.0},
            "h": 0.05,
            "alpha": 0.05,
            "methods": ["bootstrap_mc", "bootstrap_closed_form", "exact_poisson"],
            "reps": 300,
            "grid_steps": 5,
            "mc_draws": 5000,
            "seed": 8,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["ci-suite", "--config", str(cfg_path)]
        assert main(base + ["--threads", "1", "--out", str(a)]) == 0
        assert main(base + ["--threads", "2", "--out", str(b)]) == 0
        assert sha(a) == sha(b)
        assert sorted(json.loads(a.read_text())["results"]["coverage"]) == sorted(cfg["methods"])

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "ci_suite", "bogus": 1}))
        assert main(["ci-suite", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.json")]) == 2


_CI_BAND = ["ci-band", "--input", "{interval}", "--h", "0.1", "--alpha", "0.1"]
_COVERAGE = ["coverage", "--lambda-spec", "const:40", "--h", "0.1", "--alpha", "0.1",
             "--method", "exact", "--reps", "200"]
_BOOT_VAR = ["boot-var", "--input", "{planar}"]

_PARAM, _CONFIG = "parameter error: ", "config error: "
_VARIANCE_CONFIG = {"experiment": "variance_comparison", "lambda": 25.0,
                    "window": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0},
                    "f_spec": "ones", "scheme": "poissonized", "reps": 2,
                    "integration": {"method": "monte_carlo", "sample_count": 100000}, "seed": 1}
_CI_SUITE_CONFIG = {"experiment": "ci_suite", "lambda_spec": "const:40",
                    "interval": {"lo": 0.0, "hi": 1.0}, "h": 0.1, "alpha": 0.1,
                    "methods": ["exact_poisson"], "reps": 100, "grid_steps": 3, "seed": 1}

# numbers that are not finite JSON numbers, and an alpha outside (0, 1]
_CI_SUITE_BAD_NUMBERS = [("h", "string", "0.05"), ("alpha", "string", "0.05"),
                         ("seed", "true", True), ("h", "infinity", float("inf")),
                         ("alpha", "zero", 0.0), ("alpha", "above-one", 1.5)]

EXIT_CODES = [
    pytest.param(_BOOT_VAR + ["--f-spec", "ones", "--N", "0"], 2, _PARAM, id="boot-var-N-0"),
    pytest.param(_BOOT_VAR + ["--f-spec", "ones", "--N", "10", "--seed", "-1"], 2, _PARAM,
                 id="boot-var-seed--1"),
    pytest.param(_BOOT_VAR + ["--f-spec", "const:nan", "--N", "10"], 3, "numerical error: ",
                 id="boot-var-const-nan"),
    pytest.param(_BOOT_VAR + ["--f-spec", "ones", "--N", "1"], 2, _PARAM, id="boot-var-N-1"),
    pytest.param(_BOOT_VAR + ["--f-spec", "ones", "--N", "10", "--threads", "0"], 2, _PARAM,
                 id="boot-var-threads-0"),
    pytest.param(_BOOT_VAR + ["--f-spec", "ones", "--N", "10", "--threads", "-3"], 2, _PARAM,
                 id="boot-var-threads--3"),
    pytest.param(["alpha-table", "--nmin", "1", "--nmax", "3", "--threads", "0"], 2,
                 f"{_PARAM}threads must be at least 1", id="alpha-table-threads-0"),
    pytest.param(["ci-suite", "--config", "{ci_valid}", "--threads", "-1"], 2,
                 f"{_PARAM}threads must be at least 1", id="ci-suite-threads--1"),
    pytest.param(["variance-comparison", "--config", "{variance_reps_1}"], 2, _CONFIG,
                 id="variance-comparison-reps-1"),
    pytest.param(["ci-suite", "--config", "{ci_reps_50}"], 2, _CONFIG, id="ci-suite-reps-50"),
    pytest.param(["ci-suite", "--config", "{list_config}"], 2, _CONFIG, id="ci-suite-list-config"),
    pytest.param(["ci-suite", "--config", "{ci_mc_draws_10}"], 2, _CONFIG,
                 id="ci-suite-mc-draws-10"),
    pytest.param(["ci-suite", "--config", "{ci_repeated_method}"], 2, _CONFIG,
                 id="ci-suite-repeated-method"),
    pytest.param(["variance-comparison", "--config", "{missing}"], 2, _CONFIG,
                 id="variance-comparison-missing-config"),
    pytest.param(["variance-comparison", "--config", "{variance_nodes_per_axis}"], 2,
                 f"{_CONFIG}unknown integration keys", id="variance-comparison-nodes-per-axis"),
    pytest.param(["variance-comparison", "--config", "{variance_infinite_window}"], 2,
                 f"{_CONFIG}bad value for 'window'", id="variance-comparison-infinite-window"),
    pytest.param(["variance-comparison", "--config", "{variance_samples_string}"], 2,
                 f"{_CONFIG}bad value for 'integration'", id="variance-comparison-samples-string"),
    *(pytest.param(["ci-suite", "--config", f"{{ci_{key}_{name}}}"], 2,
                   f"{_CONFIG}bad value for '{key}'", id=f"ci-suite-{key}-{name}")
      for key, name, _ in _CI_SUITE_BAD_NUMBERS),
    pytest.param(["ci-band", "--input", "{interval}", "--h", "-0.1", "--alpha", "0.1",
                  "--method", "closed"], 2, _PARAM, id="ci-band-h--0.1"),
    pytest.param(["ci-band", "--input", "{interval}", "--h", "0.1", "--alpha", "2",
                  "--method", "closed"], 2, _PARAM, id="ci-band-alpha-2"),
    pytest.param(_CI_BAND + ["--method", "mc", "--mc-draws", "5"], 2, _PARAM,
                 id="ci-band-mc-draws-5"),
    pytest.param(_CI_BAND + ["--method", "closed", "--grid-steps", "0"], 2, _PARAM,
                 id="ci-band-grid-steps-0"),
    pytest.param(_CI_BAND + ["--method", "closed", "--grid-steps", "-2"], 2, _PARAM,
                 id="ci-band-grid-steps--2"),
    pytest.param(_COVERAGE + ["--grid-steps", "0"], 2, _PARAM, id="coverage-grid-steps-0"),
    pytest.param(_COVERAGE[:-4] + ["--method", "nonsense", "--reps", "200"], 2,
                 f"{_PARAM}unknown band method", id="coverage-unknown-method"),
    pytest.param(_COVERAGE + ["--grid-steps", "-2"], 2, _PARAM, id="coverage-grid-steps--2"),
    pytest.param(["coverage", "--lambda-spec", "const:0", "--h", "0.05", "--alpha", "0.05",
                  "--method", "oracle_true_t", "--reps", "100", "--grid-steps", "3"], 0, "",
                 id="coverage-oracle-zero-intensity"),
    pytest.param(["moments", "--lambda", "2", "--window", "{square}", "--f-spec", "ones",
                  "--samples", "10"], 2, _PARAM, id="moments-samples-10"),
    pytest.param(["moments", "--lambda", "2", "--window", "{line}", "--f-spec", "ones"], 2,
                 _PARAM, id="moments-interval-window"),
    pytest.param(["simulate", "--lambda-spec", "linear:50,20", "--window", "{square}"], 2,
                 _CONFIG, id="simulate-lambda-spec-planar-window"),
    pytest.param(["simulate", "--lambda", "1", "--window", "{infinite}"], 4, "data error: ",
                 id="simulate-infinite-window"),
    pytest.param(["simulate", "--lambda", "1", "--window", "{big}"], 2, _PARAM,
                 id="simulate-huge-expected-count"),
    pytest.param(["moments", "--lambda", "1", "--window", "{infinite}", "--f-spec", "ones",
                  "--samples", "1000"], 4, "data error: ", id="moments-infinite-window"),
    pytest.param(["ci-band", "--input", "{planar}", "--h", "0.1", "--alpha", "0.1",
                  "--method", "closed"], 2, _PARAM, id="ci-band-planar-pattern"),
    pytest.param(["pcf", "--input", "{duplicate}", "--window", "{square}", "--rmin", "0.01",
                  "--rmax", "0.1", "--rsteps", "3", "--bandwidth", "0.01"], 4, "data error: ",
                 id="pcf-duplicate-row"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, prefix", EXIT_CODES)
    def test_exit_code_table(self, tmp_path, capsys, planar_pattern, interval_pattern,
                             square_window, interval_window, argv, code, prefix):
        duplicate = tmp_path / "dup.csv"
        duplicate.write_text("x,y\n0.1,0.2\n0.1,0.2\n")
        infinite_window = {**_VARIANCE_CONFIG["window"], "x_max": float("inf")}
        infinite = tmp_path / "infinite.json"
        infinite.write_text(json.dumps({"window": infinite_window}))
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"window": {**_VARIANCE_CONFIG["window"], "x_max": 1e10,
                                              "y_max": 1e10}}))
        configs = {
            "variance_reps_1": {**_VARIANCE_CONFIG, "reps": 1},
            "variance_samples_string": {**_VARIANCE_CONFIG, "integration": {
                "method": "monte_carlo", "sample_count": "100000"}},
            "variance_nodes_per_axis": {**_VARIANCE_CONFIG, "integration": {
                "method": "monte_carlo", "sample_count": 100000, "nodes_per_axis": 32}},
            "variance_infinite_window": {**_VARIANCE_CONFIG, "window": infinite_window},
            "ci_reps_50": {**_CI_SUITE_CONFIG, "reps": 50},
            "list_config": [1, 2],
            "ci_valid": _CI_SUITE_CONFIG,
            "ci_mc_draws_10": {**_CI_SUITE_CONFIG, "mc_draws": 10},
            "ci_repeated_method": {**_CI_SUITE_CONFIG, "methods": ["exact_poisson"] * 2},
            **{f"ci_{key}_{name}": {**_CI_SUITE_CONFIG, key: value}
               for key, name, value in _CI_SUITE_BAD_NUMBERS},
        }
        paths = {"planar": planar_pattern, "interval": interval_pattern,
                 "square": square_window, "line": interval_window, "duplicate": str(duplicate),
                 "infinite": str(infinite), "big": str(big),
                 "missing": str(tmp_path / "none.json")}
        for name, cfg in configs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("interval", ["0,x", "0,1,2", "1", "1,0"])
    def test_bad_coverage_interval_exit_2(self, tmp_path, interval):
        rc = main(["coverage", "--lambda-spec", "const:40", "--interval", interval,
                   "--h", "0.1", "--alpha", "0.1", "--method", "exact", "--reps", "200",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_bad_config_window_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "ci_suite", "lambda_spec": "const:40",
            "interval": {"lo": None, "hi": 1}, "h": 0.1, "alpha": 0.1,
            "methods": ["exact_poisson"], "reps": 100, "grid_steps": 3, "seed": 1}))
        assert main(["ci-suite", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        rc = main(["variance-comparison", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 2


README = Path(__file__).resolve().parent.parent / "README.md"
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.PpbootError)]
# each error family: its word in README's exit-code sentence and its stderr label
FAMILIES = {errors.ConfigError: ("configuration", "config error"),
            errors.ParameterError: ("parameter", "parameter error"),
            errors.NumericalError: ("numerical", "numerical error"),
            errors.DataError: ("data", "data error"),
            errors.PpbootError: ("other", "error")}


def readme_exit_codes() -> dict[str, int]:
    """Each word of README's "Exit codes:" sentence, mapped to the code before it."""
    sentence = re.search(r"Exit codes:(.*?)\.", README.read_text(), re.S).group(1)
    codes, code = {}, None
    for token in re.findall(r"\d+|[a-z]+", sentence):
        if token.isdigit():
            code = int(token)
        else:
            codes[token] = code
    return codes


class TestErrorMapping:
    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_label_and_readme_exit_code(self, monkeypatch, capsys, cls):
        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "_cmd_alpha_table", fail)
        word, label = FAMILIES[next(base for base in cls.__mro__ if base in FAMILIES)]
        capsys.readouterr()
        assert main(["alpha-table", "--nmin", "1", "--nmax", "2"]) == readme_exit_codes()[word]
        assert capsys.readouterr().err == f"{label}: boom\n"
