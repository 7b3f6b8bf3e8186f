"""The benchmark tracer still finds every ppboot name it wraps.

``perfbench/tracing.py`` wraps functions and methods by name, and binds
the arguments of some of them by parameter name, so a renamed or removed
one, or a changed signature, fails here before a traced benchmark run.
"""
import json
import sys
from pathlib import Path

import numpy as np

import ppboot.cli
import ppboot.intensity
import ppboot.rng
import ppboot.twopoint
from ppboot.experiments import parse_f_spec
from ppboot.geometry import Interval1, PointPattern, unit_square
from ppboot.patternio import write_pattern

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracing import Tracer, install, layer_metrics  # noqa: E402


def test_install_then_uninstall_restores_every_name():
    before = (ppboot.intensity.t_star_monte_carlo, ppboot.rng.RngSeed.generator,
              ppboot.twopoint.PairFunction.pair_matrix)
    tracer = Tracer()
    install(tracer)
    try:
        assert ppboot.intensity.t_star_monte_carlo is not before[0]
    finally:
        tracer.uninstall()
    after = (ppboot.intensity.t_star_monte_carlo, ppboot.rng.RngSeed.generator,
             ppboot.twopoint.PairFunction.pair_matrix)
    assert after == before


def test_traced_commands_report_every_layer_metric(tmp_path):
    pattern = PointPattern(np.random.default_rng(5).random((40, 2)), unit_square())
    write_pattern(pattern, tmp_path / "pattern.csv")
    line = PointPattern(np.random.default_rng(6).random(60), Interval1(0.0, 1.0))
    write_pattern(line, tmp_path / "line.csv")
    config = {"experiment": "variance_comparison", "lambda": 20.0,
              "window": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0},
              "f_spec": "box:r=0.1,b=0.02", "scheme": "poissonized", "reps": 5,
              "integration": {"method": "monte_carlo", "sample_count": 20000}, "seed": 3}
    (tmp_path / "config.json").write_text(json.dumps(config))
    csv = str(tmp_path / "pattern.csv")
    commands = (
        ["pcf", "--input", csv, "--rmin", "0.05", "--rmax", "0.1", "--rsteps", "3",
         "--bandwidth", "0.01", "--out", str(tmp_path / "pcf.csv")],
        ["boot-var", "--input", csv, "--f-spec", "box:r=0.1,b=0.02", "--N", "50",
         "--out", str(tmp_path / "bootvar.json")],
        ["variance-comparison", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "vc.json")],
        ["ci-band", "--input", str(tmp_path / "line.csv"), "--h", "0.1", "--alpha", "0.1",
         "--method", "closed", "--out", str(tmp_path / "band.csv")],
        ["coverage", "--lambda-spec", "linear:20,200", "--h", "0.1", "--alpha", "0.1",
         "--method", "oracle_true_t", "--reps", "100", "--grid-steps", "4",
         "--out", str(tmp_path / "coverage.csv")],
    )
    tracer = Tracer()
    install(tracer)
    try:
        for argv in commands:
            assert ppboot.cli.main(argv) == 0
        assert tracer.aggregate()["twopoint.pair_matrix"]["calls"] == 0
        # the coverage run takes one oracle threshold per grid point
        assert tracer.aggregate()["intensity.t_alpha_oracle"]["calls"] == 4
        # the dense view goes through the tracer's counter, which needs an ndarray
        f = parse_f_spec("box:r=0.1,b=0.02", unit_square())
        f.pair_matrix(pattern.points)
        metrics = layer_metrics(tracer)
    finally:
        tracer.uninstall()
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    from_wall_times = {"rng.parallel_speedup", "trace.overhead_s"}  # set by perfbench/run.py
    assert [name for name in declared if name not in metrics and name not in from_wall_times] == []
    assert metrics["twopoint.pair_matrix.calls"][0] == 1
    assert metrics["twopoint.pair_matrix.nonzero_frac"][0] > 0
    assert metrics["bootstrap.resamples"][0] == 50
    # the tracer binds ``samples`` of _mc_mean by name: the config's sample count
    assert metrics["moments.samples"][0] == 20000
    # the Poisson cdf the tracer wraps is the one the closed-form threshold calls
    assert metrics["intensity.poisson_cdf.calls"][0] > 0
