"""The benchmark tracer still finds every ppboot name it wraps.

``perfbench/tracing.py`` wraps functions and methods by name, so a
renamed or removed one fails here before a traced benchmark run.
"""
import sys
from pathlib import Path

import ppboot.intensity
import ppboot.rng
import ppboot.twopoint

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer, install  # noqa: E402


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
