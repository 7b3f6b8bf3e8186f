"""Pointwise bootstrap audits for point process statistics.

The library computes two-point statistics of planar point patterns, the
closed-form large-N limit of the pointwise bootstrap variance estimator
(multinomial or poissonized resampling weights), the integrated moments
that reveal the limit estimates 4*s3 + 6*s2 rather than the true
variance 4*s3 + 2*s2 under a Poisson truth, and pointwise confidence
bands for one-dimensional Poisson intensity functions by bootstrap
(Monte Carlo or closed form) and by exact Poisson-mean inversion.

The package exports the names of the README tour and the errors the
command line maps to exit codes; everything else is imported from its
submodule.
"""
from .bootstrap import bootstrap_variance, bootstrap_variance_limit
from .errors import ConfigError, DataError, NumericalError, ParameterError, PpbootError
from .geometry import (
    Interval1,
    linear_intensity,
    simulate_homogeneous_poisson,
    simulate_inhomogeneous_poisson,
    unit_square,
)
from .intensity import confidence_band
from .rng import RngSeed
from .twopoint import KernelFunction, kernel_pair_function, two_point_statistic

__version__ = "0.1.0"
