"""Pointwise bootstrap audits for point process statistics.

The library computes two-point statistics of planar point patterns, the
closed-form large-N limit of the pointwise bootstrap variance estimator
(multinomial or poissonized resampling weights), the integrated moments
that reveal the limit estimates 4*s3 + 6*s2 rather than the true
variance 4*s3 + 2*s2 under a Poisson truth, and pointwise confidence
bands for one-dimensional Poisson intensity functions by bootstrap
(Monte Carlo or closed form) and by exact Poisson-mean inversion.
"""
from .bootstrap import (
    SCHEMES,
    AlphaCoefficients,
    alpha_coefficients,
    alpha_polynomials_exact,
    bootstrap_statistics,
    bootstrap_variance,
    bootstrap_variance_limit,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateCountError,
    DuplicatePointError,
    InvalidBoundError,
    NumericalError,
    OutOfWindowError,
    ParameterError,
    PpbootError,
    UnattainableLevelError,
    UndefinedMomentError,
)
from .experiments import (
    ResultRecord,
    midpoint_grid,
    parse_f_spec,
    parse_lambda_spec,
    run_ci_suite,
    run_variance_comparison,
)
from .geometry import (
    IntensityFunction,
    Interval1,
    PointPattern,
    Window2,
    constant_intensity,
    linear_intensity,
    simulate_homogeneous_poisson,
    simulate_inhomogeneous_poisson,
    unit_square,
)
from .intensity import (
    BAND_METHODS,
    ConfidenceBand,
    CoverageResult,
    IntensityEstimate,
    TStarQuery,
    confidence_band,
    coverage_experiment,
    coverage_probability,
    kernel_intensity_estimate,
    t_alpha_oracle,
    t_star_closed_form,
    t_star_monte_carlo,
    t_star_monte_carlo_band,
)
from .moments import (
    INTEGRATION_METHODS,
    IntegrationSpec,
    MomentSet,
    expected_bootstrap_variance,
    s_moments_poisson,
    true_variance_poisson,
)
from .patternio import ingest_pattern, read_window, write_pattern, write_window
from .rng import RngSeed
from .twopoint import (
    KernelFunction,
    PairFunction,
    TwoPointSums,
    constant_pair_function,
    distinct_index_sums,
    estimate_product_density,
    kernel_pair_function,
    two_point_statistic,
)

__version__ = "0.1.0"
