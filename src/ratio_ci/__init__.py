"""Confidence sets for ratios of paired means, with the simulation and
regression tooling to see when the simple recipes break."""

from .bootstrap import (
    BootstrapConfig,
    BootstrapMethod,
    EmpiricalDistribution,
    HwangDiagnostics,
    bca_set,
    hwang_set,
    percentile_ci,
    percentile_set,
    ratio_bootstrap_results,
    ratio_of_means,
)
from .core import (
    BivariateNormalParams,
    ConfidenceSpec,
    PairedSample,
    SummaryStats,
    coefficient_of_variation,
    sample_bivariate_normal,
    summarize,
    t_quantile,
)
from .errors import (
    AllResamplesDegenerate,
    DegenerateJackknife,
    DegenerateVariance,
    DomainError,
    NonFiniteInput,
    NonFiniteResult,
    NonPositiveData,
    RankDeficient,
    RatioCiError,
    SingularCovariance,
    TooFewAfterTrim,
    TooFewObservations,
    TooFewReplicates,
    ZeroDenominator,
    ZeroIndividualDenominator,
    ZeroMean,
    ZeroNumerator,
)
from .geometry import (
    EllipseConstruction,
    construct_wedge,
    ellipse_boundary_points,
    wedge_csv_rows,
    wedge_svg,
)
from .linear_models import (
    RATIO_SLOPE_NOTE,
    ModelComparison,
    RegressionFit,
    SpuriousReport,
    allometric_fit,
    ancova_ratio_compare,
    deflated_fit,
    ols_fit,
    spurious_demo,
    stork_demo_table,
)
from .methods import (
    ConfidenceSet,
    FiellerDiagnostics,
    Method,
    MethodResult,
    SetCase,
    fieller_set,
    index_limits,
    invert_t0_band,
    point_estimate,
    t0_statistic,
    tangency_slopes,
    taylor_limits,
    trimmed_index_limits,
    zero_variance_limits,
)
from .montecarlo import (
    CoverageGrid,
    CoverageResult,
    ErrorBarExperiment,
    ErrorBarRun,
    GridSpec,
    MethodCoverage,
    SimCell,
    error_bar_experiment,
    errorbar_csv_rows,
    grid_csv_rows,
    run_cell,
    run_grid,
    thread_cap,
)

__version__ = "0.1.0"
