"""Confidence sets for ratios of paired means, with the simulation and
regression tooling to see when the simple recipes break."""

import os

# OpenBLAS splits a dot product of more than 10 000 elements across its
# threads, so on a long sample the last bits of a variance would depend on
# the machine's core count, and each such call leaves a worker spinning on
# a core after it returns. Its thread pool also costs start-up: on 2 vCPUs
# `import numpy` took about 70 ms more wall and CPU time with two OpenBLAS
# threads than with one, though no BLAS call follows (`simulate --help` 0.19
# against 0.26 s). One BLAS thread unless the caller set its own; it takes
# effect when this import is the first of numpy, as under the CLI.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bootstrap import BootstrapConfig, HwangDiagnostics
from .core import (
    ConfidenceSpec,
    PairedSample,
    SummaryStats,
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
    tangency_slopes,
    taylor_limits,
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
    evaluate_methods,
    grid_csv_rows,
    run_cell,
    run_grid,
    thread_cap,
)

__version__ = "0.1.0"
