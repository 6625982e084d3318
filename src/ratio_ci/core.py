"""Sample summaries, Student-t quantiles, and seeded bivariate normal draws.

Everything here is pure: outputs depend only on explicit arguments, and all
random generation is driven by caller-supplied seeds (independent PCG64
streams), so concurrent callers never share hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError, NonFiniteInput, TooFewObservations, ZeroMean

__all__ = [
    "PairedSample",
    "SummaryStats",
    "ConfidenceSpec",
    "BivariateNormalParams",
    "summarize",
    "coefficient_of_variation",
    "t_quantile",
    "sample_bivariate_normal",
]


def _validated_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise NonFiniteInput(f"{name} must be a one-dimensional sequence")
    if arr.size and not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Paired observations (x_i, y_i); x plays the denominator role."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = _validated_array(self.xs, "xs")
        ys = _validated_array(self.ys, "ys")
        if xs.size != ys.size:
            raise NonFiniteInput("xs and ys must have equal length")
        if xs.size < 1:
            raise TooFewObservations("need at least one pair")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.size


@dataclass(frozen=True)
class SummaryStats:
    """Means of both variables plus variances and covariance of those means.

    The second moments describe the *sample means*, i.e. they already carry
    the 1/n factor on top of the usual n-1 normalization.
    """

    n: int
    mean_x: float
    mean_y: float
    var_mean_x: float
    var_mean_y: float
    cov_mean_xy: float
    df: int

    def __post_init__(self):
        if self.var_mean_x < 0.0 or self.var_mean_y < 0.0:
            raise DomainError("variances of the means must be nonnegative")
        bound = self.var_mean_x * self.var_mean_y
        # Cauchy-Schwarz, with room for floating point rounding only.
        if self.cov_mean_xy * self.cov_mean_xy > bound * (1.0 + 1e-12) + 1e-300:
            raise DomainError("covariance exceeds the Cauchy-Schwarz bound")
        if self.df < 1:
            raise DomainError("df must be at least 1")

    @property
    def sd_mean_x(self) -> float:
        return math.sqrt(self.var_mean_x)

    @property
    def sd_mean_y(self) -> float:
        return math.sqrt(self.var_mean_y)


@dataclass(frozen=True)
class ConfidenceSpec:
    """A two-sided confidence requirement: level, df, and the matching
    upper-tail t quantile."""

    level: float
    df: float
    quantile: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise DomainError("level must lie strictly between 0 and 1")
        if not self.quantile > 0.0:
            raise DomainError("quantile must be positive")

    @classmethod
    def two_sided(cls, level: float, df: float) -> "ConfidenceSpec":
        return cls(level=level, df=float(df), quantile=t_quantile(0.5 * (1.0 + level), df))

    def quantile_for_df(self, df: float) -> float:
        """Quantile at this spec's level but another df (trimming changes df)."""
        if float(df) == self.df:
            return self.quantile
        return t_quantile(0.5 * (1.0 + self.level), df)


@dataclass(frozen=True)
class BivariateNormalParams:
    """Population parameters for correlated normal pairs."""

    mean_x: float
    mean_y: float
    sd_x: float
    sd_y: float
    corr: float = 0.0

    def __post_init__(self):
        if not (self.sd_x > 0.0 and self.sd_y > 0.0):
            raise DomainError("standard deviations must be strictly positive")
        if abs(self.corr) > 1.0:
            raise DomainError("correlation must lie in [-1, 1]")


@dataclass(frozen=True, eq=False)
class _RowSummaries:
    """The SummaryStats of every row of (runs, n) samples, as arrays of the
    five moments; row(i) is the SummaryStats of row i."""

    n: int
    df: int
    mean_x: np.ndarray
    mean_y: np.ndarray
    var_mean_x: np.ndarray
    var_mean_y: np.ndarray
    cov_mean_xy: np.ndarray

    @classmethod
    def of(cls, stats: SummaryStats) -> "_RowSummaries":
        """A batch of one."""
        moments = (stats.mean_x, stats.mean_y, stats.var_mean_x, stats.var_mean_y, stats.cov_mean_xy)
        return cls(stats.n, stats.df, *(np.array([value]) for value in moments))

    def row(self, i: int) -> SummaryStats:
        return SummaryStats(
            n=self.n,
            mean_x=float(self.mean_x[i]),
            mean_y=float(self.mean_y[i]),
            var_mean_x=float(self.var_mean_x[i]),
            var_mean_y=float(self.var_mean_y[i]),
            cov_mean_xy=float(self.cov_mean_xy[i]),
            df=self.df,
        )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row. The stacked matmul runs the dot kernel of
    the 1-D product on each row, so every value is bit-equal to it (einsum
    sums in another order)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _summarize_rows(xs: np.ndarray, ys: np.ndarray) -> _RowSummaries:
    """summarize of each row of the (runs, n) arrays xs and ys, bit for bit.

    Row means reduce each contiguous row as the 1-D mean does, and the
    cross-products are _row_dots. Every row passes the checks of
    SummaryStats, or the error of the first row that fails is raised.
    """
    n = xs.shape[1]
    if n < 2:
        raise TooFewObservations("need at least two pairs to estimate variances")
    mean_x = xs.mean(axis=1)
    mean_y = ys.mean(axis=1)
    dx = xs - mean_x[:, None]
    dy = ys - mean_y[:, None]
    scale = 1.0 / (n * (n - 1))
    rows = _RowSummaries(
        n=n,
        df=n - 1,
        mean_x=mean_x,
        mean_y=mean_y,
        var_mean_x=_row_dots(dx, dx) * scale,
        var_mean_y=_row_dots(dy, dy) * scale,
        cov_mean_xy=_row_dots(dx, dy) * scale,
    )
    # Variances of self-products are nonnegative, and only a row past the
    # exact Cauchy-Schwarz bound can fail its rounding-tolerant check.
    for i in np.flatnonzero(rows.cov_mean_xy**2 > rows.var_mean_x * rows.var_mean_y):
        rows.row(i)
    return rows


def summarize(sample: PairedSample) -> SummaryStats:
    """Means plus variance/covariance estimates of the sample means.

    Two-pass computation: deviations from the mean are formed explicitly
    before the quadratic sums, which keeps results comparable to a reference
    implementation of the same formulas at 1e-12 relative.
    """
    return _summarize_rows(sample.xs[None], sample.ys[None]).row(0)


def coefficient_of_variation(stats: SummaryStats) -> tuple[float, float]:
    """Signed coefficients of variation of the two sample means."""
    if stats.mean_x == 0.0 or stats.mean_y == 0.0:
        raise ZeroMean("coefficient of variation is undefined for a zero mean")
    return stats.sd_mean_x / stats.mean_x, stats.sd_mean_y / stats.mean_y


@lru_cache(maxsize=1024)
def _t_quantile_cached(p: float, df: float) -> float:
    if math.isinf(df):
        return float(special.ndtri(p))
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -_t_quantile_cached(1.0 - p, df)
    # Upper tail through the inverse regularized incomplete beta function.
    x = float(special.betaincinv(0.5 * df, 0.5, 2.0 * (1.0 - p)))
    if not 0.0 < x <= 1.0:
        raise DomainError(f"t quantile out of range for p={p}, df={df}")
    return math.sqrt(df * (1.0 - x) / x)


def t_quantile(p: float, df: float) -> float:
    """Student-t inverse CDF; df=math.inf yields the normal quantile."""
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly between 0 and 1")
    df = float(df)
    if not math.isinf(df) and df < 1.0:
        raise DomainError("df must be >= 1 or infinite")
    return _t_quantile_cached(float(p), df)


def _draw_pairs(params: BivariateNormalParams, n: int, rng: np.random.Generator) -> PairedSample:
    z = rng.standard_normal((2, n))
    xs = params.mean_x + params.sd_x * z[0]
    mix = params.corr * z[0] + math.sqrt(1.0 - params.corr * params.corr) * z[1]
    ys = params.mean_y + params.sd_y * mix
    return PairedSample(xs, ys)


def sample_bivariate_normal(params: BivariateNormalParams, n: int, seed) -> PairedSample:
    """Draw n correlated normal pairs, deterministically for a given seed.

    The generator is PCG64 with ziggurat standard normals; correlation is
    induced by a Cholesky mix of two independent standard normal streams.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    return _draw_pairs(params, n, np.random.default_rng(seed))
