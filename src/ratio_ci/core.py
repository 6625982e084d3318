"""Paired samples, their summaries, and Student-t quantiles.

Everything here is pure: outputs depend only on explicit arguments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._special import stdtrit
from .errors import DomainError, NonFiniteInput, TooFewObservations

__all__ = [
    "PairedSample",
    "SummaryStats",
    "ConfidenceSpec",
    "summarize",
    "t_quantile",
]


def _integer(value, name: str) -> int:
    """value as an int, where operator.index takes it (NumPy integers
    included); DomainError for anything else, a float among them."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _seed(value, name: str = "seed") -> int:
    """value as a non-negative int (see _integer); DomainError otherwise."""
    seed = _integer(value, name)
    if seed < 0:
        raise DomainError(f"{name} must be non-negative")
    return seed


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
        return cls(level=level, df=float(df), quantile=_upper_quantile(level, df))

    def quantile_for_df(self, df: float) -> float:
        """Quantile at this spec's level but another df (trimming changes df)."""
        if float(df) == self.df:
            return self.quantile
        return _upper_quantile(self.level, df)


def _upper_quantile(level: float, df: float) -> float:
    """The t quantile with 0.5*(1 - level) above it, read from that tail:
    the tail is exact for level >= 0.5 and at least 2^-54 below 1, where
    0.5*(1 + level) would round (to 1 at level 1 - 2^-53)."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    quantile = -t_quantile(0.5 * (1.0 - level), df)
    if quantile == 0.0:
        raise DomainError(f"level {level!r} is too small: its t quantile is 0")
    return quantile


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


def _row_deviations(a: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """a minus its row mean, and zero on a row of equal values. The rounded
    sum can put the mean of n equal values an ulp off them, which would give
    a constant column a nonzero variance and covariance."""
    d = a - mean[:, None]
    d[(d == d[:, :1]).all(axis=1)] = 0.0
    return d


def _summarize_rows(xs: np.ndarray, ys: np.ndarray) -> _RowSummaries:
    """summarize of each row of the (runs, n) arrays xs and ys, bit for bit.

    Row means reduce each contiguous row as the 1-D mean does, the
    deviations are _row_deviations, and the cross-products are _row_dots.
    Every row passes the checks of SummaryStats, or the error of the first
    row that fails is raised.
    """
    n = xs.shape[1]
    if n < 2:
        raise TooFewObservations("need at least two pairs to estimate variances")
    mean_x = xs.mean(axis=1)
    mean_y = ys.mean(axis=1)
    dx = _row_deviations(xs, mean_x)
    dy = _row_deviations(ys, mean_y)
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
    # exact Cauchy-Schwarz bound can fail its rounding-tolerant check. Far
    # from unit scale the squares overflow, silently: inf > inf flags nothing.
    with np.errstate(over="ignore"):
        outside = rows.cov_mean_xy**2 > rows.var_mean_x * rows.var_mean_y
    for i in np.flatnonzero(outside):
        rows.row(i)
    return rows


def summarize(sample: PairedSample) -> SummaryStats:
    """Means plus variance/covariance estimates of the sample means.

    Two-pass computation: deviations from the mean are formed explicitly
    before the quadratic sums, which keeps results comparable to a reference
    implementation of the same formulas at 1e-12 relative. A column of
    equal values has zero deviations.
    """
    return _summarize_rows(sample.xs[None], sample.ys[None]).row(0)


_stdtrit_cached = lru_cache(maxsize=1024)(stdtrit)


def t_quantile(p: float, df: float) -> float:
    """Student-t inverse CDF for p in [1e-100, 1); df=math.inf yields the
    normal quantile. No confidence level needs a p below 1e-100."""
    if not 1e-100 <= p < 1.0:
        raise DomainError("p must lie in [1e-100, 1)")
    df = float(df)
    if not df >= 1.0:
        raise DomainError("df must be >= 1 or infinite")
    return _stdtrit_cached(df, float(p))
