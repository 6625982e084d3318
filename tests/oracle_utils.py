"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms than the
library uses (fsum loops instead of vectorised dot products, continued
fractions and bisection instead of scipy, explicit normal equations instead
of least-squares solvers) so that agreement between the two routes is
meaningful evidence rather than the same code tested against itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ratio_ci import PairedSample, TooFewObservations
from ratio_ci.bootstrap import _bca_from_distribution, _collect, _per_resample

# --------------------------------------------------------------------------
# Paired summary statistics, recomputed the slow way.


@dataclass(frozen=True)
class OracleStats:
    n: int
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    cov_xy: float


def summarize_oracle(xs, ys) -> OracleStats:
    """Two-pass compensated moments with unbiased (n-1) denominators."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two paired columns with at least two rows")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return OracleStats(n, mx, my, sxx / (n - 1), syy / (n - 1), sxy / (n - 1))


# --------------------------------------------------------------------------
# Student t distribution from first principles.
#
# CDF via the regularised incomplete beta function evaluated with Lentz's
# continued fraction; quantile via bisection on the CDF. Accurate to ~1e-12,
# which is far tighter than any tolerance the tests use.


def _betacf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _betainc_reg(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf_oracle(t: float, df: float) -> float:
    if df <= 0:
        raise ValueError("df must be positive")
    if t * t < 1e-9 * df:
        # df/(df+t^2) rounds to 1 here; linearize around the center instead
        # (the density has zero curvature at 0, so the error is O(t^3)).
        pdf0 = math.exp(math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df))
        return 0.5 + t * pdf0 / math.sqrt(df * math.pi)
    x = df / (df + t * t)
    tail = 0.5 * _betainc_reg(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def t_quantile_oracle(p: float, df: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    lo, hi = -1.0, 1.0
    while t_cdf_oracle(lo, df) > p:
        lo *= 2.0
    while t_cdf_oracle(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf_oracle(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * (1.0 + abs(lo)):
            break
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# Standard normal CDF and quantile, independent of scipy.


def norm_cdf_oracle(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def norm_quantile_oracle(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    lo, hi = -1.0, 1.0
    while norm_cdf_oracle(lo) > p:
        lo *= 2.0
    while norm_cdf_oracle(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# Brute-force membership scan for pivot-inversion confidence sets.


def t0_values(stats, rhos: np.ndarray) -> np.ndarray:
    """Pivot values (my - rho*mx)/sqrt(vy - 2 rho c + rho^2 vx), literally.

    `stats` is a package SummaryStats (variance/covariance of the means).
    """
    rhos = np.asarray(rhos, dtype=float)
    q = (
        stats.var_mean_y
        - 2.0 * rhos * stats.cov_mean_xy
        + rhos * rhos * stats.var_mean_x
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            q > 0.0,
            (stats.mean_y - rhos * stats.mean_x) / np.sqrt(np.where(q > 0, q, 1.0)),
            np.nan,
        )


def grid_scan_membership(
    stats, t_lo: float, t_hi: float, lo: float = -100.0, hi: float = 100.0,
    points: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the pivot on a uniform grid and test band membership directly.

    Returns (grid, member) where member[i] is True when
    t_lo <= T0(grid[i]) <= t_hi. Grid points where the variance form is not
    positive are treated as members (the band constraint is vacuous there).
    """
    grid = np.linspace(lo, hi, points)
    vals = t0_values(stats, grid)
    member = np.where(
        np.isnan(vals), True, (vals >= t_lo) & (vals <= t_hi)
    )
    return grid, member


def band_member(stats, t_lo: float, t_hi: float, rho: float) -> bool:
    q = stats.var_mean_y - 2.0 * rho * stats.cov_mean_xy + rho * rho * stats.var_mean_x
    if not q > 0.0:
        return True
    t0 = (stats.mean_y - rho * stats.mean_x) / math.sqrt(q)
    return t_lo <= t0 <= t_hi


def refine_boundary(stats, t_lo: float, t_hi: float, a: float, b: float) -> float:
    """Bisect a membership flip between grid points a and b to ~1e-13."""
    fa = band_member(stats, t_lo, t_hi, a)
    assert fa != band_member(stats, t_lo, t_hi, b), "no flip in bracket"
    for _ in range(120):
        mid = 0.5 * (a + b)
        if band_member(stats, t_lo, t_hi, mid) == fa:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def set_membership(cset, rhos: np.ndarray) -> np.ndarray:
    """Membership according to a ConfidenceSet, vectorised over rhos."""
    return np.fromiter((cset.contains(float(r)) for r in rhos), dtype=bool,
                       count=len(rhos))


def set_boundaries(cset) -> list[float]:
    """Finite boundary points of a confidence set (empty for whole-line)."""
    vals = [cset.lower, cset.upper, cset.excluded_lower, cset.excluded_upper]
    return [v for v in vals if v is not None and math.isfinite(v)]


# --------------------------------------------------------------------------
# Ordinary least squares via explicit normal equations.


def ols_normal_equations(y, X) -> np.ndarray:
    """Solve (X'X) beta = X'y directly. Distinct route from an SVD lstsq."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(X.T @ X, X.T @ y)


# --------------------------------------------------------------------------
# Textbook bias-corrected-and-accelerated interval from a given empirical
# distribution, with every ingredient implemented locally.


def quantile_linear_oracle(sorted_vals: list[float], q: float) -> float:
    """Linear interpolation quantile on pre-sorted data, done by hand."""
    n = len(sorted_vals)
    if n == 1:
        return sorted_vals[0]
    pos = q * (n - 1)
    k = int(math.floor(pos))
    if k >= n - 1:
        return sorted_vals[-1]
    frac = pos - k
    return sorted_vals[k] * (1.0 - frac) + sorted_vals[k + 1] * frac


def bca_oracle(values, theta_hat: float, jackknife, level: float):
    """(lower, upper) from the standard z0/acceleration construction."""
    vals = sorted(float(v) for v in values)
    b = len(vals)
    below = sum(1 for v in vals if v < theta_hat)
    if below == 0 or below == b:
        raise ValueError("z0 undefined: estimate outside resample range")
    z0 = norm_quantile_oracle(below / b)
    jk = [float(v) for v in jackknife]
    jbar = math.fsum(jk) / len(jk)
    d = [jbar - v for v in jk]
    denom = math.fsum(x * x for x in d) ** 1.5
    accel = 0.0 if denom == 0.0 else math.fsum(x ** 3 for x in d) / (6.0 * denom)
    alpha = (1.0 - level) / 2.0
    out = []
    for a_level in (alpha, 1.0 - alpha):
        z = z0 + norm_quantile_oracle(a_level)
        denom_a = 1.0 - accel * z
        if denom_a <= 0.0:
            adj = 1.0 if z > 0 else 0.0
        else:
            adj = norm_cdf_oracle(z0 + z / denom_a)
        out.append(quantile_linear_oracle(vals, min(max(adj, 0.0), 1.0)))
    return out[0], out[1]


# --------------------------------------------------------------------------
# A generic pair bootstrap: any statistic, one sample per resample. Unlike
# the oracles above it is built on the library's own resampling and BCa
# steps (bootstrap._per_resample, _collect, _bca_from_distribution), so it
# draws the same index blocks as the vectorized statistics and checks their
# arithmetic, not the resampling itself.


def resample_pairs(sample, config, statistic):
    """statistic on each of config.replications resamples of the pairs.

    Deterministic in config.seed. Non-finite evaluations are dropped and
    counted; more than 50% dropped is an error.
    """
    def block(idx):
        return np.array([statistic(PairedSample(sample.xs[row], sample.ys[row])) for row in idx])

    return _collect(
        _per_resample(config.seed, config.replications, sample.n, block), config.replications
    )


def bca_ci(sample, statistic, config, level: float):
    """BCa interval for any pair statistic: z0 from the resamples below the
    full-sample estimate, the acceleration from the leave-one-out jackknife,
    and the percentile interval with a warning when either is undefined."""
    n = sample.n
    if n < 3:
        raise TooFewObservations("BCa needs at least three pairs")
    dist = resample_pairs(sample, config, statistic)
    jack = [
        statistic(PairedSample(np.delete(sample.xs, i), np.delete(sample.ys, i)))
        for i in range(n)
    ]
    cset, _ = _bca_from_distribution(dist, statistic(sample), np.array(jack), level)
    return cset
