"""Pair resampling with percentile, BCa, and bootstrap-on-T0 confidence sets.

Plain percentile and BCa intervals bootstrap the ratio statistic directly
and are therefore always bounded; they cannot reproduce the unbounded cases
that an exact inversion produces when the denominator is indistinguishable
from zero. The bootstrap-on-T0 variant instead resamples the pivot
T0* = (mean_y* - rho_hat * mean_x*) / sd*(y - rho_hat x), reads off its
empirical band (t_lo, t_hi), and inverts t_lo <= T0(rho) <= t_hi with the
same machinery as the exact method, so it keeps all three set shapes.

Empirical quantiles use the interpolated order-statistic rule with plotting
positions (k - 1)/(B - 1) (numpy's default), applied consistently
everywhere a bootstrap distribution is read.

Resample indices are drawn in row blocks: one generator seeded with
config.seed draws integers(0, n, (rows, n)) for rows = max(1,
_BLOCK_ELEMENTS // n) at a time, the last block ragged, and each block's
per-resample statistics are computed before the next is drawn. Successive
draws from one generator continue the same stream, so the blocks
concatenate to the one-shot (B, n) index matrix and the block size changes
no number. Peak memory is O(rows·n + n) for any B, with rows·n at most
max(_BLOCK_ELEMENTS, n): the block's indices and gathered values and the
sample, besides the B floats of the statistic itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .core import ConfidenceSpec, PairedSample, summarize
from .errors import (
    AllResamplesDegenerate,
    DegenerateJackknife,
    DomainError,
    TooFewObservations,
    TooFewReplicates,
    ZeroDenominator,
)
from .methods import ConfidenceSet, Method, MethodResult, invert_t0_band

__all__ = [
    "BootstrapMethod",
    "BootstrapConfig",
    "EmpiricalDistribution",
    "HwangDiagnostics",
    "ratio_of_means",
    "percentile_ci",
    "percentile_set",
    "bca_set",
    "ratio_bootstrap_results",
    "hwang_set",
]

# The methods that bootstrap the ratio itself; they share one resampling.
_RATIO_BOOT_METHODS = (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)


class BootstrapMethod(str, Enum):
    PERCENTILE = "percentile"
    BCA = "bca"


@dataclass(frozen=True)
class BootstrapConfig:
    replications: int = 2000
    seed: int = 0
    method: BootstrapMethod = BootstrapMethod.PERCENTILE

    def __post_init__(self):
        if self.replications < 100:
            raise DomainError("need at least 100 bootstrap replications")
        if self.method is BootstrapMethod.BCA and self.replications < 1000:
            warnings.warn(
                "fewer than 1000 replications makes BCa quantile adjustment noisy",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted finite bootstrap values; dropped counts the non-finite draws."""

    values: np.ndarray
    count: int
    dropped: int = 0

    def __post_init__(self):
        if self.count != len(self.values):
            raise DomainError("count must equal the number of retained values")
        if self.count and not np.all(np.diff(self.values) >= 0.0):
            raise DomainError("values must be sorted ascending")

    def quantile(self, q) -> np.ndarray:
        return np.quantile(self.values, q)


@dataclass(frozen=True)
class HwangDiagnostics:
    """Empirical pivot band actually inverted, plus bookkeeping."""

    t_lower: float
    t_upper: float
    dropped_replicates: int
    bias_correction: float | None = None
    acceleration: float | None = None


def ratio_of_means(sample: PairedSample) -> float:
    """mean(y) / mean(x); nan when the denominator mean is exactly zero."""
    mx = float(sample.xs.mean())
    if mx == 0.0:
        return math.nan
    return float(sample.ys.mean()) / mx


# Index elements per resampling block (8 MiB of int64 indices).
_BLOCK_ELEMENTS = 1 << 20


def _resample_indices(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    return rng.integers(0, n, size=(rows, n))


def _per_resample(
    config: BootstrapConfig, n: int, statistic: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """statistic(idx) for each block of resample indices, concatenated to B
    values; idx is a (rows, n) block of the one-shot (B, n) index matrix."""
    rng = np.random.default_rng(config.seed)
    rows = max(1, _BLOCK_ELEMENTS // n)
    return np.concatenate([
        statistic(_resample_indices(rng, min(rows, config.replications - start), n))
        for start in range(0, config.replications, rows)
    ])


def _collect(values: np.ndarray, replications: int) -> EmpiricalDistribution:
    finite = values[np.isfinite(values)]
    dropped = replications - finite.size
    if dropped * 2 > replications:
        raise AllResamplesDegenerate(
            f"{dropped} of {replications} bootstrap draws were non-finite"
        )
    finite.sort()
    return EmpiricalDistribution(values=finite, count=int(finite.size), dropped=int(dropped))


def percentile_ci(dist: EmpiricalDistribution, level: float) -> ConfidenceSet:
    """Equal-tailed interval from the empirical alpha/2 quantiles."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    if dist.count < 100:
        raise TooFewReplicates(f"{dist.count} retained replications, need 100")
    lo, hi = dist.quantile(_percentile_levels(level))
    return ConfidenceSet.bounded(float(lo), float(hi))


def _percentile_levels(level: float) -> tuple[float, float]:
    alpha = 1.0 - level
    return 0.5 * alpha, 1.0 - 0.5 * alpha


def _acceleration(jackknife: np.ndarray):
    """Jackknife skewness constant; None when the values do not vary."""
    d = jackknife.mean() - jackknife
    ssq = float(d @ d)
    if ssq == 0.0:
        return None
    return float((d**3).sum() / (6.0 * ssq**1.5))


def _bca_levels(z0: float, a: float, level: float) -> tuple[float, float]:
    alpha = 1.0 - level
    out = []
    for p in (0.5 * alpha, 1.0 - 0.5 * alpha):
        num = z0 + ndtri(p)
        denom = 1.0 - a * num
        if denom <= 0.0:
            # Past the adjustment's pole; saturate at the distribution edge.
            out.append(1.0 if num > 0.0 else 0.0)
        else:
            out.append(float(ndtr(z0 + num / denom)))
    return out[0], out[1]


def _bca_adjustment(
    dist: EmpiricalDistribution,
    estimate: float,
    jackknife: np.ndarray,
    level: float,
    stacklevel: int,
) -> tuple[float, float, float | None, float | None]:
    """Quantile probabilities of the BCa interval, then z0 and a.

    z0 comes from the fraction of bootstrap values strictly below the
    full-sample estimate, the acceleration from the leave-one-out jackknife.
    When either is undefined this warns and returns the plain percentile
    probabilities with z0 and a None. stacklevel is counted from the
    caller, as in warnings.warn.
    """
    below = int(np.searchsorted(dist.values, estimate, side="left"))
    if below == 0 or below == dist.count:
        reason, category = "estimate outside the bootstrap distribution", RuntimeWarning
    elif not np.all(np.isfinite(jackknife)):
        reason, category = "non-finite jackknife values", RuntimeWarning
    else:
        a = _acceleration(jackknife)
        if a is not None:
            z0 = float(ndtri(below / dist.count))
            return (*_bca_levels(z0, a, level), z0, a)
        reason, category = "all jackknife values coincide", DegenerateJackknife
    warnings.warn(
        f"{reason}; falling back to percentiles", category, stacklevel=stacklevel + 1
    )
    return (*_percentile_levels(level), None, None)


def _bca_from_distribution(
    dist: EmpiricalDistribution,
    theta_hat: float,
    jackknife: np.ndarray,
    level: float,
) -> ConfidenceSet:
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    if dist.count < 100:
        raise TooFewReplicates(f"{dist.count} retained replications, need 100")
    lo_p, hi_p, _, _ = _bca_adjustment(dist, theta_hat, jackknife, level, stacklevel=3)
    lo, hi = dist.quantile([lo_p, hi_p])
    return ConfidenceSet.bounded(float(lo), float(hi))


def _ratio_distribution(
    sample: PairedSample, config: BootstrapConfig
) -> EmpiricalDistribution:
    """ratio_of_means on each resample of the pairs; non-finite ratios are
    dropped and counted, and more than 50% dropped is an error."""
    def block(idx: np.ndarray) -> np.ndarray:
        mx = sample.xs[idx].mean(axis=1)
        my = sample.ys[idx].mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mx != 0.0, my / mx, math.nan)

    return _collect(_per_resample(config, sample.n, block), config.replications)


def _ratio_jackknife(sample: PairedSample) -> np.ndarray:
    sx = float(sample.xs.sum())
    sy = float(sample.ys.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sy - sample.ys) / (sx - sample.xs)


def ratio_bootstrap_results(
    sample: PairedSample,
    config: BootstrapConfig,
    spec: ConfidenceSpec,
    methods: tuple[Method, ...] = _RATIO_BOOT_METHODS,
) -> dict[Method, MethodResult]:
    """Percentile and/or BCa sets for the ratio from one shared resampling.

    Drawing the empirical distribution once keeps the two intervals mutually
    consistent and halves the dominant cost when both are requested.
    """
    if sample.n < 3:
        raise TooFewObservations("bootstrap ratio intervals need at least three pairs")
    wanted = [m for m in methods if m in _RATIO_BOOT_METHODS]
    if len(wanted) != len(methods):
        raise DomainError("only the two bootstrap ratio methods are supported here")
    dist = _ratio_distribution(sample, config)
    theta_hat = ratio_of_means(sample)
    results: dict[Method, MethodResult] = {}
    for m in wanted:
        if m is Method.BOOTSTRAP_PERCENTILE:
            cset = percentile_ci(dist, spec.level)
        else:
            cset = _bca_from_distribution(
                dist, theta_hat, _ratio_jackknife(sample), spec.level
            )
        results[m] = MethodResult(m, theta_hat, cset)
    return results


def percentile_set(
    sample: PairedSample, config: BootstrapConfig, spec: ConfidenceSpec
) -> MethodResult:
    return ratio_bootstrap_results(sample, config, spec, (Method.BOOTSTRAP_PERCENTILE,))[
        Method.BOOTSTRAP_PERCENTILE
    ]


def bca_set(
    sample: PairedSample, config: BootstrapConfig, spec: ConfidenceSpec
) -> MethodResult:
    return ratio_bootstrap_results(sample, config, spec, (Method.BOOTSTRAP_BCA,))[
        Method.BOOTSTRAP_BCA
    ]


def _resample_t0(sample: PairedSample, config: BootstrapConfig, rho_hat: float) -> np.ndarray:
    """T0(mean_x*, mean_y*, rho_hat) on each resample, using the resample's
    own variance estimates; non-finite entries mark degenerate draws."""
    n = sample.n
    scale = 1.0 / (n * (n - 1))

    def block(idx: np.ndarray) -> np.ndarray:
        xs = sample.xs[idx]
        ys = sample.ys[idx]
        mx = xs.mean(axis=1)
        my = ys.mean(axis=1)
        dx = xs - mx[:, None]
        dy = ys - my[:, None]
        vx = np.einsum("ij,ij->i", dx, dx) * scale
        vy = np.einsum("ij,ij->i", dy, dy) * scale
        cxy = np.einsum("ij,ij->i", dx, dy) * scale
        q = vy - 2.0 * rho_hat * cxy + rho_hat * rho_hat * vx
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q > 0.0, (my - rho_hat * mx) / np.sqrt(q), math.nan)

    return _per_resample(config, n, block)


def _jackknife_t0(sample: PairedSample, rho_hat: float) -> np.ndarray:
    """T0 of each leave-one-out sample at the full-sample rho_hat, via
    running-sum identities (one vectorized pass instead of n summaries)."""
    xs, ys = sample.xs, sample.ys
    n = sample.n
    m = n - 1
    mx = (xs.sum() - xs) / m
    my = (ys.sum() - ys) / m
    ssx = np.maximum((xs @ xs - xs * xs) - m * mx * mx, 0.0)
    ssy = np.maximum((ys @ ys - ys * ys) - m * my * my, 0.0)
    sxy = (xs @ ys - xs * ys) - m * mx * my
    scale = 1.0 / (m * (m - 1))
    q = (ssy - 2.0 * rho_hat * sxy + rho_hat * rho_hat * ssx) * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0.0, (my - rho_hat * mx) / np.sqrt(q), math.nan)


def hwang_set(
    sample: PairedSample, config: BootstrapConfig, spec: ConfidenceSpec
) -> MethodResult:
    """Confidence set from bootstrapping the pivot rather than the ratio.

    The observed pivot value is T0(rho_hat) = 0 identically, so the BCa bias
    correction uses the fraction of resampled pivots below zero. The band
    (t_lo, t_hi) read from the pivot distribution is inverted analytically;
    with a symmetric band this reduces exactly to the closed-form set.
    """
    n = sample.n
    if n < 3:
        raise TooFewObservations("pivot bootstrap needs at least three pairs")
    stats = summarize(sample)
    if stats.mean_x == 0.0:
        raise ZeroDenominator("mean of x is exactly zero")
    rho_hat = stats.mean_y / stats.mean_x
    t0s = _resample_t0(sample, config, rho_hat)
    dist = _collect(t0s, config.replications)
    if dist.count < 100:
        raise TooFewReplicates(f"{dist.count} retained replications, need 100")

    if config.method is BootstrapMethod.BCA:
        jack = _jackknife_t0(sample, rho_hat)
        lo_p, hi_p, z0, a = _bca_adjustment(dist, 0.0, jack, spec.level, stacklevel=2)
    else:
        lo_p, hi_p = _percentile_levels(spec.level)
        z0 = a = None

    t_lo, t_hi = (float(v) for v in dist.quantile([lo_p, hi_p]))
    cset = invert_t0_band(stats, t_lo, t_hi)
    diag = HwangDiagnostics(t_lo, t_hi, dist.dropped, z0, a)
    return MethodResult(Method.HWANG_BOOTSTRAP, rho_hat, cset, diag)
