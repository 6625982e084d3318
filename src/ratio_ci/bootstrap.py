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
sample, besides the B floats of each statistic.

All three methods read the same config, so they share one resampling per
sample: _bootstrap_outcomes gathers each index block once, takes the
resample means once, and derives from them both the ratio replicates and,
when the pivot method runs, T0*. hwang_set and ratio_bootstrap_results are
that one path on a subset of the methods, so requesting the methods
together or apart gives the same numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .core import ConfidenceSpec, PairedSample, SummaryStats, summarize
from .errors import (
    AllResamplesDegenerate,
    DegenerateJackknife,
    DomainError,
    RatioCiError,
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

# The methods that bootstrap the ratio itself; they share one distribution.
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
    """statistic(idx) for each block of resample indices, concatenated along
    the last axis to B values (per row of the statistic, if it has rows);
    idx is a (rows, n) block of the one-shot (B, n) index matrix."""
    rng = np.random.default_rng(config.seed)
    rows = max(1, _BLOCK_ELEMENTS // n)
    return np.concatenate(
        [
            statistic(_resample_indices(rng, min(rows, config.replications - start), n))
            for start in range(0, config.replications, rows)
        ],
        axis=-1,
    )


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
    dist: EmpiricalDistribution, estimate: float, jackknife: np.ndarray, level: float
) -> tuple[float, float, float | None, float | None, str | None]:
    """Quantile probabilities of the BCa interval, then z0, a and the reason
    for falling back (None if the adjustment was made).

    z0 comes from the fraction of bootstrap values strictly below the
    full-sample estimate, the acceleration from the leave-one-out jackknife.
    When either is undefined this warns, naming the caller's line, and
    returns the plain percentile probabilities with z0 and a None.
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
            return (*_bca_levels(z0, a, level), z0, a, None)
        reason, category = "all jackknife values coincide", DegenerateJackknife
    warnings.warn(f"{reason}; falling back to percentiles", category, stacklevel=2)
    return (*_percentile_levels(level), None, None, reason)


def _bca_from_distribution(
    dist: EmpiricalDistribution,
    theta_hat: float,
    jackknife: np.ndarray,
    level: float,
) -> tuple[ConfidenceSet, str | None]:
    """The BCa interval and the reason it fell back to percentiles, if it did."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    if dist.count < 100:
        raise TooFewReplicates(f"{dist.count} retained replications, need 100")
    lo_p, hi_p, _, _, fallback = _bca_adjustment(dist, theta_hat, jackknife, level)
    lo, hi = dist.quantile([lo_p, hi_p])
    return ConfidenceSet.bounded(float(lo), float(hi)), fallback


def _resample(
    sample: PairedSample, config: BootstrapConfig, ratios: bool, rho_hat: float | None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The ratio replicates (if ratios) and the pivots T0* at rho_hat (if
    rho_hat is not None) of the same B resamples, from one pass.

    Each index block is gathered once and its means taken once. A ratio
    replicate is mean_y*/mean_x*, nan where mean_x* is zero; T0* is
    T0(mean_x*, mean_y*, rho_hat) with the resample's own variance
    estimates, nan where their pivot variance is not positive.
    """
    n = sample.n
    scale = 1.0 / (n * (n - 1))

    def gather(values: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The row means of values[idx] and, for the pivot, the deviations
        from them, computed in place; the ratio alone keeps no (rows, n)
        array beyond this call."""
        gathered = values[idx]
        means = gathered.mean(axis=1)
        if rho_hat is None:
            return means, None
        return means, np.subtract(gathered, means[:, None], out=gathered)

    def block(idx: np.ndarray) -> np.ndarray:
        mx, dx = gather(sample.xs, idx)
        my, dy = gather(sample.ys, idx)
        out = []
        if ratios:
            with np.errstate(divide="ignore", invalid="ignore"):
                out.append(np.where(mx != 0.0, my / mx, math.nan))
        if rho_hat is not None:
            vx = np.einsum("ij,ij->i", dx, dx) * scale
            vy = np.einsum("ij,ij->i", dy, dy) * scale
            cxy = np.einsum("ij,ij->i", dx, dy) * scale
            q = vy - 2.0 * rho_hat * cxy + rho_hat * rho_hat * vx
            with np.errstate(divide="ignore", invalid="ignore"):
                out.append(np.where(q > 0.0, (my - rho_hat * mx) / np.sqrt(q), math.nan))
        return np.stack(out)

    stats = iter(_per_resample(config, n, block))
    return (next(stats) if ratios else None), (next(stats) if rho_hat is not None else None)


def _ratio_jackknife(sample: PairedSample) -> np.ndarray:
    sx = float(sample.xs.sum())
    sy = float(sample.ys.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sy - sample.ys) / (sx - sample.xs)


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


class _Outcome(NamedTuple):
    """One bootstrap method on one sample: its result or error, the reason
    its BCa step fell back to percentiles (None if it did not), and the
    non-finite replicates it dropped."""

    result: MethodResult | RatioCiError
    fallback: str | None = None
    dropped: int = 0

    def value(self) -> MethodResult:
        if isinstance(self.result, RatioCiError):
            raise self.result
        return self.result


def _hwang_outcome(
    sample: PairedSample,
    stats: SummaryStats,
    rho_hat: float,
    t0s: np.ndarray,
    config: BootstrapConfig,
    spec: ConfidenceSpec,
) -> _Outcome:
    """hwang_set's set from the resampled pivots T0* at rho_hat."""
    dist = _collect(t0s, config.replications)
    if dist.count < 100:
        raise TooFewReplicates(f"{dist.count} retained replications, need 100")
    fallback = None
    if config.method is BootstrapMethod.BCA:
        jack = _jackknife_t0(sample, rho_hat)
        lo_p, hi_p, z0, a, fallback = _bca_adjustment(dist, 0.0, jack, spec.level)
    else:
        lo_p, hi_p = _percentile_levels(spec.level)
        z0 = a = None
    t_lo, t_hi = (float(v) for v in dist.quantile([lo_p, hi_p]))
    cset = invert_t0_band(stats, t_lo, t_hi)
    diag = HwangDiagnostics(t_lo, t_hi, dist.dropped, z0, a)
    result = MethodResult(Method.HWANG_BOOTSTRAP, rho_hat, cset, diag)
    return _Outcome(result, fallback, dist.dropped)


def _ratio_outcomes(
    sample: PairedSample,
    ratios: np.ndarray,
    config: BootstrapConfig,
    spec: ConfidenceSpec,
    methods: tuple[Method, ...],
) -> dict[Method, _Outcome]:
    """Percentile and/or BCa sets, in order, from one ratio distribution."""
    dist = _collect(ratios, config.replications)
    theta_hat = ratio_of_means(sample)
    outcomes: dict[Method, _Outcome] = {}
    for m in methods:
        fallback = None
        if m is Method.BOOTSTRAP_PERCENTILE:
            cset = percentile_ci(dist, spec.level)
        else:
            cset, fallback = _bca_from_distribution(
                dist, theta_hat, _ratio_jackknife(sample), spec.level
            )
        outcomes[m] = _Outcome(MethodResult(m, theta_hat, cset), fallback, dist.dropped)
    return outcomes


def _bootstrap_outcomes(
    sample: PairedSample,
    config: BootstrapConfig,
    spec: ConfidenceSpec,
    methods: tuple[Method, ...],
) -> dict[Method, _Outcome]:
    """Every requested bootstrap method on one sample, from one resampling.

    The preconditions come first: three pairs for every method, and for the
    pivot method a summary with a nonzero mean of x. Then the resamples are
    drawn once for all the methods that passed (_resample), and each method
    is finished in request order. A method that fails has its error as its
    outcome and never stops another; an error of the ratio distribution or
    of either interval on it is the outcome of every requested ratio method.
    """
    ratio_methods = tuple(m for m in methods if m in _RATIO_BOOT_METHODS)
    outcomes: dict[Method, _Outcome] = {}
    rho_hat = None
    if sample.n < 3:
        if Method.HWANG_BOOTSTRAP in methods:
            error = TooFewObservations("pivot bootstrap needs at least three pairs")
            outcomes[Method.HWANG_BOOTSTRAP] = _Outcome(error)
        error = TooFewObservations("bootstrap ratio intervals need at least three pairs")
        outcomes.update(dict.fromkeys(ratio_methods, _Outcome(error)))
        return outcomes
    if Method.HWANG_BOOTSTRAP in methods:
        try:
            stats = summarize(sample)
            if stats.mean_x == 0.0:
                raise ZeroDenominator("mean of x is exactly zero")
            rho_hat = stats.mean_y / stats.mean_x
        except RatioCiError as exc:
            outcomes[Method.HWANG_BOOTSTRAP] = _Outcome(exc)
    if not ratio_methods and rho_hat is None:
        return outcomes
    ratios, t0s = _resample(sample, config, bool(ratio_methods), rho_hat)
    for method in methods:
        if method in outcomes:
            continue
        served = (method,) if method is Method.HWANG_BOOTSTRAP else ratio_methods
        try:
            if method is Method.HWANG_BOOTSTRAP:
                outcomes[method] = _hwang_outcome(sample, stats, rho_hat, t0s, config, spec)
            else:
                outcomes.update(_ratio_outcomes(sample, ratios, config, spec, ratio_methods))
        except RatioCiError as exc:
            outcomes.update(dict.fromkeys(served, _Outcome(exc)))
    return outcomes


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
    if any(m not in _RATIO_BOOT_METHODS for m in methods):
        raise DomainError("only the two bootstrap ratio methods are supported here")
    outcomes = _bootstrap_outcomes(sample, config, spec, tuple(methods))
    return {m: outcomes[m].value() for m in methods}


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


def hwang_set(
    sample: PairedSample, config: BootstrapConfig, spec: ConfidenceSpec
) -> MethodResult:
    """Confidence set from bootstrapping the pivot rather than the ratio.

    The observed pivot value is T0(rho_hat) = 0 identically, so the BCa bias
    correction uses the fraction of resampled pivots below zero. The band
    (t_lo, t_hi) read from the pivot distribution is inverted analytically;
    with a symmetric band this reduces exactly to the closed-form set.
    """
    outcomes = _bootstrap_outcomes(sample, config, spec, (Method.HWANG_BOOTSTRAP,))
    return outcomes[Method.HWANG_BOOTSTRAP].value()
