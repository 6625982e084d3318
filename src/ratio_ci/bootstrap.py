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

Resample indices are drawn in row blocks: one generator seeded with the
sample's seed draws integers(0, n, (rows, n)) for rows = max(1,
_BLOCK_ELEMENTS // n) at a time, the last block ragged, and each block's
per-resample statistics are computed before the next is drawn. Successive
draws from one generator continue the same stream, so the blocks
concatenate to the one-shot (B, n) index matrix and the block size changes
no number. Peak memory is O(rows·n + n) for any B, with rows·n at most
max(_BLOCK_ELEMENTS, n): the block's indices and gathered values and the
sample, besides the B floats of each statistic.

All three methods read the same config, so they are one kernel over the
rows of a batch of samples, _bootstrap_rows. Each row is resampled once,
from its own seed, for every requested method: each index block is
gathered once and its resample means taken once, and both the ratio
replicates and, when the pivot method runs, T0* come from them. The
per-row part ends with each distribution's quantiles; the preconditions,
the estimates, the inversion of every row's pivot band (one
methods._band_rows call) and the diagnostics are done once for the batch.
hwang_set and ratio_bootstrap_results are the kernel on a batch of one, so
requesting the methods together or apart, and a sample alone or among the
runs of a simulation, gives the same numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .core import ConfidenceSpec, PairedSample, _RowSummaries, _summarize_rows
from .errors import (
    AllResamplesDegenerate,
    DegenerateJackknife,
    DomainError,
    RatioCiError,
    TooFewObservations,
    TooFewReplicates,
    ZeroDenominator,
)
from .methods import ConfidenceSet, Method, MethodResult, _BOUNDED, _band_rows, _RowResults, _t0

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
    seed: int, replications: int, n: int, statistic: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """statistic(idx) for each block of resample indices, concatenated along
    the last axis to B = replications values (per row of the statistic, if
    it has rows); idx is a (rows, n) block of the one-shot (B, n) index
    matrix drawn from seed."""
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ELEMENTS // n)
    return np.concatenate(
        [
            statistic(_resample_indices(rng, min(rows, replications - start), n))
            for start in range(0, replications, rows)
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
    xs: np.ndarray,
    ys: np.ndarray,
    seed: int,
    replications: int,
    ratios: bool,
    rho_hat: float | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The ratio replicates (if ratios) and the pivots T0* at rho_hat (if
    rho_hat is not None) of the same B = replications resamples of the
    pairs (xs, ys) drawn from seed, from one pass.

    Each index block is gathered once and its means taken once. A ratio
    replicate is mean_y*/mean_x*, nan where mean_x* is zero; T0* is
    T0(mean_x*, mean_y*, rho_hat) with the resample's own variance
    estimates, nan where their pivot variance is not positive.
    """
    n = xs.size
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
        mx, dx = gather(xs, idx)
        my, dy = gather(ys, idx)
        out = []
        if ratios:
            with np.errstate(divide="ignore", invalid="ignore"):
                out.append(np.where(mx != 0.0, my / mx, math.nan))
        if rho_hat is not None:
            vx = np.einsum("ij,ij->i", dx, dx) * scale
            vy = np.einsum("ij,ij->i", dy, dy) * scale
            cxy = np.einsum("ij,ij->i", dx, dy) * scale
            q, t0 = _t0(mx, my, vx, vy, cxy, rho_hat)
            out.append(np.where(q > 0.0, t0, math.nan))
        return np.stack(out)

    stats = iter(_per_resample(seed, replications, n, block))
    return (next(stats) if ratios else None), (next(stats) if rho_hat is not None else None)


def _ratio_jackknife(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The ratio of means of each leave-one-out sample of the pairs."""
    sx = float(xs.sum())
    sy = float(ys.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sy - ys) / (sx - xs)


def _jackknife_t0(xs: np.ndarray, ys: np.ndarray, rho_hat: float) -> np.ndarray:
    """T0 of each leave-one-out sample of the pairs at the full-sample
    rho_hat, via running-sum identities (one vectorized pass instead of n
    summaries)."""
    m = xs.size - 1
    mx = (xs.sum() - xs) / m
    my = (ys.sum() - ys) / m
    ssx = np.maximum((xs @ xs - xs * xs) - m * mx * mx, 0.0)
    ssy = np.maximum((ys @ ys - ys * ys) - m * my * my, 0.0)
    sxy = (xs @ ys - xs * ys) - m * mx * my
    scale = 1.0 / (m * (m - 1))
    q = (ssy - 2.0 * rho_hat * sxy + rho_hat * rho_hat * ssx) * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0.0, (my - rho_hat * mx) / np.sqrt(q), math.nan)


def _bootstrap_rows(
    xs: np.ndarray,
    ys: np.ndarray,
    summaries: _RowSummaries | None,
    seeds: Sequence[int],
    config: BootstrapConfig,
    spec: ConfidenceSpec,
    methods: tuple[Method, ...],
) -> tuple[_RowResults, ...]:
    """The requested bootstrap methods on every row of the (rows, n) samples
    xs and ys, one _RowResults per method in `methods`.

    The preconditions come first: three pairs for every method, and for the
    pivot method a nonzero mean of x (summaries holds the rows' summaries;
    it is read only with three pairs). Then each row that some method still
    needs is resampled once, from seeds[i] with config.replications
    resamples (_resample), and each distribution is collected and its
    quantiles read: for the pivot method the band (t_lo, t_hi), for each
    ratio method its limits. An error there is the row's error for the pivot
    method, or for every requested ratio method, and wins over an error of
    the band inversion, which runs once for all rows.
    """
    rows, n = xs.shape
    ratio_methods = tuple(m for m in methods if m in _RATIO_BOOT_METHODS)
    if n < 3:
        pivot = TooFewObservations("pivot bootstrap needs at least three pairs")
        ratio = TooFewObservations("bootstrap ratio intervals need at least three pairs")
        return tuple(
            _RowResults.failing(rows, pivot if m is Method.HWANG_BOOTSTRAP else ratio)
            for m in methods
        )
    mx, my = summaries.mean_x, summaries.mean_y
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = np.where(mx != 0.0, my / mx, np.nan)
    pivots = (mx != 0.0) & (Method.HWANG_BOOTSTRAP in methods)
    # Per method and row: the band or the limits, the BCa fallback reason,
    # the replicates dropped and the error; and the pivot's BCa z0 and a.
    limits = {m: np.full((2, rows), np.nan) for m in methods}
    fallback: dict[Method, list[str | None]] = {m: [None] * rows for m in methods}
    dropped = {m: np.zeros(rows, dtype=np.int64) for m in methods}
    errors: dict[Method, dict[int, RatioCiError]] = {m: {} for m in methods}
    adjustment = [(None, None)] * rows
    if Method.HWANG_BOOTSTRAP in methods:
        zero = ZeroDenominator("mean of x is exactly zero")
        errors[Method.HWANG_BOOTSTRAP] = dict.fromkeys(np.flatnonzero(~pivots).tolist(), zero)
    for i in range(rows):
        if not (ratio_methods or pivots[i]):
            continue
        rho_hat = estimate[i] if pivots[i] else None
        ratios, t0s = _resample(
            xs[i], ys[i], seeds[i], config.replications, bool(ratio_methods), rho_hat
        )
        if rho_hat is not None:
            m = Method.HWANG_BOOTSTRAP
            try:
                dist = _collect(t0s, config.replications)
                if dist.count < 100:
                    raise TooFewReplicates(f"{dist.count} retained replications, need 100")
                if config.method is BootstrapMethod.BCA:
                    jack = _jackknife_t0(xs[i], ys[i], rho_hat)
                    lo_p, hi_p, z0, a, fallback[m][i] = _bca_adjustment(dist, 0.0, jack, spec.level)
                    adjustment[i] = z0, a
                else:
                    lo_p, hi_p = _percentile_levels(spec.level)
                limits[m][:, i] = dist.quantile([lo_p, hi_p])
                dropped[m][i] = dist.dropped
            except RatioCiError as exc:
                errors[m][i] = exc
        if ratio_methods:
            try:
                dist = _collect(ratios, config.replications)
                for m in ratio_methods:
                    if m is Method.BOOTSTRAP_PERCENTILE:
                        cset = percentile_ci(dist, spec.level)
                    else:
                        jack = _ratio_jackknife(xs[i], ys[i])
                        cset, fallback[m][i] = _bca_from_distribution(
                            dist, estimate[i], jack, spec.level
                        )
                    limits[m][:, i] = cset.lower, cset.upper
                    dropped[m][i] = dist.dropped
            except RatioCiError as exc:
                for m in ratio_methods:
                    errors[m][i] = exc

    results = []
    for m in methods:
        lower, upper = limits[m]
        case, diagnostics = np.full(rows, _BOUNDED, dtype=np.int8), None
        if m is Method.HWANG_BOOTSTRAP:
            lower, upper, case, band_errors = _band_rows(summaries, lower, upper)
            errors[m] = band_errors | errors[m]
            band, drops = limits[m], dropped[m]

            def diagnostics(i: int) -> HwangDiagnostics:
                t_lo, t_hi = band[:, i]
                return HwangDiagnostics(float(t_lo), float(t_hi), int(drops[i]), *adjustment[i])

        fields = (estimate, lower, upper, case, errors[m], diagnostics, fallback[m], dropped[m])
        results.append(_RowResults(*fields))
    return tuple(results)


def _sample_rows(
    sample: PairedSample, config: BootstrapConfig, spec: ConfidenceSpec, methods: tuple[Method, ...]
) -> tuple[_RowResults, ...]:
    """_bootstrap_rows on the batch of one sample, resampled from config.seed."""
    xs, ys = sample.xs[None], sample.ys[None]
    summaries = _summarize_rows(xs, ys) if sample.n >= 3 else None
    return _bootstrap_rows(xs, ys, summaries, (config.seed,), config, spec, methods)


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
    rows = _sample_rows(sample, config, spec, tuple(methods))
    return {m: r.result(m) for m, r in zip(methods, rows)}


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
    (rows,) = _sample_rows(sample, config, spec, (Method.HWANG_BOOTSTRAP,))
    return rows.result(Method.HWANG_BOOTSTRAP)
