"""Reference copy of the per-sample closed-form methods (Fieller's
diagnostics included) and of the per-run run_cell loop, as they were before
the methods became batch kernels, and of the pivot and ratio bootstraps as
they were before they shared one resampling.

The library now evaluates the closed-form methods as one kernel per method
over stacked samples, and the public functions are those kernels on a batch
of one, so it keeps no scalar code of its own to compare against. This copy
is that scalar code: plain Python floats, one sample at a time, every row
through invert_t0_band. The kernel tests require bit equality with it, so
change it only together with a deliberate change of the numbers.
"""

from __future__ import annotations

import copy
import math
from collections import Counter

import numpy as np

import ratio_ci.montecarlo as mc
from ratio_ci import (
    BootstrapConfig,
    BootstrapMethod,
    ConfidenceSet,
    ConfidenceSpec,
    CoverageResult,
    DomainError,
    FiellerDiagnostics,
    HwangDiagnostics,
    Method,
    MethodCoverage,
    MethodResult,
    PairedSample,
    RatioCiError,
    SetCase,
    SummaryStats,
    TooFewAfterTrim,
    TooFewObservations,
    TooFewReplicates,
    ZeroDenominator,
    ZeroIndividualDenominator,
    ZeroNumerator,
    invert_t0_band,
    percentile_ci,
    ratio_of_means,
)
from ratio_ci.bootstrap import (
    _bca_adjustment,
    _bca_from_distribution,
    _collect,
    _jackknife_t0,
    _per_resample,
    _percentile_levels,
    _ratio_jackknife,
)

CLOSED_FORM = (
    Method.FIELLER,
    Method.TAYLOR,
    Method.INDEX,
    Method.TRIMMED_INDEX,
    Method.ZERO_VARIANCE,
)
RATIO_BOOT = (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)


def summarize(sample: PairedSample) -> SummaryStats:
    n = sample.n
    if n < 2:
        raise TooFewObservations("need at least two pairs to estimate variances")
    xs, ys = sample.xs, sample.ys
    mean_x = float(xs.mean())
    mean_y = float(ys.mean())
    dx = xs - mean_x
    dy = ys - mean_y
    scale = 1.0 / (n * (n - 1))
    return SummaryStats(
        n=n,
        mean_x=mean_x,
        mean_y=mean_y,
        var_mean_x=float(dx @ dx) * scale,
        var_mean_y=float(dy @ dy) * scale,
        cov_mean_xy=float(dx @ dy) * scale,
        df=n - 1,
    )


def fieller_set(stats: SummaryStats, spec: ConfidenceSpec) -> MethodResult:
    cset = invert_t0_band(stats, -spec.quantile, spec.quantile)
    estimate = stats.mean_y / stats.mean_x if stats.mean_x != 0.0 else math.nan
    return MethodResult(Method.FIELLER, estimate, cset, fieller_diagnostics(stats, cset))


def fieller_diagnostics(stats: SummaryStats, cset: ConfidenceSet) -> FiellerDiagnostics:
    mx, my = stats.mean_x, stats.mean_y
    vx, vy, cxy = stats.var_mean_x, stats.var_mean_y, stats.cov_mean_xy
    if vx == 0.0:
        return FiellerDiagnostics(math.inf, math.inf, cset.case)
    denom_t2 = mx * mx / vx
    det = vx * vy - cxy * cxy
    resid = my * vx - mx * cxy
    if det > 0.0:
        t_unb2 = denom_t2 + resid * resid / (vx * det)
    elif resid == 0.0:
        t_unb2 = denom_t2
    else:
        t_unb2 = math.inf
    return FiellerDiagnostics(denom_t2, t_unb2, cset.case)


def taylor_limits(stats: SummaryStats, spec: ConfidenceSpec) -> MethodResult:
    if stats.mean_x * stats.mean_x == 0.0:
        raise ZeroDenominator("mean of x is zero or vanishes when squared")
    if stats.mean_y * stats.mean_y == 0.0:
        raise ZeroNumerator("mean of y is zero or vanishes when squared")
    rho = stats.mean_y / stats.mean_x
    arg = (
        stats.var_mean_x / (stats.mean_x * stats.mean_x)
        + stats.var_mean_y / (stats.mean_y * stats.mean_y)
        - 2.0 * stats.cov_mean_xy / (stats.mean_x * stats.mean_y)
    )
    half = spec.quantile * abs(rho) * math.sqrt(max(arg, 0.0))
    cset = ConfidenceSet.bounded(rho - half, rho + half)
    return MethodResult(Method.TAYLOR, rho, cset)


def _pair_ratios(sample: PairedSample) -> np.ndarray:
    zeros = np.flatnonzero(sample.xs == 0.0)
    if zeros.size:
        raise ZeroIndividualDenominator(zeros)
    return sample.ys / sample.xs


def index_limits(sample: PairedSample, spec: ConfidenceSpec) -> MethodResult:
    n = sample.n
    if n < 2:
        raise TooFewObservations("need at least two pairs")
    r = _pair_ratios(sample)
    rbar = float(r.mean())
    dev = r - rbar
    se = math.sqrt(float(dev @ dev) / (n - 1) / n)
    half = spec.quantile_for_df(n - 1) * se
    cset = ConfidenceSet.bounded(rbar - half, rbar + half)
    return MethodResult(Method.INDEX, rbar, cset)


def trimmed_index_limits(
    sample: PairedSample, spec: ConfidenceSpec, trim: float = 0.25
) -> MethodResult:
    if not 0.0 <= trim < 0.5:
        raise DomainError("trim must lie in [0, 0.5)")
    n = sample.n
    g = int(math.floor(trim * n))
    kept = n - 2 * g
    if kept < 2:
        raise TooFewAfterTrim(f"trimming {g} from each tail leaves {kept} of {n}")
    r = np.sort(_pair_ratios(sample))
    core = r[g : n - g]
    tmean = float(core.mean())
    winsorized = np.concatenate([np.full(g, core[0]), core, np.full(g, core[-1])])
    dev = winsorized - winsorized.mean()
    s_w = math.sqrt(float(dev @ dev) / (n - 1))
    se = s_w / ((1.0 - 2.0 * g / n) * math.sqrt(n))
    half = spec.quantile_for_df(kept - 1) * se
    cset = ConfidenceSet.bounded(tmean - half, tmean + half)
    return MethodResult(Method.TRIMMED_INDEX, tmean, cset)


def zero_variance_limits(sample: PairedSample, spec: ConfidenceSpec) -> MethodResult:
    stats = summarize(sample)
    if stats.mean_x == 0.0:
        raise ZeroDenominator("mean of x is exactly zero")
    rho = stats.mean_y / stats.mean_x
    half = spec.quantile * stats.sd_mean_y / abs(stats.mean_x)
    cset = ConfidenceSet.bounded(rho - half, rho + half)
    return MethodResult(Method.ZERO_VARIANCE, rho, cset)


# ------------------------------------------------ the separate bootstraps
# Each draws and gathers its own (B, n) index matrix from config.seed, in the
# library's blocks, and besides its result returns the reason its BCa step
# fell back to percentiles (None if it did not) and the replicates dropped.


def resample_t0(sample, config, rho_hat):
    n = sample.n
    scale = 1.0 / (n * (n - 1))

    def block(idx):
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


def ratio_distribution(sample, config):
    def block(idx):
        mx = sample.xs[idx].mean(axis=1)
        my = sample.ys[idx].mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mx != 0.0, my / mx, math.nan)

    return _collect(_per_resample(config, sample.n, block), config.replications)


def hwang_set(sample, config, spec):
    """(MethodResult, fallback reason, dropped replicates)."""
    n = sample.n
    if n < 3:
        raise TooFewObservations("pivot bootstrap needs at least three pairs")
    stats = summarize(sample)
    if stats.mean_x == 0.0:
        raise ZeroDenominator("mean of x is exactly zero")
    rho_hat = stats.mean_y / stats.mean_x
    t0s = resample_t0(sample, config, rho_hat)
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
    return MethodResult(Method.HWANG_BOOTSTRAP, rho_hat, cset, diag), fallback, dist.dropped


def ratio_bootstrap_results(sample, config, spec, methods=RATIO_BOOT):
    """{method: (MethodResult, fallback reason, dropped replicates)}."""
    if sample.n < 3:
        raise TooFewObservations("bootstrap ratio intervals need at least three pairs")
    wanted = [m for m in methods if m in RATIO_BOOT]
    if len(wanted) != len(methods):
        raise DomainError("only the two bootstrap ratio methods are supported here")
    dist = ratio_distribution(sample, config)
    theta_hat = ratio_of_means(sample)
    results = {}
    for m in wanted:
        fallback = None
        if m is Method.BOOTSTRAP_PERCENTILE:
            cset = percentile_ci(dist, spec.level)
        else:
            cset, fallback = _bca_from_distribution(
                dist, theta_hat, _ratio_jackknife(sample), spec.level
            )
        results[m] = MethodResult(m, theta_hat, cset), fallback, dist.dropped
    return results


def evaluate(sample, methods, spec, boot_config=None, trim=0.25):
    """(method, MethodResult | RatioCiError, fallback, dropped) per method,
    one sample at a time; fallback and dropped as in hwang_set above."""
    methods = tuple(methods)
    ratio_boot_wanted = tuple(m for m in methods if m in RATIO_BOOT)
    stats = summarize(sample)
    ratio_boot = None
    for method in methods:
        fallback, dropped = None, 0
        try:
            if method is Method.FIELLER:
                result = fieller_set(stats, spec)
            elif method is Method.TAYLOR:
                result = taylor_limits(stats, spec)
            elif method is Method.INDEX:
                result = index_limits(sample, spec)
            elif method is Method.TRIMMED_INDEX:
                result = trimmed_index_limits(sample, spec, trim)
            elif method is Method.ZERO_VARIANCE:
                result = zero_variance_limits(sample, spec)
            elif method is Method.HWANG_BOOTSTRAP:
                result, fallback, dropped = hwang_set(sample, boot_config, spec)
            else:
                if ratio_boot is None:
                    try:
                        ratio_boot = ratio_bootstrap_results(
                            sample, boot_config, spec, ratio_boot_wanted
                        )
                    except RatioCiError as exc:
                        ratio_boot = dict.fromkeys(ratio_boot_wanted, (exc, None, 0))
                result, fallback, dropped = ratio_boot[method]
        except RatioCiError as exc:
            result = exc
        yield method, result, fallback, dropped


def run_cell(cell, methods, runs, seed, boot_config=None, level=0.95, trim=0.25):
    """The per-run loop: draw a run, evaluate every method on it, tally."""
    method_order = tuple(m for m in Method if m in set(methods))
    if boot_config is None:
        boot_config = BootstrapConfig(method=BootstrapMethod.BCA)
    spec = ConfidenceSpec.two_sided(level, df=cell.n - 1)
    rho = cell.true_rho
    covered = dict.fromkeys(method_order, 0)
    unbounded = dict.fromkeys(method_order, 0)
    estimates = {m: [] for m in method_order}
    failures = {m: Counter() for m in method_order}
    fallbacks = {m: Counter() for m in method_order}
    dropped = dict.fromkeys(method_order, 0)
    redraws = 0
    for run in range(runs):
        sample, boot_seed, attempts = mc._draw_run(cell, seed, run)
        redraws += attempts
        run_config = copy.copy(boot_config)
        object.__setattr__(run_config, "seed", boot_seed)
        for method, result, fallback, drops in evaluate(
            sample, method_order, spec, run_config, trim
        ):
            if isinstance(result, RatioCiError):
                failures[method][type(result).__name__] += 1
                continue
            if fallback is not None:
                fallbacks[method][fallback] += 1
            dropped[method] += drops
            cset = result.confidence_set
            if cset.contains(rho):
                covered[method] += 1
            if cset.case is not SetCase.BOUNDED:
                unbounded[method] += 1
            if math.isfinite(result.estimate):
                estimates[method].append(result.estimate)
    tallies = {}
    for m in method_order:
        est = estimates[m]
        tallies[m] = MethodCoverage(
            runs=runs,
            covered=covered[m],
            unbounded_sets=unbounded[m],
            estimate_mean=float(np.mean(est)) if est else math.nan,
            estimate_variance=float(np.var(est, ddof=1)) if len(est) >= 2 else math.nan,
            failures=dict(sorted(failures[m].items())),
            fallbacks=dict(sorted(fallbacks[m].items())),
            dropped_replicates=dropped[m],
        )
    return CoverageResult(cell=cell, seed=seed, methods=tallies, redraws=redraws)
