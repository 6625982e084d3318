"""Reference copy of the scalar band inversion (invert_t0_band with its
root finder and tangency_slopes), of the per-sample closed-form methods
(Fieller's diagnostics included) and of the per-run run_cell loop, as they
were before the methods became batch kernels, and of the pivot and ratio
bootstraps as they were before they shared one resampling.

The library now evaluates the closed-form methods and the band inversion
as one kernel each over stacked samples, and the public functions are
those kernels on a batch of one, so it keeps no scalar code of its own to
compare against. This copy is that scalar code: plain Python floats, one
sample at a time, every row through this file's invert_t0_band. The kernel
tests require bit equality with it, so change it only together with a
deliberate change of the numbers.
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
    DegenerateVariance,
    DomainError,
    FiellerDiagnostics,
    HwangDiagnostics,
    Method,
    MethodCoverage,
    MethodResult,
    NonFiniteResult,
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


# ------------------------------------------------- the scalar band inversion


def _real_roots(a: float, half_b: float, c: float) -> tuple[float, ...]:
    """Real roots of a*r^2 - 2*half_b*r + c = 0.

    Written in half-b form so the bounded-interval closed form
    (half_b -/+ sqrt(half_b^2 - a*c)) / a is reproduced bit for bit.
    """
    if a == 0.0:
        if half_b == 0.0:
            return ()
        return (c / (2.0 * half_b),)
    disc = half_b * half_b - a * c
    if disc < 0.0:
        scale = max(half_b * half_b, abs(a * c))
        # Tiny negative discriminants are rounding noise on a true zero.
        if -disc <= 1e-12 * scale:
            disc = 0.0
        else:
            return ()
    s = math.sqrt(disc)
    r1 = (half_b - s) / a
    r2 = (half_b + s) / a
    if r1 == r2:
        return (r1,)
    return (min(r1, r2), max(r1, r2))


def _band_coefficients(stats: SummaryStats, t: float) -> tuple[float, float, float]:
    t2 = t * t
    a = stats.mean_x * stats.mean_x - t2 * stats.var_mean_x
    half_b = stats.mean_x * stats.mean_y - t2 * stats.cov_mean_xy
    c = stats.mean_y * stats.mean_y - t2 * stats.var_mean_y
    return a, half_b, c


def tangency_slopes(stats: SummaryStats, quantile: float) -> tuple[float, ...]:
    """Slopes rho where the line y = rho*x satisfies T0(rho)^2 = quantile^2.

    These are the candidate boundary points of the symmetric confidence set
    and, geometrically, the slopes of lines through the origin tangent to the
    confidence ellipse of the two means. Zero, one, or two values, ascending.
    """
    return _real_roots(*_band_coefficients(stats, quantile))


def invert_t0_band(stats: SummaryStats, t_lo: float, t_hi: float) -> ConfidenceSet:
    """The set {rho : t_lo <= T0(rho) <= t_hi}.

    Boundary candidates come from the two quadratics T0(rho) = t_lo and
    T0(rho) = t_hi; membership of every segment between candidates is then
    settled by evaluating T0 at an interior probe, and the tails follow the
    limits T0(-inf) = mean_x/sd and T0(+inf) = -mean_x/sd. Spurious roots of
    the squared equations only add harmless extra cut points, so no separate
    sign filtering is required.
    """
    if not t_lo <= t_hi:
        raise DomainError("t_lo must not exceed t_hi")
    mx, my = stats.mean_x, stats.mean_y
    vx, vy, cxy = stats.var_mean_x, stats.var_mean_y, stats.cov_mean_xy

    if vx == 0.0 and vy == 0.0:
        if mx == 0.0:
            raise DegenerateVariance("both means are certain and the denominator is zero")
        r = my / mx
        return ConfidenceSet.bounded(r, r)

    if vx == 0.0:
        # cxy is forced to zero; T0 is linear in rho.
        if mx == 0.0:
            if t_lo <= my / math.sqrt(vy) <= t_hi:
                return ConfidenceSet.whole_line()
            raise DegenerateVariance("denominator mean and variance are both zero")
        sd = math.sqrt(vy)
        a = (my - t_hi * sd) / mx
        b = (my - t_lo * sd) / mx
        return ConfidenceSet.bounded(min(a, b), max(a, b))

    cuts = sorted(
        set(_real_roots(*_band_coefficients(stats, t_hi)))
        | set(_real_roots(*_band_coefficients(stats, t_lo)))
    )

    asymptote = mx / math.sqrt(vx)  # T0 -> +asymptote as rho -> -inf
    left_tail = t_lo <= asymptote <= t_hi
    right_tail = t_lo <= -asymptote <= t_hi

    def member(rho: float) -> bool:
        q = vy - 2.0 * rho * cxy + rho * rho * vx
        if not q > 0.0:
            return False
        return t_lo <= (my - rho * mx) / math.sqrt(q) <= t_hi

    if not cuts:
        if member(0.0):
            return ConfidenceSet.whole_line()
        raise NonFiniteResult("the band excludes every ratio value")

    bounds = [-math.inf, *cuts, math.inf]
    flags: list[bool] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == -math.inf:
            flags.append(left_tail)
        elif hi == math.inf:
            flags.append(right_tail)
        else:
            flags.append(member(0.5 * (lo + hi)))

    intervals: list[tuple[float, float]] = []
    i = 0
    while i < len(flags):
        if flags[i]:
            j = i
            while j + 1 < len(flags) and flags[j + 1]:
                j += 1
            intervals.append((bounds[i], bounds[j + 1]))
            i = j + 1
        i += 1

    if not intervals:
        # No segment has interior, but the set may still be a single touch
        # point: perfectly collinear pairs (where the pivot variance hits
        # zero) or a band edge grazing the pivot curve. Asymmetric bands
        # also produce spurious cuts where T0 equals the *other* edge's
        # magnitude; the membership check rejects those.
        tol = 1e-9 * (1.0 + max(abs(t_lo), abs(t_hi)))

        def boundary_member(rho: float) -> bool:
            q = vy - 2.0 * rho * cxy + rho * rho * vx
            if not q > 0.0:
                return True
            return t_lo - tol <= (my - rho * mx) / math.sqrt(q) <= t_hi + tol

        intervals = [
            (cut, cut)
            for k, cut in enumerate(cuts)
            if not flags[k] and not flags[k + 1] and boundary_member(cut)
        ]
    intervals.sort()

    if not intervals:
        raise NonFiniteResult("the band excludes every ratio value")
    if len(intervals) == 1:
        lo, hi = intervals[0]
        if lo == -math.inf and hi == math.inf:
            return ConfidenceSet.whole_line()
        if lo == -math.inf or hi == math.inf:
            # Half lines cannot be represented; take the conservative superset.
            return ConfidenceSet.whole_line()
        return ConfidenceSet.bounded(lo, hi)
    if (
        len(intervals) == 2
        and intervals[0][0] == -math.inf
        and intervals[1][1] == math.inf
        and math.isfinite(intervals[0][1])
        and math.isfinite(intervals[1][0])
    ):
        if intervals[0][1] == intervals[1][0]:
            return ConfidenceSet.whole_line()
        return ConfidenceSet.unbounded_exclusive(intervals[0][1], intervals[1][0])
    # Mixed shapes only arise for asymmetric bands that straddle exactly one
    # asymptote; again return the conservative superset.
    return ConfidenceSet.whole_line()


# ---------------------------------------------- the per-sample methods


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

    return _per_resample(config.seed, config.replications, n, block)


def ratio_distribution(sample, config):
    def block(idx):
        mx = sample.xs[idx].mean(axis=1)
        my = sample.ys[idx].mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mx != 0.0, my / mx, math.nan)

    return _collect(
        _per_resample(config.seed, config.replications, sample.n, block), config.replications
    )


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
        jack = _jackknife_t0(sample.xs, sample.ys, rho_hat)
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
                dist, theta_hat, _ratio_jackknife(sample.xs, sample.ys), spec.level
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
