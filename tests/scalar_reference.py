"""Reference copy of the scalar band inversion (invert_t0_band with its
root finder and tangency_slopes), of the per-sample closed-form methods
(Fieller's diagnostics included) and of the per-run run_cell loop, as they
were before the methods became batch kernels, of the pivot and ratio
bootstraps as they were before they shared one resampling, and of the
per-run draw, one default_rng([seed, run, attempt]) per run, as it was
before the runs of a block were drawn without a generator each, and of the
reading of each bootstrap distribution, as it was before the three
bootstrap methods shared one collect-and-read step.

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
import warnings
from collections import Counter

import numpy as np

from ratio_ci import (
    AllResamplesDegenerate,
    BootstrapConfig,
    ConfidenceSet,
    ConfidenceSpec,
    CoverageResult,
    DegenerateJackknife,
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
)
from ratio_ci._special import ndtri
from ratio_ci.bootstrap import (
    _acceleration,
    _bca_levels,
    _jackknife_t0,
    _ratio_jackknife,
)

from oracle_utils import ratio_of_means

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

    With q = half_b + copysign(sqrt(disc), half_b), the roots are q/a and
    c/q, so neither subtracts nearly equal numbers; at a == 0, q is
    2*half_b and c/q the linear root c/(2*half_b).
    """
    disc = half_b * half_b - a * c
    if disc < 0.0:
        scale = max(half_b * half_b, abs(a * c))
        # Tiny negative discriminants are rounding noise on a true zero.
        if -disc <= 1e-12 * scale:
            disc = 0.0
        else:
            return ()
    q = half_b + math.copysign(half_b if a == 0.0 else math.sqrt(disc), half_b)
    if a == 0.0:
        return () if half_b == 0.0 else (c / q,)
    r1 = q / a
    r2 = r1 if q == 0.0 else c / q
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
    T0(rho) = t_hi; membership of every segment between candidates, the
    tails included, is then settled by one rule: each end rho is the
    direction (c, s) = (1, rho)/max(1, |rho|) of the line y = rho*x, (0, -1)
    at -inf and (0, 1) at inf, and T0 is set against each band edge on the
    line of the sum of the two ends' directions, scaled to a largest part of
    1, by the signs of T0, of the edge and, where those agree, of the edge's
    quadratic there over c. Spurious roots of the squared equations only
    add harmless extra cut points, so no separate sign filtering is
    required. Each run of member segments is one interval.
    """
    if not t_lo <= t_hi:
        raise DomainError("t_lo must not exceed t_hi")
    mx, my = stats.mean_x, stats.mean_y
    vx, vy, cxy = stats.var_mean_x, stats.var_mean_y, stats.cov_mean_xy

    if vx == 0.0 and vy == 0.0:
        if mx == 0.0:
            raise DegenerateVariance("both means are certain and the denominator is zero")
        r = my / mx
        return _closed_form_set(r, r)

    if vx == 0.0:
        # cxy is forced to zero; T0 is linear in rho.
        if mx == 0.0:
            if t_lo <= my / math.sqrt(vy) <= t_hi:
                return ConfidenceSet(((-math.inf, math.inf),))
            raise DegenerateVariance("denominator mean and variance are both zero")
        sd = math.sqrt(vy)
        a = (my - t_hi * sd) / mx
        b = (my - t_lo * sd) / mx
        return _closed_form_set(min(a, b), max(a, b))

    hi_coefficients = _band_coefficients(stats, t_hi)
    lo_coefficients = _band_coefficients(stats, t_lo)
    hi_roots, lo_roots = _real_roots(*hi_coefficients), _real_roots(*lo_coefficients)
    if not all(map(math.isfinite, hi_roots + lo_roots)):
        raise NonFiniteResult("a limit of the set is not finite")
    cuts = sorted(set(hi_roots) | set(lo_roots))

    def member(c: float, s: float) -> bool:
        """Whether T0 on the line in direction (c, s) lies in the band."""
        q = vy * c * c - 2.0 * s * c * cxy + s * s * vx
        if not q > 0.0:
            return False
        t0_sign = _sign((my * c - s * mx) / math.sqrt(q))

        def side(t: float, a: float, half_b: float, c0: float) -> int:
            """A number of the sign of T0 - t: T0's sign less t's where they
            differ, else T0's sign times that of q*(T0^2 - t^2)/c, the band
            quadratic a*s^2 - 2*half_b*s*c + c0*c^2 that gives the cuts over
            c > 0, which keeps it from underflowing where c is tiny."""
            if t0_sign != _sign(t):
                return t0_sign - _sign(t)
            return t0_sign * _sign(a * s * s / c - 2.0 * half_b * s + c0 * c)

        return side(t_lo, *lo_coefficients) >= 0 >= side(t_hi, *hi_coefficients)

    if not cuts:
        if member(1.0, 0.0):
            return ConfidenceSet(((-math.inf, math.inf),))
        raise NonFiniteResult("the band excludes every ratio value")

    bounds = [-math.inf, *cuts, math.inf]
    # min(max(rho, -1), 1) is rho/max(1, |rho|) exactly, and +-1 at +-inf.
    ends = [(1.0 / max(1.0, abs(rho)), min(max(rho, -1.0), 1.0)) for rho in bounds]
    sums = [(c1 + c2, s1 + s2) for (c1, s1), (c2, s2) in zip(ends, ends[1:])]
    # Scaled to a largest part of 1: q could underflow where the two nearly cancel.
    flags = [member(c / max(c, abs(s)), s / max(c, abs(s))) for c, s in sums]

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
        # No segment has interior, but the set may still be touch points:
        # perfectly collinear pairs (where the pivot variance hits zero) or
        # a band edge grazing the pivot curve. Asymmetric bands also produce
        # spurious cuts where T0 equals the *other* edge's magnitude; the
        # membership check rejects those.
        tol = 1e-9 * (1.0 + max(abs(t_lo), abs(t_hi)))

        def boundary_member(rho: float) -> bool:
            q = vy - 2.0 * rho * cxy + rho * rho * vx
            if not q > 0.0:
                return True
            return t_lo - tol <= (my - rho * mx) / math.sqrt(q) <= t_hi + tol

        intervals = [(cut, cut) for cut in cuts if boundary_member(cut)]

    if not intervals:
        raise NonFiniteResult("the band excludes every ratio value")
    return ConfidenceSet(tuple(intervals))


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _closed_form_set(lower: float, upper: float) -> ConfidenceSet:
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise NonFiniteResult("a limit of the set is not finite")
    return ConfidenceSet(((lower, upper),))


def _bounded(lower: float, upper: float) -> ConfidenceSet:
    """One closed interval, checked as the kernels check closed-form and
    bootstrap limits."""
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise NonFiniteResult("bounded interval limits must be finite")
    if lower > upper:
        raise NonFiniteResult("bounded interval limits out of order")
    return ConfidenceSet(((lower, upper),))


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
    if (dx == dx[0]).all():
        dx = np.zeros_like(dx)
    if (dy == dy[0]).all():
        dy = np.zeros_like(dy)
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
    return MethodResult(Method.FIELLER, estimate, cset, fieller_diagnostics(stats))


def fieller_diagnostics(stats: SummaryStats) -> FiellerDiagnostics:
    mx, my = stats.mean_x, stats.mean_y
    vx, vy, cxy = stats.var_mean_x, stats.var_mean_y, stats.cov_mean_xy
    if vx == 0.0:
        return FiellerDiagnostics(math.inf, math.inf)
    denom_t2 = mx * mx / vx
    det = vx * vy - cxy * cxy
    resid = my * vx - mx * cxy
    if det > 0.0:
        t_unb2 = denom_t2 + resid * resid / (vx * det)
    elif resid == 0.0:
        t_unb2 = denom_t2
    else:
        t_unb2 = math.inf
    return FiellerDiagnostics(denom_t2, t_unb2)


def taylor_limits(stats: SummaryStats, spec: ConfidenceSpec) -> MethodResult:
    if stats.mean_x == 0.0:
        raise ZeroDenominator("mean of x is exactly zero")
    rho = stats.mean_y / stats.mean_x
    q = stats.var_mean_y - 2.0 * rho * stats.cov_mean_xy + rho * rho * stats.var_mean_x
    half = spec.quantile * math.sqrt(max(q, 0.0)) / abs(stats.mean_x)
    cset = _bounded(rho - half, rho + half)
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
    cset = _bounded(rbar - half, rbar + half)
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
    r = _pair_ratios(sample)
    core = np.sort(r)[g : n - g] if g else r
    tmean = float(core.mean())
    winsorized = np.concatenate([np.full(g, core[0]), core, np.full(g, core[-1])])
    dev = winsorized - winsorized.mean()
    se = math.sqrt(float(dev @ dev) / (n - 1) / n) / (1.0 - 2.0 * g / n)
    half = spec.quantile_for_df(kept - 1) * se
    cset = _bounded(tmean - half, tmean + half)
    return MethodResult(Method.TRIMMED_INDEX, tmean, cset)


def zero_variance_limits(sample: PairedSample, spec: ConfidenceSpec) -> MethodResult:
    stats = summarize(sample)
    if stats.mean_x == 0.0:
        raise ZeroDenominator("mean of x is exactly zero")
    rho = stats.mean_y / stats.mean_x
    half = spec.quantile * stats.sd_mean_y / abs(stats.mean_x)
    cset = _bounded(rho - half, rho + half)
    return MethodResult(Method.ZERO_VARIANCE, rho, cset)


# ------------------------------------------------------ the per-run draw


def _draw_pairs(cell, rng):
    """Normal pairs around unit means, with the cell's CVs as their SDs."""
    z = rng.standard_normal((2, cell.n))
    xs = 1.0 + cell.cv_x * z[0]
    mix = cell.corr * z[0] + math.sqrt(1.0 - cell.corr * cell.corr) * z[1]
    ys = 1.0 + cell.cv_y * mix
    return PairedSample(xs, ys)


def _draw_run(cell, seed, run, draw_boot_seed=True):
    """Sample for one run plus its bootstrap seed (None unless
    draw_boot_seed) and the redraw count: a run with an exactly-zero x is
    redrawn from the next attempt's generator."""
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, run, attempt])
        sample = _draw_pairs(cell, rng)
        if not (sample.xs == 0.0).any():
            break
        attempt += 1
    boot_seed = int(rng.integers(0, 2**63)) if draw_boot_seed else None
    return sample, boot_seed, attempt


# --------------------------------------------- the separate distribution reads
# Each bootstrap distribution is its sorted finite values. The pivot bootstrap
# checks their count itself and picks its quantile levels; the ratio
# bootstraps read through percentile_ci and _bca_from_distribution, which
# check the level and the count again.


def _collect(values, replications):
    """(sorted finite values, number dropped)."""
    finite = values[np.isfinite(values)]
    dropped = replications - finite.size
    if dropped * 2 > replications:
        raise AllResamplesDegenerate(
            f"{dropped} of {replications} bootstrap draws were non-finite"
        )
    finite.sort()
    return finite, int(dropped)


def _percentile_levels(level):
    alpha = 1.0 - level
    return 0.5 * alpha, 1.0 - 0.5 * alpha


def _bca_adjustment(values, estimate, jackknife, level):
    """(lower p, upper p, z0, a, fallback reason) on the sorted values."""
    below = int(np.searchsorted(values, estimate, side="left"))
    if below == 0 or below == values.size:
        reason, category = "estimate outside the bootstrap distribution", RuntimeWarning
    elif not np.all(np.isfinite(jackknife)):
        reason, category = "non-finite jackknife values", RuntimeWarning
    else:
        a = _acceleration(jackknife)
        if a is not None:
            z0 = ndtri(below / values.size)
            return (*_bca_levels(z0, a, level), z0, a, None)
        reason, category = "all jackknife values coincide", DegenerateJackknife
    warnings.warn(f"{reason}; falling back to percentiles", category, stacklevel=2)
    return (*_percentile_levels(level), None, None, reason)


def percentile_ci(values, level):
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    if values.size < 100:
        raise TooFewReplicates(f"{values.size} retained replications, need 100")
    lo, hi = np.quantile(values, _percentile_levels(level))
    return _bounded(float(lo), float(hi))


def _bca_from_distribution(values, theta_hat, jackknife, level):
    """(the BCa interval, fallback reason)."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    if values.size < 100:
        raise TooFewReplicates(f"{values.size} retained replications, need 100")
    lo_p, hi_p, _, _, fallback = _bca_adjustment(values, theta_hat, jackknife, level)
    lo, hi = np.quantile(values, [lo_p, hi_p])
    return _bounded(float(lo), float(hi)), fallback


# ------------------------------------------------ the separate bootstraps
# Each draws and gathers its own (B, n) index matrix from config.seed in one
# shot, the matrix the library's index blocks concatenate to, and besides its
# result returns the reason its BCa step fell back to percentiles (None if it
# did not) and the replicates dropped.


def _indices(sample, config):
    rng = np.random.default_rng(config.seed)
    return rng.integers(0, sample.n, (config.replications, sample.n))


def resample_t0(sample, config, rho_hat):
    n = sample.n
    idx = _indices(sample, config)
    d = sample.ys[idx] - rho_hat * sample.xs[idx]
    first = d[:, 0]
    centred = d - first[:, None]
    shift = centred.mean(axis=1)
    dev = centred - shift[:, None]
    ss = np.array([row @ row for row in dev])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ss > 0.0, (first + shift) / np.sqrt(ss / (n * (n - 1))), math.nan)


def ratio_distribution(sample, config):
    idx = _indices(sample, config)
    mx = sample.xs[idx].mean(axis=1)
    my = sample.ys[idx].mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(mx != 0.0, my / mx, math.nan)
    return _collect(values, config.replications)


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
    values, dropped = _collect(t0s, config.replications)
    if values.size < 100:
        raise TooFewReplicates(f"{values.size} retained replications, need 100")
    jack = _jackknife_t0(sample.xs, sample.ys, rho_hat)
    lo_p, hi_p, z0, a, fallback = _bca_adjustment(values, 0.0, jack, spec.level)
    t_lo, t_hi = (float(v) for v in np.quantile(values, [lo_p, hi_p]))
    cset = invert_t0_band(stats, t_lo, t_hi)
    diag = HwangDiagnostics(t_lo, t_hi, dropped, z0, a)
    return MethodResult(Method.HWANG_BOOTSTRAP, rho_hat, cset, diag), fallback, dropped


def ratio_bootstrap_results(sample, config, spec, methods=RATIO_BOOT):
    """{method: (MethodResult, fallback reason, dropped replicates)}."""
    if sample.n < 3:
        raise TooFewObservations("bootstrap ratio intervals need at least three pairs")
    wanted = [m for m in methods if m in RATIO_BOOT]
    if len(wanted) != len(methods):
        raise DomainError("only the two bootstrap ratio methods are supported here")
    values, dropped = ratio_distribution(sample, config)
    theta_hat = ratio_of_means(sample)
    results = {}
    for m in wanted:
        fallback = None
        if m is Method.BOOTSTRAP_PERCENTILE:
            cset = percentile_ci(values, spec.level)
        else:
            cset, fallback = _bca_from_distribution(
                values, theta_hat, _ratio_jackknife(sample.xs, sample.ys), spec.level
            )
        results[m] = MethodResult(m, theta_hat, cset), fallback, dropped
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
        boot_config = BootstrapConfig()
    spec = ConfidenceSpec.two_sided(level, df=cell.n - 1)
    covered = dict.fromkeys(method_order, 0)
    unbounded = dict.fromkeys(method_order, 0)
    estimates = {m: [] for m in method_order}
    failures = {m: Counter() for m in method_order}
    fallbacks = {m: Counter() for m in method_order}
    dropped = dict.fromkeys(method_order, 0)
    redraws = 0
    for run in range(runs):
        sample, boot_seed, attempts = _draw_run(cell, seed, run)
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
            if cset.contains(1.0):  # the true ratio
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
