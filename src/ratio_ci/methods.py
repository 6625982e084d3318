"""Closed-form confidence sets for the ratio of means rho = E(Y)/E(X).

The central object is the pivot

    T0(rho) = (mean_y - rho*mean_x) / sqrt(vy - 2*rho*cxy + rho^2*vx)

where vx, vy, cxy are the variance/covariance estimates of the sample means.
For paired data T0 is the one-sample t statistic of the differences
y_i - rho*x_i, so it carries an exact t distribution with df = n - 1 under
bivariate normality. Inverting |T0(rho)| <= t_q in rho gives the exact
confidence set, which is a bounded interval exactly when the denominator
mean differs significantly from zero, and otherwise either excludes a finite
interval or is the whole real line.

The same inversion, run with an asymmetric band t_lo <= T0(rho) <= t_hi,
serves the bootstrap-calibrated variant, so both share one code path here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    ConfidenceSpec,
    PairedSample,
    SummaryStats,
    _row_dots,
    _RowSummaries,
    _summarize_rows,
)
from .errors import (
    DegenerateVariance,
    DomainError,
    NonFiniteResult,
    RatioCiError,
    TooFewAfterTrim,
    TooFewObservations,
    ZeroDenominator,
    ZeroIndividualDenominator,
    ZeroNumerator,
)

__all__ = [
    "SetCase",
    "ConfidenceSet",
    "Method",
    "FiellerDiagnostics",
    "MethodResult",
    "point_estimate",
    "t0_statistic",
    "invert_t0_band",
    "tangency_slopes",
    "fieller_set",
    "taylor_limits",
    "index_limits",
    "trimmed_index_limits",
    "zero_variance_limits",
]


class SetCase(str, Enum):
    BOUNDED = "bounded"
    UNBOUNDED_EXCLUSIVE = "unbounded_exclusive"
    WHOLE_LINE = "whole_line"


@dataclass(frozen=True)
class ConfidenceSet:
    """A bounded interval, the complement of an open interval, or all of R."""

    case: SetCase
    lower: float | None = None
    upper: float | None = None
    excluded_lower: float | None = None
    excluded_upper: float | None = None

    @classmethod
    def bounded(cls, lower: float, upper: float) -> "ConfidenceSet":
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise NonFiniteResult("bounded interval limits must be finite")
        if lower > upper:
            raise NonFiniteResult("bounded interval limits out of order")
        return cls(SetCase.BOUNDED, lower=lower, upper=upper)

    @classmethod
    def unbounded_exclusive(cls, excluded_lower: float, excluded_upper: float) -> "ConfidenceSet":
        if not (math.isfinite(excluded_lower) and math.isfinite(excluded_upper)):
            raise NonFiniteResult("excluded interval limits must be finite")
        if not excluded_lower < excluded_upper:
            raise NonFiniteResult("excluded interval must be nonempty")
        return cls(
            SetCase.UNBOUNDED_EXCLUSIVE,
            excluded_lower=excluded_lower,
            excluded_upper=excluded_upper,
        )

    @classmethod
    def whole_line(cls) -> "ConfidenceSet":
        return cls(SetCase.WHOLE_LINE)

    def contains(self, value: float) -> bool:
        if self.case is SetCase.WHOLE_LINE:
            return True
        if self.case is SetCase.BOUNDED:
            return self.lower <= value <= self.upper
        return not (self.excluded_lower < value < self.excluded_upper)


class Method(str, Enum):
    FIELLER = "fieller"
    TAYLOR = "taylor"
    INDEX = "index"
    TRIMMED_INDEX = "trimmed_index"
    ZERO_VARIANCE = "zero_variance"
    BOOTSTRAP_PERCENTILE = "bootstrap_percentile"
    BOOTSTRAP_BCA = "bootstrap_bca"
    HWANG_BOOTSTRAP = "hwang_bootstrap"


@dataclass(frozen=True)
class FiellerDiagnostics:
    """Denominator significance and the threshold separating the two
    unbounded regimes. denom_t_squared > quantile^2 iff the set is bounded;
    otherwise t_unbounded_squared > quantile^2 iff a finite interval is
    excluded rather than the set being the whole line."""

    denom_t_squared: float
    t_unbounded_squared: float
    case: SetCase


@dataclass(frozen=True)
class MethodResult:
    """Estimate plus confidence set; diagnostics is a method-specific
    dataclass (FiellerDiagnostics here, the pivot-band record for the
    bootstrap-on-T0 method) or None."""

    method: Method
    estimate: float
    confidence_set: ConfidenceSet
    diagnostics: object | None = None


def point_estimate(stats: SummaryStats) -> float:
    """Ratio of the sample means."""
    if stats.mean_x == 0.0:
        raise ZeroDenominator("mean of x is exactly zero")
    return stats.mean_y / stats.mean_x


def t0_statistic(stats: SummaryStats, rho: float) -> float:
    """The pivot T0 at a hypothesized ratio."""
    q = stats.var_mean_y - 2.0 * rho * stats.cov_mean_xy + rho * rho * stats.var_mean_x
    if not q > 0.0:
        raise DegenerateVariance(f"variance of y - rho*x is not positive at rho={rho}")
    return (stats.mean_y - rho * stats.mean_x) / math.sqrt(q)


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


# ------------------------------------------------------------------ kernels
#
# One kernel per closed-form method, evaluated on a batch of samples at
# once: the rows of (runs, n) arrays, or their _RowSummaries. Each repeats
# the scalar arithmetic of its method elementwise and in the same order, so
# every row is bit-equal to the method applied to that row alone; the public
# functions below are the kernels on a batch of one.

# Case codes of _RowResults.case.
_CASES = (SetCase.BOUNDED, SetCase.UNBOUNDED_EXCLUSIVE, SetCase.WHOLE_LINE)
_BOUNDED, _EXCLUSIVE, _WHOLE = range(len(_CASES))


@dataclass(frozen=True, eq=False)
class _RowResults:
    """Per-row estimate and confidence set of one kernel call.

    lower/upper hold the limits of a bounded set or the excluded interval of
    an unbounded one (nan for the whole line), and case indexes _CASES.
    A row whose precondition fails has its error in `errors` and nothing
    meaningful in the arrays. diagnostics(i), where the method has any, is
    the diagnostics record of row i. The bootstrap methods also count, over
    the rows with a result, the BCa fallbacks by reason and the non-finite
    replicates dropped.
    """

    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    case: np.ndarray
    errors: dict[int, RatioCiError]
    diagnostics: Callable[[int], object] | None = None
    fallbacks: Mapping[str, int] = field(default_factory=dict)
    dropped_replicates: int = 0

    @classmethod
    def of(
        cls,
        results: Sequence[MethodResult | RatioCiError],
        fallbacks: Mapping[str, int] | None = None,
        dropped_replicates: int = 0,
    ) -> "_RowResults":
        """The rows of per-sample results or errors, one row each."""
        estimate, lower, upper = (np.full(len(results), np.nan) for _ in range(3))
        case = np.full(len(results), _BOUNDED, dtype=np.int8)
        errors: dict[int, RatioCiError] = {}
        diagnostics: list[object | None] = [None] * len(results)
        for i, result in enumerate(results):
            if isinstance(result, RatioCiError):
                errors[i] = result
                continue
            estimate[i] = result.estimate
            case[i], lower[i], upper[i] = _set_limits(result.confidence_set)
            diagnostics[i] = result.diagnostics
        diag = diagnostics.__getitem__
        return cls(estimate, lower, upper, case, errors, diag, fallbacks or {}, dropped_replicates)

    @property
    def failed(self) -> np.ndarray:
        failed = np.zeros(self.estimate.shape, dtype=bool)
        failed[list(self.errors)] = True
        return failed

    def contains(self, value: float) -> np.ndarray:
        """ConfidenceSet.contains(value) for every row; False where failed."""
        inside = (self.lower <= value) & (value <= self.upper)
        excluded = (self.lower < value) & (value < self.upper)
        whole = self.case == _WHOLE
        return np.where(self.case == _BOUNDED, inside, whole | ~excluded) & ~self.failed

    def result(self, method: Method, i: int = 0) -> MethodResult:
        """Row i as a MethodResult; raises the row's error if it has one."""
        if i in self.errors:
            raise self.errors[i]
        case = _CASES[self.case[i]]
        lower, upper = float(self.lower[i]), float(self.upper[i])
        if case is SetCase.BOUNDED:
            cset = ConfidenceSet.bounded(lower, upper)
        elif case is SetCase.UNBOUNDED_EXCLUSIVE:
            cset = ConfidenceSet.unbounded_exclusive(lower, upper)
        else:
            cset = ConfidenceSet.whole_line()
        diagnostics = None if self.diagnostics is None else self.diagnostics(i)
        return MethodResult(method, float(self.estimate[i]), cset, diagnostics)


def _set_limits(cset: ConfidenceSet) -> tuple[int, float, float]:
    """The case code and the lower/upper entries of cset in _RowResults."""
    if cset.case is SetCase.BOUNDED:
        return _BOUNDED, cset.lower, cset.upper
    if cset.case is SetCase.UNBOUNDED_EXCLUSIVE:
        return _EXCLUSIVE, cset.excluded_lower, cset.excluded_upper
    return _WHOLE, math.nan, math.nan


def _bounded_rows(
    estimate: np.ndarray, lower: np.ndarray, upper: np.ndarray, errors: dict[int, RatioCiError]
) -> _RowResults:
    """Bounded sets; rows that ConfidenceSet.bounded rejects get its error
    (rows that already failed keep their first error)."""
    for i in np.flatnonzero(~(np.isfinite(lower) & np.isfinite(upper)) | (lower > upper)):
        if int(i) not in errors:
            try:
                ConfidenceSet.bounded(float(lower[i]), float(upper[i]))
            except RatioCiError as exc:
                errors[int(i)] = exc
    case = np.full(estimate.shape, _BOUNDED, dtype=np.int8)
    return _RowResults(estimate, lower, upper, case, errors)


def _fieller_rows(m: _RowSummaries, quantile: float) -> _RowResults:
    """invert_t0_band(row, -quantile, quantile) for every row, with its
    FiellerDiagnostics.

    Rows with two distinct finite tangency slopes and a member segment take
    invert_t0_band's own steps here, elementwise: the slopes from the
    half-b quadratic, the tails from the asymptote and the middle segment
    from the pivot at its midpoint. Every other row (vx == 0, a zero,
    negative or tolerance-band discriminant, one root, no member segment)
    is handed to invert_t0_band itself.
    """
    mx, my = m.mean_x, m.mean_y
    vx, vy, cxy = m.var_mean_x, m.var_mean_y, m.cov_mean_xy
    with np.errstate(all="ignore"):
        estimate = np.where(mx != 0.0, my / mx, np.nan)
        t2 = quantile * quantile
        a = mx * mx - t2 * vx
        half_b = mx * my - t2 * cxy
        c = my * my - t2 * vy
        disc = half_b * half_b - a * c
        s = np.sqrt(disc)
        r1 = (half_b - s) / a
        r2 = (half_b + s) / a
        lower = np.minimum(r1, r2)
        upper = np.maximum(r1, r2)
        asymptote = mx / np.sqrt(vx)
        tails = (-quantile <= asymptote) & (asymptote <= quantile)
        mid = 0.5 * (lower + upper)
        q = vy - 2.0 * mid * cxy + mid * mid * vx
        t0 = (my - mid * mx) / np.sqrt(q)
        middle = (q > 0.0) & (-quantile <= t0) & (t0 <= quantile)
        # The diagnostics; vx == 0 gives det <= 0 and so t_unb2 = inf too.
        denom_t2 = np.where(vx == 0.0, np.inf, mx * mx / vx)
        det = vx * vy - cxy * cxy
        resid = my * vx - mx * cxy
        t_unb2 = np.where(
            det > 0.0,
            denom_t2 + resid * resid / (vx * det),
            np.where(resid == 0.0, denom_t2, np.inf),
        )
    fast = (
        (vx != 0.0)
        & (disc > 0.0)
        & (r1 != r2)
        & np.isfinite(r1)
        & np.isfinite(r2)
        & (tails | middle)
    )
    # Both tails share one flag, since the band is symmetric.
    case = np.where(tails, np.where(middle, _WHOLE, _EXCLUSIVE), _BOUNDED).astype(np.int8)
    errors: dict[int, RatioCiError] = {}
    for i in np.flatnonzero(~fast):
        i = int(i)
        try:
            cset = invert_t0_band(m.row(i), -quantile, quantile)
        except RatioCiError as exc:
            errors[i] = exc
            continue
        case[i], lower[i], upper[i] = _set_limits(cset)
    lower[case == _WHOLE] = upper[case == _WHOLE] = np.nan

    def diagnostics(i: int) -> FiellerDiagnostics:
        return FiellerDiagnostics(float(denom_t2[i]), float(t_unb2[i]), _CASES[case[i]])

    return _RowResults(estimate, lower, upper, case, errors, diagnostics)


def _taylor_rows(m: _RowSummaries, quantile: float) -> _RowResults:
    mx, my = m.mean_x, m.mean_y
    with np.errstate(all="ignore"):
        rho = my / mx
        arg = m.var_mean_x / (mx * mx) + m.var_mean_y / (my * my) - 2.0 * m.cov_mean_xy / (mx * my)
        # where(0 > arg, 0, arg) is Python's max(arg, 0.0), nan and -0.0 included.
        half = quantile * np.abs(rho) * np.sqrt(np.where(0.0 > arg, 0.0, arg))
        lower, upper = rho - half, rho + half
    errors: dict[int, RatioCiError] = {}
    # Squares of subnormal means underflow to zero, so guard the squares,
    # not the means themselves.
    for i in np.flatnonzero((mx * mx == 0.0) | (my * my == 0.0)):
        if mx[i] * mx[i] == 0.0:
            errors[int(i)] = ZeroDenominator("mean of x is zero or vanishes when squared")
        else:
            errors[int(i)] = ZeroNumerator("mean of y is zero or vanishes when squared")
    return _bounded_rows(rho, lower, upper, errors)


def _zero_variance_rows(m: _RowSummaries, quantile: float) -> _RowResults:
    mx = m.mean_x
    with np.errstate(all="ignore"):
        rho = m.mean_y / mx
        half = quantile * np.sqrt(m.var_mean_y) / np.abs(mx)
        lower, upper = rho - half, rho + half
    errors: dict[int, RatioCiError] = {
        int(i): ZeroDenominator("mean of x is exactly zero") for i in np.flatnonzero(mx == 0.0)
    }
    return _bounded_rows(rho, lower, upper, errors)


def _pair_ratio_rows(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, dict[int, RatioCiError]]:
    zero = xs == 0.0
    errors: dict[int, RatioCiError] = {
        int(i): ZeroIndividualDenominator(np.flatnonzero(zero[i]))
        for i in np.flatnonzero(zero.any(axis=1))
    }
    with np.errstate(all="ignore"):
        return ys / xs, errors


def _index_rows(xs: np.ndarray, ys: np.ndarray, spec: ConfidenceSpec) -> _RowResults:
    runs, n = xs.shape
    if n < 2:
        return _RowResults.of([TooFewObservations("need at least two pairs")] * runs)
    r, errors = _pair_ratio_rows(xs, ys)
    with np.errstate(all="ignore"):
        rbar = r.mean(axis=1)
        dev = r - rbar[:, None]
        se = np.sqrt(_row_dots(dev, dev) / (n - 1) / n)
        half = spec.quantile_for_df(n - 1) * se
        lower, upper = rbar - half, rbar + half
    return _bounded_rows(rbar, lower, upper, errors)


def _trimmed_index_rows(
    xs: np.ndarray, ys: np.ndarray, spec: ConfidenceSpec, trim: float
) -> _RowResults:
    runs, n = xs.shape
    if not 0.0 <= trim < 0.5:
        return _RowResults.of([DomainError("trim must lie in [0, 0.5)")] * runs)
    g = int(math.floor(trim * n))
    kept = n - 2 * g
    if kept < 2:
        error = TooFewAfterTrim(f"trimming {g} from each tail leaves {kept} of {n}")
        return _RowResults.of([error] * runs)
    r, errors = _pair_ratio_rows(xs, ys)
    r.sort(axis=1)
    core = r[:, g : n - g]
    with np.errstate(all="ignore"):
        tmean = core.mean(axis=1)
        # Winsorize in place: each tail takes the value of its core end.
        r[:, :g] = core[:, :1]
        r[:, n - g :] = core[:, -1:]
        dev = r - r.mean(axis=1)[:, None]
        s_w = np.sqrt(_row_dots(dev, dev) / (n - 1))
        se = s_w / ((1.0 - 2.0 * g / n) * math.sqrt(n))
        half = spec.quantile_for_df(kept - 1) * se
        lower, upper = tmean - half, tmean + half
    return _bounded_rows(tmean, lower, upper, errors)


# ---------------------------------------------------------- scalar methods


def fieller_set(stats: SummaryStats, spec: ConfidenceSpec) -> MethodResult:
    """Exact confidence set from inverting |T0(rho)| <= quantile.

    Bounded exactly when mean_x^2 / var_mean_x > quantile^2. When both
    variances are zero the ratio is known with certainty and the result is
    the degenerate interval at the observed ratio.
    """
    return _fieller_rows(_RowSummaries.of(stats), spec.quantile).result(Method.FIELLER)


def taylor_limits(stats: SummaryStats, spec: ConfidenceSpec) -> MethodResult:
    """First-order (delta method) interval around the ratio of means.

    Always a bounded interval: estimate +/- quantile * |estimate| * sqrt(
    vx/mean_x^2 + vy/mean_y^2 - 2*cxy/(mean_x*mean_y)).
    """
    return _taylor_rows(_RowSummaries.of(stats), spec.quantile).result(Method.TAYLOR)


def index_limits(sample: PairedSample, spec: ConfidenceSpec) -> MethodResult:
    """t interval for the mean of the per-pair ratios y_i/x_i.

    Note the estimand here is E(Y/X), not E(Y)/E(X); the two differ unless
    the denominator is noiseless.
    """
    return _index_rows(sample.xs[None], sample.ys[None], spec).result(Method.INDEX)


def trimmed_index_limits(
    sample: PairedSample, spec: ConfidenceSpec, trim: float = 0.25
) -> MethodResult:
    """Trimmed-mean t interval for the per-pair ratios.

    Drops the g = floor(trim*n) smallest and largest ratios, pairs the
    trimmed mean with the winsorized variance, and uses df = n - 2g - 1.
    With trim=0 this reduces to index_limits exactly.
    """
    rows = _trimmed_index_rows(sample.xs[None], sample.ys[None], spec, trim)
    return rows.result(Method.TRIMMED_INDEX)


def zero_variance_limits(sample: PairedSample, spec: ConfidenceSpec) -> MethodResult:
    """Interval that pretends the denominator mean is a known constant:
    estimate +/- quantile * sd_mean_y / |mean_x|."""
    rows = _zero_variance_rows(_summarize_rows(sample.xs[None], sample.ys[None]), spec.quantile)
    return rows.result(Method.ZERO_VARIANCE)
