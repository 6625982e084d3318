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
serves the bootstrap-calibrated variant, so both share one code path here:
_band_rows, one kernel over the rows of a batch with a band per row.
invert_t0_band is that kernel on a batch of one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

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
    q, t0 = _t0(
        stats.mean_x, stats.mean_y, stats.var_mean_x, stats.var_mean_y, stats.cov_mean_xy, rho
    )
    if not q > 0.0:
        raise DegenerateVariance(f"variance of y - rho*x is not positive at rho={rho}")
    return float(t0)


def tangency_slopes(stats: SummaryStats, quantile: float) -> tuple[float, ...]:
    """Slopes rho where the line y = rho*x satisfies T0(rho)^2 = quantile^2.

    These are the candidate boundary points of the symmetric confidence set
    and, geometrically, the slopes of lines through the origin tangent to the
    confidence ellipse of the two means. Zero, one, or two values, ascending.
    """
    first, second, count = _band_roots(_RowSummaries.of(stats), quantile)
    return (float(first[0]), float(second[0]))[: int(count[0])]


def invert_t0_band(stats: SummaryStats, t_lo: float, t_hi: float) -> ConfidenceSet:
    """The set {rho : t_lo <= T0(rho) <= t_hi}; _band_rows on a batch of one."""
    lower, upper, case, errors = _band_rows(_RowSummaries.of(stats), t_lo, t_hi)
    if errors:
        raise errors[0]
    return _confidence_set(case[0], lower[0], upper[0])


# ------------------------------------------------------------------ kernels
#
# One kernel per closed-form method, evaluated on a batch of samples at
# once: the rows of (runs, n) arrays, or their _RowSummaries. Each repeats
# the scalar arithmetic of its method elementwise and in the same order, so
# every row is bit-equal to the method applied to that row alone; the public
# functions below are the kernels on a batch of one. The band inversion is
# one such kernel, _band_rows, with no per-row fallback: Fieller's kernel
# runs it at (-q, q), and invert_t0_band, tangency_slopes and t0_statistic
# above are _band_rows, its root step _band_roots and the pivot _t0 on a
# batch of one.

# Case codes of _RowResults.case.
_CASES = (SetCase.BOUNDED, SetCase.UNBOUNDED_EXCLUSIVE, SetCase.WHOLE_LINE)
_BOUNDED, _EXCLUSIVE, _WHOLE = range(len(_CASES))


@dataclass(frozen=True, eq=False)
class _RowResults:
    """Per-row estimate and confidence set of one kernel call.

    lower/upper hold the limits of a bounded set or the excluded interval of
    an unbounded one (nan for the whole line), and case indexes _CASES.
    A row whose precondition fails, or whose bounded limits are not finite
    and in order, has its error in `errors` and nothing meaningful in the
    arrays. diagnostics(i), where the method has any, is
    the diagnostics record of row i. The bootstrap kernel also keeps, per
    row, the reason its BCa step fell back to percentiles (None if it did
    not) and the non-finite replicates dropped; fallbacks and
    dropped_replicates total them over the rows with a result.
    """

    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    case: np.ndarray
    errors: dict[int, RatioCiError]
    diagnostics: Callable[[int], object] | None = None
    fallback: Sequence[str | None] = ()
    dropped: Sequence[int] = ()

    def __post_init__(self):
        # A bounded row that ConfidenceSet.bounded rejects fails with its
        # error; a row that already failed keeps its first error.
        bad = ~(np.isfinite(self.lower) & np.isfinite(self.upper)) | (self.lower > self.upper)
        for i in np.flatnonzero(bad & (self.case == _BOUNDED)):
            if int(i) not in self.errors:
                try:
                    ConfidenceSet.bounded(float(self.lower[i]), float(self.upper[i]))
                except RatioCiError as exc:
                    self.errors[int(i)] = exc

    @classmethod
    def failing(cls, rows: int, error: RatioCiError) -> "_RowResults":
        """rows rows that all fail with error."""
        nan, case = np.full(rows, np.nan), np.full(rows, _BOUNDED, dtype=np.int8)
        return cls(nan, nan, nan, case, dict.fromkeys(range(rows), error))

    @property
    def failed(self) -> np.ndarray:
        failed = np.zeros(self.estimate.shape, dtype=bool)
        failed[list(self.errors)] = True
        return failed

    @property
    def fallbacks(self) -> Counter[str]:
        return Counter(r for r, bad in zip(self.fallback, self.failed) if r is not None and not bad)

    @property
    def dropped_replicates(self) -> int:
        return int(sum(d for d, bad in zip(self.dropped, self.failed) if not bad))

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
        cset = _confidence_set(self.case[i], self.lower[i], self.upper[i])
        diagnostics = None if self.diagnostics is None else self.diagnostics(i)
        return MethodResult(method, float(self.estimate[i]), cset, diagnostics)


def _confidence_set(case: int, lower: float, upper: float) -> ConfidenceSet:
    """The ConfidenceSet of a _RowResults case code and its lower/upper
    entries."""
    if case == _BOUNDED:
        return ConfidenceSet.bounded(float(lower), float(upper))
    if case == _EXCLUSIVE:
        return ConfidenceSet.unbounded_exclusive(float(lower), float(upper))
    return ConfidenceSet.whole_line()


def _bounded_rows(
    estimate: np.ndarray, lower: np.ndarray, upper: np.ndarray, errors: dict[int, RatioCiError]
) -> _RowResults:
    """Bounded sets, checked as _RowResults checks them."""
    case = np.full(estimate.shape, _BOUNDED, dtype=np.int8)
    return _RowResults(estimate, lower, upper, case, errors)


def _t0(mx, my, vx, vy, cxy, rho):
    """The variance q of y - rho*x's mean and the pivot T0 at rho,
    elementwise; T0 means nothing where q is not positive. t0_statistic,
    _band_rows' probes and the bootstrap's T0* all take this one order of
    arithmetic, so they agree bit for bit."""
    q = vy - 2.0 * rho * cxy + rho * rho * vx
    with np.errstate(divide="ignore", invalid="ignore"):
        return q, (my - rho * mx) / np.sqrt(q)


def _band_roots(m: _RowSummaries, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real roots of a*r^2 - 2*half_b*r + c = 0, the quadratic of
    T0(r)^2 = t^2, in every row: the first and second root, ascending, and
    how many there are (0, 1 or 2).

    The half-b form reproduces the bounded closed form
    (half_b -/+ sqrt(half_b^2 - a*c)) / a bit for bit. a == 0 leaves one
    linear root, a negative discriminant within 1e-12 of the larger of its
    terms is rounding noise on a double root, and equal roots count once.
    """
    mx, my = m.mean_x, m.mean_y
    with np.errstate(all="ignore"):
        t2 = t * t
        a = mx * mx - t2 * m.var_mean_x
        half_b = mx * my - t2 * m.cov_mean_xy
        c = my * my - t2 * m.var_mean_y
        disc = half_b * half_b - a * c
        noise = -disc <= 1e-12 * np.maximum(half_b * half_b, np.abs(a * c))
        s = np.sqrt(np.where((disc < 0.0) & noise, 0.0, disc))
        r1, r2 = (half_b - s) / a, (half_b + s) / a
        linear = c / (2.0 * half_b)
    # As Python's min(r1, r2) and max(r1, r2) pick them, signed zeros included.
    first = np.where(a == 0.0, linear, np.where(r2 < r1, r2, r1))
    second = np.where(r2 > r1, r2, r1)
    quadratic = np.where((disc < 0.0) & ~noise, 0, np.where(r1 == r2, 1, 2))
    return first, second, np.where(a == 0.0, half_b != 0.0, quadratic)


# The errors of _band_rows, by code; code 0 is none.
_BAND_ERRORS = (
    None,
    (DomainError, "t_lo must not exceed t_hi"),
    (DegenerateVariance, "both means are certain and the denominator is zero"),
    (DegenerateVariance, "denominator mean and variance are both zero"),
    (NonFiniteResult, "the band excludes every ratio value"),
)


def _band_rows(
    m: _RowSummaries, t_lo, t_hi
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, RatioCiError]]:
    """The set {rho : t_lo <= T0(rho) <= t_hi} of every row, as the lower,
    upper, case and errors entries of _RowResults; t_lo and t_hi are
    scalars or one value per row.

    The cuts are the distinct roots of T0(rho) = t_lo and T0(rho) = t_hi,
    ascending: at most four, so at most five segments. A segment between
    two cuts is a member if T0 at its midpoint lies in the band, and the
    tails follow the limits T0(-inf) = mean_x/sd and T0(+inf) = -mean_x/sd
    (with no cut, the probe is rho = 0). Spurious roots of the squared
    equations only add harmless cuts. One run of member segments is a
    bounded set, two runs reaching both infinities exclude the finite gap
    between them, and every other shape (a half-line, say) is widened to
    the whole line. With no member segment the set is the one cut where
    T0 is within 1e-9 of the band (collinear pairs, or a band edge grazing
    the pivot curve), the whole line if there are more, and empty if there
    are none. vx == 0 makes T0 linear in rho and is solved in closed form.
    Bounded limits that are not finite (an overflowed ratio) are rejected
    where they become a _RowResults or a ConfidenceSet.

    Every row is bit-equal to these steps in scalar floats on that row
    alone, with the cuts deduplicated as a set that keeps a t_hi root over
    an equal t_lo root, wherever no cut is nan (an overflowed quadratic,
    whose place no sort defines).
    """
    rows = m.mean_x.shape[0]
    mx, my = m.mean_x, m.mean_y
    vx, vy, cxy = m.var_mean_x, m.var_mean_y, m.cov_mean_xy
    t_lo, t_hi = np.broadcast_to(t_lo, (rows,)), np.broadcast_to(t_hi, (rows,))
    at = np.arange(rows)
    with np.errstate(all="ignore"):
        hi1, hi2, n_hi = _band_roots(m, t_hi)
        lo1, lo2, n_lo = _band_roots(m, t_lo)

        def new(root):
            return ~(((n_hi > 0) & (root == hi1)) | ((n_hi > 1) & (root == hi2)))

        kept = np.stack([n_hi > 0, n_hi > 1, (n_lo > 0) & new(lo1), (n_lo > 1) & new(lo2)], 1)
        cuts = np.sort(np.where(kept, np.stack([hi1, hi2, lo1, lo2], 1), np.inf), axis=1)
        k = kept.sum(axis=1)[:, None]  # k cuts, k + 1 segments
        edge = np.full((rows, 1), np.inf)
        bounds = np.concatenate([-edge, cuts, edge], axis=1)
        start, end = bounds[:, :-1], bounds[:, 1:]

        def band(rho, tol):
            """Whether the pivot variance at rho is positive, and whether T0
            is within tol of the band."""
            q, t0 = _t0(mx[:, None], my[:, None], vx[:, None], vy[:, None], cxy[:, None], rho)
            return q > 0.0, (t_lo[:, None] - tol <= t0) & (t0 <= t_hi[:, None] + tol)

        positive, inside = band(np.where(k == 0, 0.0, 0.5 * (start + end)), 0.0)
        asymptote = mx / np.sqrt(vx)
        left, right = (((t_lo <= v) & (v <= t_hi))[:, None] for v in (asymptote, -asymptote))
        interior = (k == 0) | ((start != -np.inf) & (end != np.inf))
        flags = np.where(interior, positive & inside, np.where(start == -np.inf, left, right))
        flags &= np.arange(5) <= k
        # +1 where a run of member segments starts, -1 past its end, at the
        # index of that bound.
        steps = np.diff(flags.astype(np.int8), prepend=0, append=0, axis=1)
        runs = (steps == 1).sum(axis=1)

        def bound(mask, last):
            j = 5 - np.argmax(mask[:, ::-1], axis=1) if last else np.argmax(mask, axis=1)
            return bounds[at, j]

        lower, upper = bound(steps == 1, False), bound(steps == -1, True)
        gap = bound(steps == -1, False), bound(steps == 1, True)

        tol = 1e-9 * (1.0 + np.maximum(np.abs(t_lo), np.abs(t_hi)))
        positive, inside = band(cuts, tol[:, None])
        touch = (np.arange(4) < k) & (~positive | inside)
        point = (runs == 0) & (touch.sum(axis=1) == 1)
        lower = np.where(point, cuts[at, np.argmax(touch, axis=1)], lower)
        upper = np.where(point, lower, upper)
        single = ((runs == 1) | point) & (lower != -np.inf) & (upper != np.inf)
        exclusive = (runs == 2) & (lower == -np.inf) & (upper == np.inf)
        exclusive &= np.isfinite(gap[0]) & np.isfinite(gap[1])
        lower, upper = np.where(exclusive, gap[0], lower), np.where(exclusive, gap[1], upper)

        # vx == 0: T0 = (my - rho*mx)/sqrt(vy) is linear in rho, or constant if mx == 0.
        certain = vx == 0.0
        both = certain & (vy == 0.0)
        flat = certain & ~both & (mx == 0.0)
        sd = np.sqrt(vy)
        a, b = (my - t_hi * sd) / mx, (my - t_lo * sd) / mx
        # min(a, b) and max(a, b) as Python picks them.
        lower = np.where(both, my / mx, np.where(certain, np.where(b < a, b, a), lower))
        upper = np.where(both, my / mx, np.where(certain, np.where(b > a, b, a), upper))
        shapes = [flat, certain | single, exclusive]
        case = np.select(shapes, [_WHOLE, _BOUNDED, _EXCLUSIVE], _WHOLE).astype(np.int8)
        code = np.select(
            [
                ~(t_lo <= t_hi),
                both & (mx == 0.0),
                flat & ~((t_lo <= my / sd) & (my / sd <= t_hi)),
                ~certain & (runs == 0) & ~touch.any(axis=1),
            ],
            [1, 2, 3, 4],
        )
    lower[case == _WHOLE] = upper[case == _WHOLE] = np.nan
    errors: dict[int, RatioCiError] = {}
    for i in np.flatnonzero(code):
        error, message = _BAND_ERRORS[code[i]]
        errors[int(i)] = error(message)
    return lower, upper, case, errors


def _fieller_rows(m: _RowSummaries, quantile: float) -> _RowResults:
    """invert_t0_band(row, -quantile, quantile) for every row, with the
    estimate and the FiellerDiagnostics."""
    mx, my = m.mean_x, m.mean_y
    vx, vy, cxy = m.var_mean_x, m.var_mean_y, m.cov_mean_xy
    with np.errstate(all="ignore"):
        estimate = np.where(mx != 0.0, my / mx, np.nan)
        # vx == 0 gives det <= 0 and so t_unb2 = inf too.
        denom_t2 = np.where(vx == 0.0, np.inf, mx * mx / vx)
        det = vx * vy - cxy * cxy
        resid = my * vx - mx * cxy
        t_unb2 = np.where(
            det > 0.0,
            denom_t2 + resid * resid / (vx * det),
            np.where(resid == 0.0, denom_t2, np.inf),
        )
    lower, upper, case, errors = _band_rows(m, -quantile, quantile)

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
        return _RowResults.failing(runs, TooFewObservations("need at least two pairs"))
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
        return _RowResults.failing(runs, DomainError("trim must lie in [0, 0.5)"))
    g = int(math.floor(trim * n))
    kept = n - 2 * g
    if kept < 2:
        error = TooFewAfterTrim(f"trimming {g} from each tail leaves {kept} of {n}")
        return _RowResults.failing(runs, error)
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
