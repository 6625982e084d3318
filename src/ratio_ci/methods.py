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
_band_rows, one kernel over the rows of a batch with a band per row. Each
set is a union of closed intervals, so the half-lines some asymmetric bands
give are sets too.

Taylor's (delta method) interval is T0 linearized at the estimate, and the
zero-variance interval is Taylor's with var(mean_x) and cov(mean_x, mean_y)
set to zero. The index interval is the trimmed index interval at trim 0.
On a sample every method runs through the registry in montecarlo
(evaluate_methods); fieller_set, taylor_limits and tangency_slopes take
the moments alone.

Geometrically rho is the slope of the line y = rho*x through the origin,
and the set is the wedge of lines on which T0 lies in the band. The band's
edges cross at most four lines, the cut slopes, so _band_rows reads the
wedge sector by sector between them, each sector on one line inside it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import ConfidenceSpec, SummaryStats, _row_dots, _RowSummaries
from .errors import (
    DegenerateVariance,
    DomainError,
    NonFiniteResult,
    RatioCiError,
    TooFewAfterTrim,
    ZeroDenominator,
    ZeroIndividualDenominator,
)

__all__ = [
    "SetCase",
    "ConfidenceSet",
    "Method",
    "FiellerDiagnostics",
    "MethodResult",
    "tangency_slopes",
    "fieller_set",
    "taylor_limits",
]


class SetCase(str, Enum):
    BOUNDED = "bounded"
    UNBOUNDED_EXCLUSIVE = "unbounded_exclusive"
    WHOLE_LINE = "whole_line"


@dataclass(frozen=True)
class ConfidenceSet:
    """A union of closed intervals: a sorted tuple of disjoint (lo, hi)
    pairs, of which only the first lo and the last hi may be infinite.
    lower and upper are the infimum and the supremum, and case is BOUNDED
    when both are finite, WHOLE_LINE for ((-inf, inf),) and
    UNBOUNDED_EXCLUSIVE for the line minus an interval, a half-line, or a
    half-line and an interval."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ends = [end for interval in self.intervals for end in interval]
        # Each lo <= its hi < the next lo, nan nowhere, inf only at the ends.
        ordered = all(a < b if k % 2 else a <= b for k, (a, b) in enumerate(zip(ends, ends[1:])))
        inner = all(map(math.isfinite, ends[1:-1]))
        if not (ends and ordered and inner and ends[0] < math.inf and ends[-1] > -math.inf):
            raise NonFiniteResult("a confidence set is ordered, disjoint closed intervals")

    @property
    def lower(self) -> float:
        return self.intervals[0][0]

    @property
    def upper(self) -> float:
        return self.intervals[-1][1]

    @property
    def case(self) -> SetCase:
        if math.isfinite(self.lower) and math.isfinite(self.upper):
            return SetCase.BOUNDED
        if self.intervals == ((-math.inf, math.inf),):
            return SetCase.WHOLE_LINE
        return SetCase.UNBOUNDED_EXCLUSIVE

    def _gap(self) -> tuple[float | None, float | None]:
        """The ends of the complement when it is one open interval."""
        ends = (-math.inf, *(end for interval in self.intervals for end in interval), math.inf)
        gaps = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a != b]
        return gaps[0] if len(gaps) == 1 else (None, None)

    excluded_lower = property(lambda self: self._gap()[0])
    excluded_upper = property(lambda self: self._gap()[1])

    def contains(self, value: float) -> bool:
        return any(lo <= value <= hi for lo, hi in self.intervals)


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
    unbounded regimes. denom_t_squared > quantile^2 iff the set is bounded
    (at equality it is a half-line); otherwise t_unbounded_squared >
    quantile^2 iff a finite interval is excluded rather than the whole line."""

    denom_t_squared: float
    t_unbounded_squared: float


@dataclass(frozen=True)
class MethodResult:
    """Estimate plus confidence set; diagnostics is a method-specific
    dataclass (FiellerDiagnostics here, the pivot-band record for the
    bootstrap-on-T0 method) or None."""

    method: Method
    estimate: float
    confidence_set: ConfidenceSet
    diagnostics: object | None = None


def tangency_slopes(stats: SummaryStats, quantile: float) -> tuple[float, ...]:
    """Slopes rho where the line y = rho*x satisfies T0(rho)^2 = quantile^2.

    These are the candidate boundary points of the symmetric confidence set
    and, geometrically, the slopes of lines through the origin tangent to the
    confidence ellipse of the two means. Zero, one, or two values, ascending.
    """
    first, second, count, _ = _band_roots(_RowSummaries.of(stats), quantile)
    return (float(first[0]), float(second[0]))[: int(count[0])]


# ------------------------------------------------------------------ kernels
#
# Three kernels serve the five closed-form methods on a batch of samples at
# once, the rows of (runs, n) arrays or their _RowSummaries: _fieller_rows,
# _delta_rows (Taylor, and zero-variance on _known_x) and _index_rows (trimmed
# index, and index at trim 0). Each works elementwise, so every row is
# bit-equal to the method on that row alone; fieller_set and taylor_limits
# below are the kernels on a batch of one. The band inversion is one such
# kernel, _band_rows: Fieller's kernel runs it at (-q, q), and
# tangency_slopes above is its root step _band_roots on a batch of one.

@dataclass(frozen=True, eq=False)
class _RowResults:
    """Per-row estimate and confidence set of one kernel call.

    Row i's set is the intervals (lower[i, j], upper[i, j]) of the (rows, J)
    arrays, ascending and nan-padded. A row whose precondition fails, or
    whose limits are not finite and in order, has its error in `errors` and
    nothing meaningful in the arrays. diagnostics(i), where the method has
    any, is the diagnostics record of row i. The bootstrap kernel also
    keeps, per row, the reason its BCa step fell back to percentiles (None
    if it did not) and the non-finite replicates dropped; fallbacks and
    dropped_replicates total them over the rows with a result.
    """

    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: dict[int, RatioCiError]
    diagnostics: Callable[[int], object] | None = None
    fallback: Sequence[str | None] = ()
    dropped: Sequence[int] = ()

    @classmethod
    def failing(cls, rows: int, error: RatioCiError) -> "_RowResults":
        """rows rows that all fail with error."""
        nan = np.full((rows, 1), np.nan)
        return cls(nan[:, 0], nan, nan, dict.fromkeys(range(rows), error))

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
        return inside.any(axis=1) & ~self.failed

    def result(self, method: Method, i: int = 0) -> MethodResult:
        """Row i as a MethodResult; raises the row's error if it has one."""
        if i in self.errors:
            raise self.errors[i]
        cset = _row_set(self.lower[i], self.upper[i])
        diagnostics = None if self.diagnostics is None else self.diagnostics(i)
        return MethodResult(method, float(self.estimate[i]), cset, diagnostics)


def _row_set(lower: np.ndarray, upper: np.ndarray) -> ConfidenceSet:
    """The ConfidenceSet of one row of nan-padded lower and upper limits."""
    keep = ~np.isnan(lower)
    return ConfidenceSet(tuple(zip(lower[keep].tolist(), upper[keep].tolist())))


def _bounded_rows(
    estimate: np.ndarray, lower: np.ndarray, upper: np.ndarray, errors: dict, *extra
) -> _RowResults:
    """One closed interval per row, and extra _RowResults fields; a row whose
    limits are not finite and in order fails, unless it already failed."""
    for i in np.flatnonzero(~(np.isfinite(lower) & np.isfinite(upper)) | (lower > upper)):
        fault = "out of order" if np.isfinite([lower[i], upper[i]]).all() else "must be finite"
        errors.setdefault(int(i), NonFiniteResult(f"bounded interval limits {fault}"))
    return _RowResults(estimate, lower[:, None], upper[:, None], errors, *extra)


def _t0(m, c, s):
    """The variance q of c*y - s*x's mean and the pivot T0 on the line in
    direction (c, s), elementwise, from the moments of m (a SummaryStats or
    _RowSummaries); T0 means nothing where q is not positive. T0 is the same
    for any positive multiple of (c, s): T0(s/c) for c > 0, its limit at
    +-inf on the y axis. At c = 1 it is T0(s).
    (The bootstrap's T0* is the one-sample t of resampled y - rho_hat*x.)"""
    q = m.var_mean_y * c * c - 2.0 * s * c * m.cov_mean_xy + s * s * m.var_mean_x
    with np.errstate(divide="ignore", invalid="ignore"):
        return q, (m.mean_y * c - s * m.mean_x) / np.sqrt(q)


def _band_roots(m: _RowSummaries, t) -> tuple[np.ndarray, ...]:
    """The real roots of a*r^2 - 2*half_b*r + c = 0, the quadratic of
    T0(r)^2 = t^2, in every row: the first and second root, ascending, how
    many there are (0, 1 or 2), and the coefficients (a, half_b, c).

    With q = half_b + copysign(sqrt(half_b^2 - a*c), half_b) the roots are
    q/a and c/q (q/a twice at q == 0), and neither cancels near a == 0; at
    a == 0, q is 2*half_b, unrounded, and c/q the linear root. A negative
    discriminant within 1e-12 of its larger term is noise on a double root.
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
        q = half_b + np.copysign(np.where(a == 0.0, half_b, s), half_b)
        r1, r2 = q / a, np.where(q == 0.0, q / a, c / q)
    # As Python's min(r1, r2) and max(r1, r2) pick them, signed zeros included.
    first = np.where(a == 0.0, r2, np.where(r2 < r1, r2, r1))
    second = np.where(r2 > r1, r2, r1)
    quadratic = np.where((disc < 0.0) & ~noise, 0, np.where(r1 == r2, 1, 2))
    return first, second, np.where(a == 0.0, half_b != 0.0, quadratic), (a, half_b, c)


# The errors of _band_rows, by code from 1; code 0 is none.
_BAND_ERRORS = (
    (DomainError, "t_lo must not exceed t_hi"),
    (DegenerateVariance, "both means are certain and the denominator is zero"),
    (DegenerateVariance, "denominator mean and variance are both zero"),
    (NonFiniteResult, "a limit of the set is not finite"),
    (NonFiniteResult, "the band excludes every ratio value"),
)


def _band_rows(
    m: _RowSummaries, t_lo, t_hi
) -> tuple[np.ndarray, np.ndarray, dict[int, RatioCiError]]:
    """The set {rho : t_lo <= T0(rho) <= t_hi} of every row, as the lower,
    upper and errors entries of _RowResults; t_lo and t_hi are scalars or
    one value per row.

    The cuts are the distinct roots of T0(rho) = t_lo and T0(rho) = t_hi,
    at most four, ascending; spurious roots of the squared equations only
    add harmless cuts. One rule reads every segment between neighbouring
    bounds (the cuts and +-inf), the tails included: each bound rho is the
    direction (c, s) = (1, rho)/max(1, |rho|) of its line y = rho*x, (0,
    +-1) at +-inf, and the segment is a member if T0 lies in the band on
    the line of the sum of its two bounds' directions, which lies between
    them (rho = 0 if there is no cut). T0 is set against each edge t by the
    signs of T0, of t and, where those agree, of q*(T0^2 - t^2)/c, t's
    quadratic in (c, s) over c > 0, which keeps its sign on a tail of tiny
    c: a T0 that rounds to t is still read on its side. Each run of member
    segments with its end cuts is one interval, at most three; with none,
    each cut where T0 is within 1e-9 of the band (collinear pairs, or a band
    edge grazing the pivot curve) is a point, and with no such cut the set
    is empty. vx == 0 makes T0 linear in rho and is solved in closed form.
    A kept cut or closed-form limit that is not finite fails the row.

    Every row is bit-equal to these steps in scalar floats on that row
    alone, with the cuts deduplicated as a set that keeps a t_hi root over
    an equal t_lo root.
    """
    rows = m.mean_x.shape[0]
    mx, my = m.mean_x, m.mean_y
    vx, vy, cxy = m.var_mean_x, m.var_mean_y, m.cov_mean_xy
    t_lo, t_hi = np.broadcast_to(t_lo, (rows,)), np.broadcast_to(t_hi, (rows,))
    with np.errstate(all="ignore"):
        hi1, hi2, n_hi, p_hi = _band_roots(m, t_hi)
        lo1, lo2, n_lo, p_lo = _band_roots(m, t_lo)

        def new(root):
            return ~(((n_hi > 0) & (root == hi1)) | ((n_hi > 1) & (root == hi2)))

        kept = np.stack([n_hi > 0, n_hi > 1, (n_lo > 0) & new(lo1), (n_lo > 1) & new(lo2)], 1)
        cuts = np.sort(np.where(kept, np.stack([hi1, hi2, lo1, lo2], 1), np.inf), axis=1)
        k = kept.sum(axis=1)[:, None]  # k cuts, k + 1 segments
        finite = np.isfinite(cuts).sum(axis=1) == k[:, 0]
        bounds = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))

        columns = _RowSummaries(m.n, m.df, *(v[:, None] for v in (mx, my, vx, vy, cxy)))
        # (1, rho)/max(1, |rho|): the clip is the division's exact quotient, and +-1 at +-inf.
        c, s = 1.0 / np.maximum(1.0, np.abs(bounds)), np.clip(bounds, -1.0, 1.0)
        c, s = c[:, :-1] + c[:, 1:] + (k == 0), s[:, :-1] + s[:, 1:]  # (1, 0) with no cut
        size = np.maximum(c, np.abs(s))  # a largest part of 1, lest q underflow
        c, s = c / size, s / size
        q, t0 = _t0(columns, c, s)

        def side(t, a, half_b, c0):
            sign, t = np.sign(t0), np.sign(t)[:, None]
            p = a[:, None] * s * s / c - 2.0 * half_b[:, None] * s + c0[:, None] * c
            return np.where(sign == t, sign * np.sign(p), sign - t)

        flags = (q > 0.0) & (np.arange(5) <= k)
        flags &= (side(t_lo, *p_lo) >= 0) & (side(t_hi, *p_hi) <= 0)

        # Segments and cuts alternate in members: a cut belongs to the set
        # where a member segment meets it or, with no member segment, where
        # T0 touches the band there.
        tol = 1e-9 * (1.0 + np.maximum(np.abs(t_lo), np.abs(t_hi)))[:, None]
        q, t0 = _t0(columns, 1.0, cuts)
        inside = (t_lo[:, None] - tol <= t0) & (t0 <= t_hi[:, None] + tol)
        on_cut = np.where(flags.any(1)[:, None], flags[:, :-1] | flags[:, 1:], ~(q > 0.0) | inside)
        members = np.zeros((rows, 9), dtype=bool)
        members[:, ::2], members[:, 1::2] = flags, on_cut & (np.arange(4) < k)
        # +1 where a run of members starts, -1 past its end: at step p,
        # whose limit is bounds[(p + 1) // 2] either way.
        steps = np.diff(members.astype(np.int8), prepend=0, append=0, axis=1)
        limits = bounds[:, (np.arange(10) + 1) // 2]
        width = max(1, int((steps == 1).sum(axis=1).max(initial=0)))

        def gather(mask):
            """The limits at the True steps of each row, in order, nan-padded."""
            out = np.full((rows, width), np.nan)
            r, p = np.nonzero(mask)
            out[r, np.cumsum(mask, axis=1)[r, p] - 1] = limits[r, p]
            return out

        lower, upper = gather(steps == 1), gather(steps == -1)

        # vx == 0: T0 = (my - rho*mx)/sqrt(vy) is linear in rho, or constant if mx == 0.
        certain = vx == 0.0
        both = certain & (vy == 0.0)
        flat = certain & ~both & (mx == 0.0)
        sd = np.sqrt(vy)
        a, b = (my - t_hi * sd) / mx, (my - t_lo * sd) / mx
        # min(a, b) and max(a, b) as Python picks them.
        lo = np.where(both, my / mx, np.where(flat, -np.inf, np.where(b < a, b, a)))
        hi = np.where(both, my / mx, np.where(flat, np.inf, np.where(b > a, b, a)))
        finite = np.where(certain, flat | np.isfinite(lo) & np.isfinite(hi), finite)
        lower[certain], upper[certain] = np.nan, np.nan
        lower[certain, 0], upper[certain, 0] = lo[certain], hi[certain]
        code = np.select(
            [
                ~(t_lo <= t_hi),
                both & (mx == 0.0),
                flat & ~((t_lo <= my / sd) & (my / sd <= t_hi)),
                ~finite,
                ~certain & ~members.any(axis=1),
            ],
            [1, 2, 3, 4, 5],
        )
    errors: dict[int, RatioCiError] = {}
    for i in np.flatnonzero(code):
        error, message = _BAND_ERRORS[code[i] - 1]
        errors[int(i)] = error(message)
    return lower, upper, errors


def _fieller_rows(m: _RowSummaries, quantile: float) -> _RowResults:
    """_band_rows at (-quantile, quantile), with the estimate and the
    FiellerDiagnostics of every row."""
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
    lower, upper, errors = _band_rows(m, -quantile, quantile)

    def diagnostics(i: int) -> FiellerDiagnostics:
        return FiellerDiagnostics(float(denom_t2[i]), float(t_unb2[i]))

    return _RowResults(estimate, lower, upper, errors, diagnostics)


def _delta_rows(m: _RowSummaries, quantile: float) -> _RowResults:
    """Taylor's first-order interval for every row: the pivot T0 linearized
    at rho_hat = mean_y/mean_x, rho_hat +- quantile*sqrt(q)/|mean_x|, with
    q the variance of mean_y - rho_hat*mean_x (_t0 at (1, rho_hat)). On the
    moments of _known_x it is the zero-variance interval."""
    mx = m.mean_x
    with np.errstate(all="ignore"):
        rho = m.mean_y / mx
        q, _ = _t0(m, 1.0, rho)
        # where(0 > q, 0, q) is Python's max(q, 0.0), nan and -0.0 included.
        half = quantile * np.sqrt(np.where(0.0 > q, 0.0, q)) / np.abs(mx)
        lower, upper = rho - half, rho + half
    errors: dict[int, RatioCiError] = {
        int(i): ZeroDenominator("mean of x is exactly zero") for i in np.flatnonzero(mx == 0.0)
    }
    return _bounded_rows(rho, lower, upper, errors)


def _known_x(m: _RowSummaries) -> _RowSummaries:
    """m with var_mean_x and cov_mean_xy zero: mean_x taken as known."""
    return replace(m, var_mean_x=np.zeros_like(m.mean_x), cov_mean_xy=np.zeros_like(m.mean_x))


def _index_rows(
    xs: np.ndarray, ys: np.ndarray, spec: ConfidenceSpec, trim: float
) -> _RowResults:
    """The trimmed-mean t interval of the per-pair ratios y_i/x_i of every
    row: drop the g = floor(trim*n) smallest and largest, pair the trimmed
    mean with the winsorized variance, se = sqrt(sum(dev^2)/(n-1)/n)/(1 -
    2g/n) on df = n - 2g - 1. At trim 0 nothing is sorted or trimmed, and
    it is the index interval. The estimand is E(Y/X), not E(Y)/E(X); the
    two differ unless the denominator is noiseless."""
    runs, n = xs.shape
    if not 0.0 <= trim < 0.5:
        return _RowResults.failing(runs, DomainError("trim must lie in [0, 0.5)"))
    g = int(math.floor(trim * n))
    kept = n - 2 * g
    if kept < 2:
        few = f"trimming {g} from each tail leaves {kept} of {n}"
        return _RowResults.failing(runs, TooFewAfterTrim(few))
    zero = xs == 0.0
    errors: dict[int, RatioCiError] = {
        int(i): ZeroIndividualDenominator(np.flatnonzero(zero[i]))
        for i in np.flatnonzero(zero.any(axis=1))
    }
    with np.errstate(all="ignore"):
        r = ys / xs
        if g:
            r.sort(axis=1)
        core = r[:, g : n - g]
        mean = core.mean(axis=1)
        # Winsorize in place: each tail takes the value of its core end.
        r[:, :g], r[:, n - g :] = core[:, :1], core[:, -1:]
        dev = r - r.mean(axis=1)[:, None]
        se = np.sqrt(_row_dots(dev, dev) / (n - 1) / n) / (1.0 - 2.0 * g / n)
        half = spec.quantile_for_df(kept - 1) * se
        lower, upper = mean - half, mean + half
    return _bounded_rows(mean, lower, upper, errors)


# ------------------------------------------------------ methods on moments


def fieller_set(stats: SummaryStats, spec: ConfidenceSpec) -> MethodResult:
    """Exact confidence set from inverting |T0(rho)| <= quantile.

    Bounded exactly when mean_x^2 / var_mean_x > quantile^2. When both
    variances are zero the ratio is known with certainty and the result is
    the degenerate interval at the observed ratio.
    """
    return _fieller_rows(_RowSummaries.of(stats), spec.quantile).result(Method.FIELLER)


def taylor_limits(stats: SummaryStats, spec: ConfidenceSpec) -> MethodResult:
    """First-order (delta method) interval around the ratio of means.

    The pivot T0 linearized at the estimate rho = mean_y/mean_x: always a
    bounded interval, rho +/- quantile * sqrt(vy - 2*rho*cxy + rho^2*vx) /
    |mean_x|, defined wherever mean_x is not zero, mean_y = 0 included.
    """
    return _delta_rows(_RowSummaries.of(stats), spec.quantile).result(Method.TAYLOR)
