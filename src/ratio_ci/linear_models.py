"""Regression views of ratio problems.

Zero-intercept slope fits treat the ratio as a regression coefficient,
which is appropriate when the denominator is fixed by design and the error
sits in the numerator. The deflated fit divides the model y = a + b*x + e
through by x, turning b into an intercept; it estimates the same parameters
under errors proportional to x. Allometric fits estimate power laws on the
log scale. The spurious-correlation demonstration contrasts a proper
partial regression with the rate-on-rate regression that manufactures
significance by dividing both sides by the same noisy denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ._special import fdtrc
from .core import PairedSample, _validated_array
from .errors import (
    DomainError,
    NonPositiveData,
    RankDeficient,
    TooFewObservations,
    ZeroIndividualDenominator,
)

__all__ = [
    "RegressionFit",
    "ModelComparison",
    "SpuriousReport",
    "RATIO_SLOPE_NOTE",
    "ols_fit",
    "ancova_ratio_compare",
    "deflated_fit",
    "allometric_fit",
    "spurious_demo",
    "stork_demo_table",
]

RATIO_SLOPE_NOTE = (
    "Note: a zero-intercept slope treats the denominator as error-free. "
    "When both measurements carry sampling error, summarize the ratio with "
    "the exact confidence set instead (ci --methods fieller)."
)


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit: named coefficients with matching standard errors."""

    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    residual_variance: float
    df: int
    r_squared: float

    def __post_init__(self):
        if self.df < 1:
            raise TooFewObservations("no residual degrees of freedom")
        if self.residual_variance < 0.0:
            raise DomainError("residual variance cannot be negative")

    @property
    def sse(self) -> float:
        return self.residual_variance * self.df


@dataclass(frozen=True)
class ModelComparison:
    """Nested-model F test: does the full model improve on the restricted?"""

    restricted: RegressionFit
    full: RegressionFit
    f_statistic: float
    p_value: float


def _r_squared(sse: float, tss: float) -> float:
    """1 - sse/tss; 1 for a perfect fit of all-zero data, nan when tss is 0
    and the fit is not perfect."""
    if tss > 0.0:
        return 1.0 - sse / tss
    return 1.0 if sse == 0.0 else math.nan


def ols_fit(
    y: Sequence[float],
    regressors: Mapping[str, Sequence[float]],
    intercept: bool,
) -> RegressionFit:
    """Ordinary least squares with named columns.

    R-squared is centered when an intercept is fitted and uncentered
    otherwise (share of the raw sum of squares explained).
    """
    yv = _validated_array(y, "y")
    n = yv.size
    if intercept and "intercept" in regressors:
        raise DomainError("a regressor named intercept would hide the fitted intercept")
    names = (["intercept"] if intercept else []) + list(regressors)
    columns = [np.ones(n)] if intercept else []
    for name, values in regressors.items():
        col = _validated_array(values, name)
        if col.size != n:
            raise DomainError(f"regressor {name} has {col.size} values, expected {n}")
        columns.append(col)
    if not columns:
        raise DomainError("nothing to fit: no regressors and no intercept")
    p = len(columns)
    if n <= p:
        raise TooFewObservations(f"{n} observations cannot identify {p} coefficients")
    x = np.column_stack(columns)
    # One SVD x = U diag(s) V^T: the rank by matrix_rank's default tolerance,
    # beta = V (U^T y / s), and cov = s2 V diag(1/s^2) V^T, which does not
    # square x's condition number as inv(x^T x) would.
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    if np.count_nonzero(sv > sv.max() * max(n, p) * np.finfo(float).eps) < p:
        raise RankDeficient("design matrix columns are linearly dependent")

    beta = vt.T @ ((u.T @ yv) / sv)
    resid = yv - x @ beta
    sse = float(resid @ resid)
    df = n - p
    s2 = sse / df
    ses = np.sqrt(s2 * np.sum((vt.T / sv) ** 2, axis=1))

    if intercept:
        dev = yv - yv.mean()
        tss = float(dev @ dev)
    else:
        tss = float(yv @ yv)

    return RegressionFit(
        coefficients={name: float(b) for name, b in zip(names, beta)},
        standard_errors={name: float(s) for name, s in zip(names, ses)},
        residual_variance=s2,
        df=df,
        r_squared=_r_squared(sse, tss),
    )


def _nested_f(sse_r: float, sse_f: float, df_r: int, df_f: int) -> tuple[float, float]:
    num_df = df_r - df_f
    if num_df < 1:
        raise DomainError("the full model must fit more coefficients")
    if df_f < 1:
        raise TooFewObservations("full model has no residual degrees of freedom")
    # Rounding can leave the restricted SSE a hair below the full one.
    num = max(sse_r - sse_f, 0.0) / num_df
    if sse_f == 0.0:
        if num == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    f = num / (sse_f / df_f)
    return f, float(fdtrc(num_df, df_f, f))


def ancova_ratio_compare(groups: Sequence[PairedSample]) -> ModelComparison:
    """Are the per-group zero-intercept slopes (ratios) equal?

    Full model: one slope per group, y_gi = b_g * x_gi. Restricted model:
    one common slope. Both are closed-form projections, compared by the
    standard nested F test. See RATIO_SLOPE_NOTE for when this framing is
    appropriate at all.
    """
    if len(groups) < 2:
        raise DomainError("need at least two groups to compare slopes")
    sxx = [float(s.xs @ s.xs) for s in groups]
    if 0.0 in sxx:
        raise RankDeficient(f"group {sxx.index(0.0) + 1} has all-zero x values")
    sxy = [float(s.xs @ s.ys) for s in groups]
    n_total = sum(s.n for s in groups)
    m = len(groups)
    slopes = [b / a for a, b in zip(sxx, sxy)]
    df_full = n_total - m
    if df_full < 1:
        raise TooFewObservations("not enough observations for per-group slopes")
    common = sum(sxy) / sum(sxx)
    df_restricted = n_total - 1
    tss = sum(float(s.ys @ s.ys) for s in groups)  # uncentered: neither model has an intercept

    def fit(coefficients: dict[str, float], group_slopes: list[float], sxxs: list[float], df: int):
        """The fit of y_gi = b_g*x_gi, each coefficient's SE over its sum of
        x^2 in sxxs, and the raw sum of squared residuals (syy - b*sxy cancels)."""
        residuals = (s.ys - b * s.xs for s, b in zip(groups, group_slopes))
        sse = sum(float(r @ r) for r in residuals)
        s2 = sse / df
        standard_errors = {name: math.sqrt(s2 / a) for name, a in zip(coefficients, sxxs)}
        return RegressionFit(coefficients, standard_errors, s2, df, _r_squared(sse, tss)), sse

    restricted, sse_restricted = fit({"slope": common}, [common] * m, [sum(sxx)], df_restricted)
    full, sse_full = fit(
        {f"slope_{g}": b for g, b in enumerate(slopes, start=1)}, slopes, sxx, df_full
    )
    # The F test reads the raw sums: RegressionFit.sse is one rounding away.
    f, p = _nested_f(sse_restricted, sse_full, df_restricted, df_full)
    return ModelComparison(restricted=restricted, full=full, f_statistic=f, p_value=p)


def deflated_fit(sample: PairedSample) -> RegressionFit:
    """Fit y = a + b*x by regressing y/x on 1/x.

    Dividing through by x moves b into the intercept and a onto the 1/x
    slope; the coefficients are relabeled back to (alpha, beta) of the
    original line. This weighting is the right one when the error scale
    grows proportionally to x.
    """
    zeros = np.flatnonzero(sample.xs == 0.0)
    if zeros.size:
        raise ZeroIndividualDenominator(zeros)
    rates = sample.ys / sample.xs
    inv = 1.0 / sample.xs
    fit = ols_fit(rates, {"inverse_x": inv}, intercept=True)
    labels = {"alpha": "inverse_x", "beta": "intercept"}
    return replace(
        fit,
        coefficients={new: fit.coefficients[old] for new, old in labels.items()},
        standard_errors={new: fit.standard_errors[old] for new, old in labels.items()},
    )


def allometric_fit(data: PairedSample) -> RegressionFit:
    """Power-law fit y = beta * x ** gamma via log-log regression.

    All values must be strictly positive. Coefficients: log_beta and beta
    for the prefactor, gamma_x for the exponent; the standard error is
    reported on the log_beta scale.
    """
    if np.any(data.ys <= 0.0) or np.any(data.xs <= 0.0):
        raise NonPositiveData("log-scale fitting needs strictly positive values")
    fit = ols_fit(np.log(data.ys), {"x": np.log(data.xs)}, intercept=True)
    log_beta = fit.coefficients["intercept"]
    return replace(
        fit,
        coefficients={
            "log_beta": log_beta,
            "beta": math.exp(log_beta),
            "gamma_x": fit.coefficients["x"],
        },
        standard_errors={
            "log_beta": fit.standard_errors["intercept"],
            "gamma_x": fit.standard_errors["x"],
        },
    )


@dataclass(frozen=True)
class SpuriousReport:
    """Side-by-side partial regression vs rate-on-rate regression."""

    partial: ModelComparison
    rate_based: ModelComparison

    def summary(self) -> str:
        """The two F tests, each judged at the 0.05 level, and what they show."""

        def verdict(comparison: ModelComparison, label: str, coef: str) -> list[str]:
            est = comparison.full.coefficients[coef]
            se = comparison.full.standard_errors[coef]
            sig = "significant" if comparison.p_value < 0.05 else "not significant"
            return [
                f"{label}:",
                f"  extra coefficient {coef} = {est:.4f} (se {se:.4f})",
                f"  F = {comparison.f_statistic:.4f}, p = {comparison.p_value:.4f}"
                f" -> {sig} at 0.05",
            ]

        lines = verdict(
            self.partial, "Partial regression (counts on counts)", "storks"
        )
        lines += verdict(
            self.rate_based, "Rate regression (both sides divided by women)", "stork_rate"
        )
        lines.append(
            "Dividing response and regressor by the same noisy count couples "
            "their errors; the rate regression can declare an effect the "
            "partial regression does not support."
        )
        lines.append(
            "Illustrative only: with a handful of observations the p-values "
            "are fragile; the contrast between the two analyses is the point."
        )
        return "\n".join(lines)


def spurious_demo(
    women: Sequence[float],
    babies: Sequence[float],
    storks: Sequence[float],
) -> SpuriousReport:
    """Contrast the two ways of asking whether storks deliver babies.

    Partial regression: babies ~ women + storks, testing the stork term
    against babies ~ women. Rate-based: babies/women ~ storks/women tested
    against a constant birth rate. Same data, same question, and only the
    deflated version finds an effect when none was put in.
    """
    x = _validated_array(women, "women")
    y = _validated_array(babies, "babies")
    z = _validated_array(storks, "storks")
    if not (x.size == y.size == z.size):
        raise DomainError("all three columns must have the same length")
    if x.size < 4:
        raise TooFewObservations("need at least four observations")
    if np.any(x <= 0.0):
        raise NonPositiveData("women counts must be strictly positive")

    def compare(restricted: RegressionFit, full: RegressionFit) -> ModelComparison:
        f, p = _nested_f(restricted.sse, full.sse, restricted.df, full.df)
        return ModelComparison(restricted, full, f, p)

    partial = compare(
        ols_fit(y, {"women": x}, intercept=True),
        ols_fit(y, {"women": x, "storks": z}, intercept=True),
    )
    rates = y / x
    rate_based = compare(
        ols_fit(rates, {}, intercept=True),
        ols_fit(rates, {"stork_rate": z / x}, intercept=True),
    )
    return SpuriousReport(partial=partial, rate_based=rate_based)


def stork_demo_table() -> dict[str, tuple[float, ...]]:
    """Four-region toy counts: women and babies grow together; storks tag
    along with region size."""
    return {
        "women": (1.0, 2.0, 3.0, 4.0),
        "babies": (15.8, 20.2, 25.4, 30.1),
        "storks": (3.2, 4.1, 5.6, 6.3),
    }
