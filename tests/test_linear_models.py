import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratio_ci import (
    DomainError,
    NonPositiveData,
    PairedSample,
    RankDeficient,
    TooFewObservations,
    ZeroIndividualDenominator,
    allometric_fit,
    ancova_ratio_compare,
    deflated_fit,
    ols_fit,
    spurious_demo,
    stork_demo_table,
)
from ratio_ci.linear_models import RATIO_SLOPE_NOTE, _nested_f

from oracle_utils import ols_normal_equations


# -------------------------------------------------------------------- ols


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 60),
    k=st.integers(1, 3),
    intercept=st.booleans(),
)
def test_ols_matches_normal_equations(seed, n, k, intercept):
    rng = np.random.default_rng(seed)
    # Well separated columns keep the normal equations well conditioned.
    cols = {f"x{j}": rng.normal(j * 3.0, 1.0, n) for j in range(1, k + 1)}
    y = rng.normal(0.0, 2.0, n)
    fit = ols_fit(y, cols, intercept=intercept)
    design = ([np.ones(n)] if intercept else []) + list(cols.values())
    beta = ols_normal_equations(y, np.column_stack(design))
    names = (["intercept"] if intercept else []) + list(cols)
    for name, b in zip(names, beta):
        assert fit.coefficients[name] == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_ols_noiseless_line_is_exact():
    x = np.arange(1.0, 9.0)
    fit = ols_fit(3.0 + 2.0 * x, {"x": x}, intercept=True)
    assert fit.coefficients["intercept"] == pytest.approx(3.0, abs=1e-12)
    assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-13)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
    assert fit.df == 6
    assert fit.sse == pytest.approx(0.0, abs=1e-20)


def test_ols_uncentered_r2_without_intercept():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = 2.0 * x
    y[0] += 0.5
    fit = ols_fit(y, {"x": x}, intercept=False)
    b = (x @ y) / (x @ x)
    sse = float((y - b * x) @ (y - b * x))
    assert fit.coefficients["x"] == pytest.approx(b, rel=1e-14)
    assert fit.r_squared == pytest.approx(1.0 - sse / float(y @ y), rel=1e-12)


def test_ols_error_taxonomy():
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(RankDeficient):
        ols_fit(x, {"a": x, "b": 2.0 * x}, intercept=False)
    with pytest.raises(TooFewObservations):
        ols_fit(x, {"a": x, "b": x**2}, intercept=True)
    with pytest.raises(DomainError):
        ols_fit(x, {}, intercept=False)
    with pytest.raises(DomainError):
        ols_fit(x, {"a": np.array([1.0, 2.0])}, intercept=False)


def test_ols_rejects_a_regressor_named_intercept():
    # The slope would overwrite the fitted intercept under the same name.
    x = np.arange(1.0, 6.0)
    y = np.array([2.1, 3.9, 6.2, 7.8, 10.1])
    with pytest.raises(DomainError, match="intercept"):
        ols_fit(y, {"intercept": x}, intercept=True)
    assert ols_fit(y, {"intercept": x}, intercept=False).coefficients.keys() == {"intercept"}


def test_ols_standard_errors_simple_regression():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 10.0, 25)
    y = 1.0 + 0.5 * x + rng.normal(0.0, 1.0, 25)
    fit = ols_fit(y, {"x": x}, intercept=True)
    # Textbook formulas for the two-parameter line.
    xc = x - x.mean()
    sxx = float(xc @ xc)
    b = float(xc @ (y - y.mean())) / sxx
    a = y.mean() - b * x.mean()
    s2 = float((y - a - b * x) @ (y - a - b * x)) / 23
    assert fit.standard_errors["x"] == pytest.approx(math.sqrt(s2 / sxx), rel=1e-10)
    assert fit.standard_errors["intercept"] == pytest.approx(
        math.sqrt(s2 * (1.0 / 25 + x.mean() ** 2 / sxx)), rel=1e-10
    )


def test_ols_standard_errors_far_from_the_origin_match_mpmath():
    # x = 1e5 + 0..19 beside an intercept: the design's condition number is
    # 1.7e9 and that of x^T x 3e18, whose inverse left the SEs 7.5e-9
    # relative off. The exact fit of the same doubles is taken at 60 digits.
    x = 1e5 + np.arange(20.0)
    y = 3.0 + 2.0 * x + np.random.default_rng(1).normal(0.0, 1.0, 20)
    fit = ols_fit(y, {"x": x}, intercept=True)
    with mpmath.workdps(60):
        xm, ym = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
        x_bar, y_bar = sum(xm) / 20, sum(ym) / 20
        sxx = sum((v - x_bar) ** 2 for v in xm)
        b = sum((u - x_bar) * (v - y_bar) for u, v in zip(xm, ym)) / sxx
        a = y_bar - b * x_bar
        s2 = sum((v - a - b * u) ** 2 for u, v in zip(xm, ym)) / 18
        se_b = mpmath.sqrt(s2 / sxx)
        se_a = mpmath.sqrt(s2 * (mpmath.mpf(1) / 20 + x_bar**2 / sxx))
    assert fit.standard_errors["x"] == pytest.approx(float(se_b), rel=1e-10)
    assert fit.standard_errors["intercept"] == pytest.approx(float(se_a), rel=1e-10)


# --------------------------------------------------------------- nested F


def test_nested_f_basic_properties():
    f, p = _nested_f(10.0, 8.0, 12, 10)
    assert f >= 0.0 and 0.0 <= p <= 1.0
    f2, p2 = _nested_f(14.0, 8.0, 12, 10)
    assert f2 > f and p2 < p
    # Equal fits: no evidence, p saturates at 1.
    assert _nested_f(8.0, 8.0, 12, 10) == (0.0, 1.0)
    # Perfect full fit explaining something.
    f3, p3 = _nested_f(5.0, 0.0, 12, 10)
    assert math.isinf(f3) and p3 == 0.0
    with pytest.raises(DomainError):
        _nested_f(10.0, 8.0, 10, 10)
    with pytest.raises(TooFewObservations):
        _nested_f(10.0, 8.0, 2, 0)


@given(
    st.floats(0.0, 50.0),
    st.floats(0.01, 100.0),
    st.integers(1, 100),
    st.integers(1, 10_000),
)
def test_nested_f_p_value_matches_mpmath(extra, sse_f, num_df, df_f):
    # The F upper tail is I_x(df_f/2, num_df/2) at x = df_f/(df_f + num_df*f),
    # taken at 50 digits. scipy.stats.f.sf is no referee out here: at
    # f = 48.3, p = 1.2e-274 it is 2e-10 off.
    f, p = _nested_f(sse_f + extra, sse_f, df_f + num_df, df_f)
    with mpmath.workdps(50):
        x = df_f / (df_f + num_df * mpmath.mpf(f))
        exact = float(mpmath.betainc(mpmath.mpf(df_f) / 2, mpmath.mpf(num_df) / 2, 0, x,
                                     regularized=True))
    assert p == pytest.approx(exact, rel=1e-12, abs=1e-300)


# ----------------------------------------------------------------- ancova


def test_ancova_identical_groups_show_no_difference():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    ys = 2.5 * xs
    cmp_ = ancova_ratio_compare([PairedSample(xs, ys), PairedSample(xs, ys)])
    assert cmp_.f_statistic == 0.0
    assert cmp_.p_value == 1.0
    assert cmp_.restricted.coefficients["slope"] == pytest.approx(2.5, rel=1e-14)
    assert set(cmp_.full.coefficients) == {"slope_1", "slope_2"}


def test_ancova_detects_different_slopes():
    rng = np.random.default_rng(1)
    xs = rng.normal(5.0, 1.0, 20)
    g1 = PairedSample(xs, 2.0 * xs + rng.normal(0.0, 0.5, 20))
    xs2 = rng.normal(5.0, 1.0, 20)
    g2 = PairedSample(xs2, 3.0 * xs2 + rng.normal(0.0, 0.5, 20))
    cmp_ = ancova_ratio_compare([g1, g2])
    assert cmp_.p_value < 1e-10
    assert cmp_.full.coefficients["slope_1"] == pytest.approx(2.0, abs=0.1)
    assert cmp_.full.coefficients["slope_2"] == pytest.approx(3.0, abs=0.1)
    assert cmp_.full.df == 38 and cmp_.restricted.df == 39


def test_ancova_null_rejection_rate_is_nominal():
    # Equal true slopes: the exact F test should reject at about the
    # nominal 5% rate. 400 trials, binomial sd ~1.1%, so 8% is a safe cap.
    rejections = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        groups = []
        for _ in range(2):
            xs = rng.normal(5.0, 1.0, 12)
            ys = 2.0 * xs + rng.normal(0.0, 0.8, 12)
            groups.append(PairedSample(xs, ys))
        if ancova_ratio_compare(groups).p_value < 0.05:
            rejections += 1
    assert rejections <= 32


@pytest.mark.parametrize("low, noise", [(1e5, 1e-3), (1e3, 2e-3)])
def test_ancova_tight_fit_matches_mpmath(low, noise):
    # Three groups of 20 pairs on nearly equal lines through the origin,
    # with residuals a 1e-8 to 1e-6 part of y: syy - b*sxy would cancel to
    # noise. The exact sums of squares, F and p are taken at 60 digits.
    rng = np.random.default_rng(3)
    groups = []
    for g in range(3):
        xs = rng.uniform(low, 2.0 * low, 20)
        groups.append(PairedSample(xs, (2.0 + 1e-3 * g) * xs + rng.normal(0.0, noise, 20)))
    cmp_ = ancova_ratio_compare(groups)
    with mpmath.workdps(60):
        pairs = [([mpmath.mpf(v) for v in g.xs], [mpmath.mpf(v) for v in g.ys]) for g in groups]

        def sse(slopes):
            return sum((y - b * x) ** 2 for (u, v), b in zip(pairs, slopes) for x, y in zip(u, v))

        sxx = [mpmath.fdot(xs, xs) for xs, _ in pairs]
        sxy = [mpmath.fdot(xs, ys) for xs, ys in pairs]
        sse_full = sse([b / a for a, b in zip(sxx, sxy)])
        sse_restricted = sse([sum(sxy) / sum(sxx)] * 3)
        f = (sse_restricted - sse_full) / 2 / (sse_full / 57)
        p = mpmath.betainc(mpmath.mpf(57) / 2, 1, 0, 57 / (57 + 2 * f), regularized=True)
    assert cmp_.full.sse == pytest.approx(float(sse_full), rel=1e-6)
    assert cmp_.restricted.sse == pytest.approx(float(sse_restricted), rel=1e-6)
    assert cmp_.f_statistic == pytest.approx(float(f), rel=1e-6)
    assert cmp_.p_value == pytest.approx(float(p), rel=1e-5, abs=1e-300)


def test_ancova_validation():
    xs = np.array([1.0, 2.0])
    with pytest.raises(DomainError):
        ancova_ratio_compare([PairedSample(xs, xs)])
    with pytest.raises(RankDeficient):
        ancova_ratio_compare(
            [PairedSample(np.zeros(3), np.ones(3)), PairedSample(xs, xs)]
        )
    tiny = PairedSample(np.array([1.0]), np.array([2.0]))
    with pytest.raises(TooFewObservations):
        ancova_ratio_compare([tiny, tiny])


# --------------------------------------------------------------- deflated


def test_deflated_recovers_exact_line():
    x = np.array([1.0, 2.0, 4.0, 5.0, 8.0])
    fit = deflated_fit(PairedSample(x, 2.0 + 3.0 * x))
    assert fit.coefficients["alpha"] == pytest.approx(2.0, rel=1e-12)
    assert fit.coefficients["beta"] == pytest.approx(3.0, rel=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)


def test_deflated_agrees_with_ols_only_when_noiseless():
    x = np.array([1.0, 2.0, 4.0, 5.0, 8.0])
    y = 2.0 + 3.0 * x
    defl = deflated_fit(PairedSample(x, y))
    ols = ols_fit(y, {"x": x}, intercept=True)
    assert defl.coefficients["alpha"] == pytest.approx(
        ols.coefficients["intercept"], rel=1e-10
    )
    assert defl.coefficients["beta"] == pytest.approx(ols.coefficients["x"], rel=1e-10)
    # With noise the two weightings genuinely differ.
    rng = np.random.default_rng(0)
    yn = y + x * rng.normal(0.0, 0.5, 5)
    defl_n = deflated_fit(PairedSample(x, yn))
    ols_n = ols_fit(yn, {"x": x}, intercept=True)
    assert defl_n.coefficients["beta"] != pytest.approx(
        ols_n.coefficients["x"], rel=1e-6
    )


def test_deflated_beta_is_mean_rate_when_rates_orthogonal_to_inverse():
    # Construct rates r = rbar + (e, -e, e, -e) over x = (1, 1, 2, 2):
    # the inverse-x column then has zero sample covariance with r, so the
    # fitted 1/x slope vanishes and beta collapses to the plain mean rate.
    e = 0.25
    x = np.array([1.0, 1.0, 2.0, 2.0])
    r = 3.0 + np.array([e, -e, e, -e])
    fit = deflated_fit(PairedSample(x, r * x))
    assert fit.coefficients["beta"] == pytest.approx(float(np.mean(r)), rel=1e-12)
    assert fit.coefficients["alpha"] == pytest.approx(0.0, abs=1e-12)


def test_deflated_residuals_homoskedastic_under_proportional_errors():
    # When the error scale grows like x, deflation restores constant
    # variance: an auxiliary regression of squared rate residuals on x
    # should find no slope most of the time.
    from scipy import stats

    quiet = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(1.0, 10.0, 40)
        ys = 2.0 + 3.0 * xs + xs * rng.normal(0.0, 0.3, 40)
        fit = deflated_fit(PairedSample(xs, ys))
        resid = ys / xs - (fit.coefficients["beta"] + fit.coefficients["alpha"] / xs)
        aux = ols_fit(resid**2, {"x": xs}, intercept=True)
        t = aux.coefficients["x"] / aux.standard_errors["x"]
        if 2.0 * stats.t.sf(abs(t), aux.df) > 0.05:
            quiet += 1
    assert quiet >= 180


def test_deflated_rejects_zero_denominators():
    with pytest.raises(ZeroIndividualDenominator) as exc:
        deflated_fit(PairedSample(np.array([1.0, 0.0, 2.0]), np.ones(3)))
    assert exc.value.indices == (1,)


# ------------------------------------------------------------- allometric


def test_allometric_exact_power_law():
    x = np.array([1.0, 2.0, 3.0, 5.0, 9.0])
    fit = allometric_fit(PairedSample(x, 5.0 * x**2))
    assert fit.coefficients["beta"] == pytest.approx(5.0, rel=1e-12)
    assert fit.coefficients["gamma_x"] == pytest.approx(2.0, rel=1e-12)
    assert fit.coefficients["log_beta"] == pytest.approx(math.log(5.0), rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_allometric_unit_change_moves_only_the_prefactor():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.5, 20.0, 30)
    y = 4.0 * x**1.7 * np.exp(rng.normal(0.0, 0.1, 30))
    base = allometric_fit(PairedSample(x, y))
    c = 1000.0  # say, grams instead of kilograms
    scaled = allometric_fit(PairedSample(c * x, y))
    g = base.coefficients["gamma_x"]
    assert scaled.coefficients["gamma_x"] == pytest.approx(g, rel=1e-10)
    assert scaled.coefficients["log_beta"] == pytest.approx(
        base.coefficients["log_beta"] - g * math.log(c), abs=1e-10
    )
    assert scaled.standard_errors["gamma_x"] == pytest.approx(
        base.standard_errors["gamma_x"], rel=1e-8
    )


def test_allometric_rejects_nonpositive_values():
    with pytest.raises(NonPositiveData):
        allometric_fit(PairedSample(np.array([1.0, -2.0, 3.0]), np.ones(3)))


# ------------------------------------------------------ spurious rates demo


def test_stork_demo_table_is_frozen():
    assert stork_demo_table() == {
        "women": (1.0, 2.0, 3.0, 4.0),
        "babies": (15.8, 20.2, 25.4, 30.1),
        "storks": (3.2, 4.1, 5.6, 6.3),
    }


def test_spurious_demo_contrast():
    t = stork_demo_table()
    report = spurious_demo(t["women"], t["babies"], t["storks"])
    # Counts on counts: the stork term explains nothing extra.
    assert report.partial.p_value > 0.05
    # Rates on rates: dividing both sides by women manufactures an effect.
    assert report.rate_based.p_value < 0.05
    restricted = report.partial.restricted
    assert restricted.coefficients["intercept"] == pytest.approx(10.85, abs=1e-12)
    assert restricted.coefficients["women"] == pytest.approx(4.81, abs=1e-12)
    assert report.partial.f_statistic == pytest.approx(0.9993079584774466, rel=1e-10)
    assert report.partial.p_value == pytest.approx(0.5001101799558909, rel=1e-10)
    assert report.rate_based.f_statistic == pytest.approx(305.6007424849862, rel=1e-10)
    assert report.rate_based.p_value == pytest.approx(0.0032562690895933553, rel=1e-10)


def test_spurious_demo_f_tests_read_the_raw_residual_sums():
    rng = np.random.default_rng(0)
    women = rng.uniform(1.0, 10.0, 8)
    babies = 3.0 * women + rng.normal(0.0, 1.0, 8)
    storks = women + rng.normal(0.0, 1.0, 8)
    report = spurious_demo(women, babies, storks)
    rates = babies / women

    def raw_sse(fit, y, columns):
        """y's sum of squared residuals from the fit, as ols_fit computes it."""
        design = np.column_stack([np.ones(y.size), *columns])
        resid = y - design @ np.array(list(fit.coefficients.values()))
        return float(resid @ resid)

    rounded = 0
    for comparison, y, restricted, full in (
        (report.partial, babies, [women], [women, storks]),
        (report.rate_based, rates, [], [storks / women]),
    ):
        sse_r = raw_sse(comparison.restricted, y, restricted)
        sse_f = raw_sse(comparison.full, y, full)
        rounded += (comparison.restricted.sse, comparison.full.sse) != (sse_r, sse_f)
        f, p = _nested_f(sse_r, sse_f, comparison.restricted.df, comparison.full.df)
        assert (comparison.f_statistic, comparison.p_value) == (f, p)
    assert rounded  # RegressionFit.sse is one rounding away from the raw sums here


def test_spurious_summary_mentions_both_analyses():
    t = stork_demo_table()
    text = spurious_demo(t["women"], t["babies"], t["storks"]).summary()
    assert "Partial regression" in text
    assert "Rate regression" in text
    assert "not significant" in text and "-> significant" in text


def test_spurious_demo_validation():
    with pytest.raises(DomainError):
        spurious_demo([1.0, 2.0, 3.0], [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(TooFewObservations):
        spurious_demo([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(NonPositiveData):
        spurious_demo([1.0, 0.0, 3.0, 4.0], [1.0] * 4, [1.0] * 4)


def test_slope_note_points_at_exact_method():
    assert "fieller" in RATIO_SLOPE_NOTE
