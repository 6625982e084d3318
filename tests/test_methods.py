import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from ratio_ci import (
    ConfidenceSet,
    ConfidenceSpec,
    DomainError,
    Method,
    NonFiniteResult,
    PairedSample,
    RatioCiError,
    SetCase,
    SummaryStats,
    TooFewAfterTrim,
    ZeroDenominator,
    ZeroIndividualDenominator,
    fieller_set,
    summarize,
    tangency_slopes,
    taylor_limits,
)
from ratio_ci.methods import _t0

from one_sample import band_set, method_result
from oracle_utils import (
    exact_band_member,
    grid_scan_membership,
    refine_boundary,
    set_boundaries,
    set_membership,
    summarize_oracle,
)

# Worked three-pair dataset used throughout: the denominator mean is only
# barely significant at 95%, which exercises the near-unbounded regime.
WORKED_X = (6.34, 4.02, 2.88)
WORKED_Y = (4.87, 8.30, 11.66)


@pytest.fixture(scope="module")
def worked():
    sample = PairedSample(WORKED_X, WORKED_Y)
    stats = summarize(sample)
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    return sample, stats, spec


# Means are either exactly zero (degenerate branches) or bounded away from
# the subnormal range where squaring underflows.
mean_strategy = st.one_of(
    st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3)
)


def stats_strategy(max_corr=0.95):
    scale = st.floats(0.05, 3.0)

    @st.composite
    def build(draw):
        n = draw(st.integers(3, 200))
        mean_x = draw(mean_strategy)
        mean_y = draw(mean_strategy)
        sd_x = draw(scale)
        sd_y = draw(scale)
        corr = draw(st.floats(-max_corr, max_corr))
        return SummaryStats(
            n=n,
            mean_x=mean_x,
            mean_y=mean_y,
            var_mean_x=sd_x * sd_x,
            var_mean_y=sd_y * sd_y,
            cov_mean_xy=corr * sd_x * sd_y,
            df=n - 1,
        )

    return build()


# ------------------------------------------------------------ worked data


def test_worked_fieller_matches_bisection_oracle(worked):
    _, stats, spec = worked
    result = fieller_set(stats, spec)
    cset = result.confidence_set
    assert cset.case is SetCase.BOUNDED
    # Independent endpoints: bisect the membership flips of the literal
    # pivot band on brackets around the analytic answers.
    lo = refine_boundary(stats, -spec.quantile, spec.quantile, cset.lower - 1.0, cset.lower + 1e-6)
    hi = refine_boundary(stats, -spec.quantile, spec.quantile, cset.upper - 1e-3, cset.upper + 10.0)
    assert cset.lower == pytest.approx(lo, rel=1e-9, abs=1e-9)
    assert cset.upper == pytest.approx(hi, rel=1e-9)
    assert result.estimate == pytest.approx(stats.mean_y / stats.mean_x, rel=1e-15)


def test_worked_published_anchors(worked):
    # Two-decimal published values for this dataset; the exact upper limit
    # is hypersensitive (the denominator is just barely significant), hence
    # the wide bracket on it.
    _, stats, spec = worked
    sample = PairedSample(WORKED_X, WORKED_Y)
    f = fieller_set(stats, spec)
    assert f.estimate == pytest.approx(1.88, abs=0.01)
    assert f.confidence_set.lower == pytest.approx(-0.02, abs=0.01)
    assert 490.0 <= f.confidence_set.upper <= 510.0
    t = taylor_limits(stats, spec)
    assert t.confidence_set.lower == pytest.approx(-1.88, abs=0.02)
    assert t.confidence_set.upper == pytest.approx(5.64, abs=0.02)
    i = method_result(sample, Method.INDEX, spec)
    assert i.estimate == pytest.approx(2.29, abs=0.02)
    assert i.confidence_set.lower == pytest.approx(-1.81, abs=0.02)
    assert i.confidence_set.upper == pytest.approx(6.39, abs=0.02)
    z = method_result(sample, Method.ZERO_VARIANCE, spec)
    assert z.confidence_set.lower == pytest.approx(-0.03, abs=0.02)
    assert z.confidence_set.upper == pytest.approx(3.79, abs=0.02)


def test_worked_taylor_against_direct_formula(worked):
    _, stats, spec = worked
    ref = summarize_oracle(WORKED_X, WORKED_Y)
    n = ref.n
    rho = ref.mean_y / ref.mean_x
    half = spec.quantile * abs(rho) * math.sqrt(
        (ref.var_x / n) / ref.mean_x**2
        + (ref.var_y / n) / ref.mean_y**2
        - 2.0 * (ref.cov_xy / n) / (ref.mean_x * ref.mean_y)
    )
    t = taylor_limits(stats, spec)
    assert t.confidence_set.lower == pytest.approx(rho - half, rel=1e-12)
    assert t.confidence_set.upper == pytest.approx(rho + half, rel=1e-12)


def test_worked_index_against_direct_formula(worked):
    sample, _, spec = worked
    ratios = [y / x for x, y in zip(WORKED_X, WORKED_Y)]
    ref = summarize_oracle(ratios, ratios)
    half = spec.quantile * math.sqrt(ref.var_x / ref.n)
    i = method_result(sample, Method.INDEX, spec)
    assert i.estimate == pytest.approx(ref.mean_x, rel=1e-14)
    assert i.confidence_set.lower == pytest.approx(ref.mean_x - half, rel=1e-12)
    assert i.confidence_set.upper == pytest.approx(ref.mean_x + half, rel=1e-12)


def test_worked_zero_variance_against_direct_formula(worked):
    sample, stats, spec = worked
    ref = summarize_oracle(WORKED_X, WORKED_Y)
    rho = ref.mean_y / ref.mean_x
    half = spec.quantile * math.sqrt(ref.var_y / ref.n) / abs(ref.mean_x)
    z = method_result(sample, Method.ZERO_VARIANCE, spec)
    assert z.confidence_set.lower == pytest.approx(rho - half, rel=1e-12)
    assert z.confidence_set.upper == pytest.approx(rho + half, rel=1e-12)


# ------------------------------------------------- pivot and trichotomy


@given(stats_strategy(), st.floats(-20, 20))
def test_t0_is_the_paired_t_statistic(stats, rho):
    # T0(rho) equals the one-sample t statistic of d_i = y_i - rho*x_i when
    # the summary comes from data; on synthetic summaries, check the formula
    # against a literal recomputation.
    q = stats.var_mean_y - 2 * rho * stats.cov_mean_xy + rho**2 * stats.var_mean_x
    assume(q > 1e-12)
    expect = (stats.mean_y - rho * stats.mean_x) / math.sqrt(q)
    assert _t0(stats, 1.0, rho)[1] == pytest.approx(expect, rel=1e-12)


def test_t0_on_data_equals_one_sample_t():
    rng = np.random.default_rng(5)
    xs = rng.normal(2.0, 1.0, 17)
    ys = rng.normal(3.0, 2.0, 17)
    stats = summarize(PairedSample(xs, ys))
    for rho in (-1.0, 0.3, 2.5):
        d = ys - rho * xs
        ref = summarize_oracle(d, d)
        t = ref.mean_x / math.sqrt(ref.var_x / ref.n)
        assert _t0(stats, 1.0, rho)[1] == pytest.approx(t, rel=1e-10)


def test_t0_degenerate_variance():
    stats = summarize(PairedSample([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))
    q, _ = _t0(stats, 1.0, 2.0)
    assert q == 0.0  # exactly collinear: variance of y-2x is 0


@given(stats_strategy())
def test_fieller_trichotomy(stats):
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    result = fieller_set(stats, spec)
    diag = result.diagnostics
    t2 = spec.quantile * spec.quantile
    if diag.denom_t_squared > t2:
        assert result.confidence_set.case is SetCase.BOUNDED
    elif diag.t_unbounded_squared > t2:
        assert result.confidence_set.case is SetCase.UNBOUNDED_EXCLUSIVE
    else:
        assert result.confidence_set.case is SetCase.WHOLE_LINE


@given(stats_strategy())
def test_fieller_matches_grid_scan(stats):
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    cset = fieller_set(stats, spec).confidence_set
    grid, oracle = grid_scan_membership(stats, -spec.quantile, spec.quantile,
                                        lo=-50.0, hi=50.0, points=2001)
    ours = set_membership(cset, grid)
    disagree = grid[ours != oracle]
    bounds = set_boundaries(cset)
    for rho in disagree:
        tol = 1e-6 * (1.0 + abs(rho))
        assert bounds and min(abs(rho - b) for b in bounds) <= tol


@given(stats_strategy())
def test_fieller_bounded_contains_estimate(stats):
    assume(stats.mean_x != 0.0)
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    result = fieller_set(stats, spec)
    assert result.confidence_set.contains(result.estimate)


@given(stats_strategy(), st.floats(0.05, 20.0))
def test_scale_equivariance_in_y(stats, c):
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    scaled = SummaryStats(
        n=stats.n,
        mean_x=stats.mean_x,
        mean_y=stats.mean_y * c,
        var_mean_x=stats.var_mean_x,
        var_mean_y=stats.var_mean_y * c * c,
        cov_mean_xy=stats.cov_mean_xy * c,
        df=stats.df,
    )
    base = fieller_set(stats, spec).confidence_set
    got = fieller_set(scaled, spec).confidence_set
    assert got.case is base.case
    if base.case is SetCase.BOUNDED:
        assert got.lower == pytest.approx(base.lower * c, rel=1e-7, abs=1e-7)
        assert got.upper == pytest.approx(base.upper * c, rel=1e-7, abs=1e-7)
    elif base.case is SetCase.UNBOUNDED_EXCLUSIVE:
        assert got.excluded_lower == pytest.approx(base.excluded_lower * c, rel=1e-7, abs=1e-7)
        assert got.excluded_upper == pytest.approx(base.excluded_upper * c, rel=1e-7, abs=1e-7)


@given(stats_strategy(), st.floats(0.05, 20.0))
def test_scale_equivariance_in_x(stats, c):
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    scaled = SummaryStats(
        n=stats.n,
        mean_x=stats.mean_x * c,
        mean_y=stats.mean_y,
        var_mean_x=stats.var_mean_x * c * c,
        var_mean_y=stats.var_mean_y,
        cov_mean_xy=stats.cov_mean_xy * c,
        df=stats.df,
    )
    base = fieller_set(stats, spec).confidence_set
    got = fieller_set(scaled, spec).confidence_set
    assert got.case is base.case
    if base.case is SetCase.BOUNDED:
        assert got.lower == pytest.approx(base.lower / c, rel=1e-7, abs=1e-7)
        assert got.upper == pytest.approx(base.upper / c, rel=1e-7, abs=1e-7)


def test_taylor_close_to_fieller_when_denominator_tight():
    # With cv = sd_mean_x/|mean_x| small, the Fieller and first-order
    # endpoints differ by at most half of t*cv*(1 + t*cv) of the interval
    # width (the 1/(1 - t^2 cv^2) inflation plus the center shift); the
    # small parameter is t*cv, not cv alone, so tiny-df instances need the
    # full envelope while t*cv <= 0.07 keeps the discrepancy under 5%.
    rng = np.random.default_rng(42)
    checked_sub_regime = 0
    for _ in range(1000):
        n = int(rng.integers(5, 500))
        mean_x = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
        mean_y = rng.uniform(-5.0, 5.0)
        if mean_y == 0.0:
            continue
        cv = rng.uniform(0.002, 0.1)
        sd_x = abs(mean_x) * cv
        sd_y = rng.uniform(0.02, 1.0)
        corr = rng.uniform(-0.9, 0.9)
        stats = SummaryStats(n, mean_x, mean_y, sd_x**2, sd_y**2,
                             corr * sd_x * sd_y, n - 1)
        spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
        f = fieller_set(stats, spec).confidence_set
        t = taylor_limits(stats, spec).confidence_set
        assert f.case is SetCase.BOUNDED
        width = f.upper - f.lower
        err = max(abs(f.lower - t.lower), abs(f.upper - t.upper)) / width
        tcv = spec.quantile * cv
        assert err <= 0.55 * tcv * (1.0 + tcv)
        if tcv <= 0.07:
            checked_sub_regime += 1
            assert err < 0.05
    assert checked_sub_regime > 100


@given(stats_strategy())
def test_zero_variance_never_wider_than_taylor_without_covariance(stats):
    assume(stats.mean_x != 0.0 and stats.mean_y != 0.0)
    uncorrelated = SummaryStats(
        n=stats.n,
        mean_x=stats.mean_x,
        mean_y=stats.mean_y,
        var_mean_x=stats.var_mean_x,
        var_mean_y=stats.var_mean_y,
        cov_mean_xy=0.0,
        df=stats.df,
    )
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    rng = np.random.default_rng(0)
    # zero-variance takes a sample; apply its formula via the interval
    # identity half = q * sd_mean_y / |mean_x| instead of synthesizing data.
    half_zv = spec.quantile * uncorrelated.sd_mean_y / abs(uncorrelated.mean_x)
    t = taylor_limits(uncorrelated, spec).confidence_set
    half_taylor = 0.5 * (t.upper - t.lower)
    assert half_zv <= half_taylor


# ------------------------------------------------------- band inversion


def test_band_inversion_linear_when_denominator_certain():
    stats = SummaryStats(10, 2.0, 3.0, 0.0, 0.25, 0.0, 9)
    cset = band_set(stats, -2.0, 2.0)
    # T0 is linear in rho here: (3 - 2 rho)/0.5 in [-2, 2].
    assert cset.case is SetCase.BOUNDED
    assert cset.lower == pytest.approx(1.0)
    assert cset.upper == pytest.approx(2.0)


def test_band_inversion_certain_ratio():
    stats = SummaryStats(10, 2.0, 3.0, 0.0, 0.0, 0.0, 9)
    cset = band_set(stats, -2.0, 2.0)
    assert (cset.lower, cset.upper) == (1.5, 1.5)


def test_band_inversion_collinear_touch_point():
    # y = 2x exactly: the pivot variance vanishes at rho=2 and the set
    # collapses to that single ratio once the band is narrower than the
    # asymptote level |mean_x|/sd_mean_x.
    stats = summarize(PairedSample([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))
    asymptote = stats.mean_x / stats.sd_mean_x
    tight = band_set(stats, -0.5 * asymptote, 0.5 * asymptote)
    assert (tight.lower, tight.upper) == (2.0, 2.0)
    wide = band_set(stats, -2.0 * asymptote, 2.0 * asymptote)
    assert wide.case is SetCase.WHOLE_LINE


def test_band_inversion_empty_band_raises():
    stats = SummaryStats(10, 1.0, 1.0, 0.04, 0.04, 0.0, 9)
    t_unb = math.sqrt(fieller_set(stats, ConfidenceSpec(0.95, 9.0, 1.0)).diagnostics.t_unbounded_squared)
    with pytest.raises(NonFiniteResult):
        band_set(stats, t_unb + 1.0, t_unb + 2.0)


@given(stats_strategy(), st.floats(-4.0, 1.0), st.floats(0.1, 5.0))
def test_asymmetric_band_matches_grid_scan(stats, t_lo, width):
    t_hi = t_lo + width
    try:
        cset = band_set(stats, t_lo, t_hi)
    except NonFiniteResult:
        # Empty set: the oracle grid must agree (no member far from edges).
        grid, oracle = grid_scan_membership(stats, t_lo, t_hi, -50, 50, 801)
        assert not oracle.any()
        return
    grid, oracle = grid_scan_membership(stats, t_lo, t_hi, -50, 50, 2001)
    ours = set_membership(cset, grid)
    bounds = set_boundaries(cset)
    false_negatives = grid[oracle & ~ours]
    # Conservative snaps may cover extra points, but never drop members.
    for rho in false_negatives:
        tol = 1e-6 * (1.0 + abs(rho))
        assert bounds and min(abs(rho - b) for b in bounds) <= tol


@given(stats_strategy(), st.floats(-4.0, 1.0), st.floats(0.1, 5.0))
def test_asymmetric_band_matches_grid_scan_both_ways(stats, t_lo, width):
    # No member is dropped and no non-member is added, away from the limits:
    # a half-line, or a half-line beside an interval, is returned as it is.
    t_hi = t_lo + width
    try:
        cset = band_set(stats, t_lo, t_hi)
    except NonFiniteResult:
        return  # the empty set: test_asymmetric_band_matches_grid_scan
    grid, oracle = grid_scan_membership(stats, t_lo, t_hi, -50, 50, 2001)
    bounds = set_boundaries(cset)
    for rho in grid[set_membership(cset, grid) != oracle]:
        tol = 1e-6 * (1.0 + abs(rho))
        assert bounds and min(abs(rho - b) for b in bounds) <= tol


@pytest.mark.parametrize(
    "cov, expected",
    [
        (0.3, ((-1.875, math.inf),)),
        (0.6, ((-math.inf, 3.75),)),
        (0.5 - 2.0**-54, ((-3.0 * 2.0**51, math.inf),)),
    ],
)
def test_band_inversion_half_line_at_the_boundedness_threshold(cov, expected):
    # mean_x^2 == q^2 * var_mean_x: a == 0, so T0^2 = q^2 is linear with the
    # one root (mean_y^2 - q^2 var_mean_y) / (2 (mean_x mean_y - q^2 cov)).
    # Both tails tend to a band edge, T0(-inf) = 2 and T0(inf) = -2. Each
    # tail is read as every segment is, on the line of the sum of its two
    # bounds' directions. Beside a moderate cut T0 there is clear of the
    # edge, but beside the cut -3*2^51 of cov = 0.5 - 2^-54 it is 2 within
    # about 1e-31 and rounds to 2. The sign of q (T0^2 - 4)/c there, which
    # is 2 half_b - 3c = 2^-52 at half_b = 2^-52 and c = 1/(6*2^51), keeps
    # that tail out.
    stats = SummaryStats(10, 2.0, 1.0, 1.0, 1.0, cov, 9)
    cset = band_set(stats, -2.0, 2.0)
    assert len(cset.intervals) == 1
    assert cset.intervals[0] == pytest.approx(expected[0], rel=1e-15)
    assert tangency_slopes(stats, 2.0) == tuple(v for v in cset.intervals[0] if math.isfinite(v))
    grid, oracle = grid_scan_membership(stats, -2.0, 2.0, -1e4, 1e4, 20_001)
    assert (set_membership(cset, grid) == oracle).all()


@pytest.mark.parametrize("mean_y, t_lo", [(1.0, 1e-200), (3.0, 2.2e-313)])
def test_band_edge_within_1e150_of_zero_counts_as_zero(mean_y, t_lo):
    # mean_x = 0: T0 = mean_y/sd tends to 0 from above in both tails and
    # crosses t_lo only near |rho| = 1/|t_lo|, where t_lo^2 underflows. The
    # squared equations then have no root and the band no cut, so the one
    # line read is rho = 0, where T0 is in the band: every rho up to about
    # 1e150 is a member (the exact set of the first band ends near 1e200,
    # the second past the doubles).
    stats = SummaryStats(3, 0.0, mean_y, 1.0, 1.0, 0.0, 2)
    cset = band_set(stats, t_lo, 1.0 + mean_y)
    assert cset.intervals == ((-math.inf, math.inf),)
    grid, oracle = grid_scan_membership(stats, t_lo, 1.0 + mean_y, -1e149, 1e149, 2001)
    assert oracle.all()


# 0 and +-10^k for k from -300 to 300 in steps of 2.5: the tails and the
# huge cuts, far past where the float pivot t0_values overflows (1e154).
# The exact referee is needed out there: where a tail tends to a band edge,
# T0 differs from it by about 1/rho^2, past 50 digits from rho = 1e25 on.
LOG_GRID = np.concatenate([-np.logspace(300, -300, 241), [0.0], np.logspace(-300, 300, 241)])


def assert_band_matches_exact_pivot_on_the_log_grid(stats, t_lo, t_hi):
    # Membership both ways at every grid point more than 1e-6 (1 + |rho|)
    # from a limit of the set, against the exact band.
    try:
        cset = band_set(stats, t_lo, t_hi)
    except NonFiniteResult as exc:
        if "excludes" not in str(exc):
            return  # a limit beyond the doubles: nothing to compare
        cset = None
    bounds = [] if cset is None else set_boundaries(cset)
    for rho in LOG_GRID.tolist():
        if any(abs(rho - b) <= 1e-6 * (1.0 + abs(rho)) for b in bounds):
            continue
        exact = exact_band_member(stats, t_lo, t_hi, rho)
        if exact is not None:
            assert (cset is not None and cset.contains(rho)) == exact, rho


@st.composite
def log_stats(draw):
    """Stats with mean_x = 0 among the means and var_mean_x from 1e-24 to 10."""
    sd_x, sd_y = 10.0 ** draw(st.floats(-12.0, 0.5)), draw(st.floats(0.05, 3.0))
    corr = draw(st.floats(-0.95, 0.95))
    mean_x, mean_y = draw(mean_strategy), draw(mean_strategy)
    return SummaryStats(3, mean_x, mean_y, sd_x * sd_x, sd_y * sd_y, corr * sd_x * sd_y, 2)


# A drawn t_lo is 0 or at least 1e-100 in size: below that t^2 * var_mean_x
# can underflow, and the squared equations then lose the cut near |rho| =
# |mean_y| / (|t| sd_x), as test_band_edge_within_1e150_of_zero_counts_as_zero
# pins (the explicit example's subnormal t^2 * var_mean_x still puts its
# cuts within 1e-6). t_hi = t_lo + width is 0 or at least about 1e-17.
@given(
    log_stats(),
    st.floats(-4.0, 1.0).filter(lambda t: t == 0.0 or abs(t) >= 1e-100),
    st.floats(0.1, 5.0),
)
@example(SummaryStats(3, 0.0, -1.0, 1e-20, 1.0, 0.0, 2), -1e-149, 1.0)  # |rho| >= 1e159
@example(SummaryStats(10, 2.0, 1.0, 1.0, 1.0, 0.5 - 2.0**-54, 9), -2.0, 4.0)  # rho >= -3*2^51
def test_asymmetric_band_matches_exact_pivot_on_a_log_grid(stats, t_lo, width):
    assert_band_matches_exact_pivot_on_the_log_grid(stats, t_lo, t_lo + width)


@st.composite
def edge_tail_bands(draw):
    """Stats and a band one of whose edges t is +-mean_x/sd_x, so that a ==
    0 for t and a tail tends to it. t and sd_x are powers of two and 8
    mean_y an integer, so that a, half_b and c of t's quadratic are each
    one rounding from exact: a cut lost or moved by cancellation in them
    is not what this checks. Half the time cov is within 4 ulps of mean_x
    mean_y / t^2, so that half_b is 0 or a few ulps of mean_x mean_y and
    t's one cut lies some 1e16 times as far out as the means' ratio."""
    edge, sd_x = 2.0 ** draw(st.integers(-2, 2)), 2.0 ** draw(st.integers(-30, 3))
    mean_x = draw(st.sampled_from([-1.0, 1.0])) * edge * sd_x
    mean_y = draw(st.integers(-40, 40)) / 8.0
    sd_y = draw(st.floats(0.05, 3.0)) + abs(mean_y) / edge
    cov = draw(st.floats(-0.95, 0.95)) * sd_x * sd_y
    if mean_y != 0.0 and draw(st.booleans()):
        near = mean_x * mean_y / (edge * edge)
        cov = near + draw(st.integers(-4, 4)) * math.ulp(near)
    width = draw(st.floats(0.1, 5.0))
    band = (edge - width, edge) if draw(st.booleans()) else (-edge, width - edge)
    return SummaryStats(3, mean_x, mean_y, sd_x * sd_x, sd_y * sd_y, cov, 2), *band


@given(edge_tail_bands())
def test_band_tails_tending_to_an_edge_match_exact_pivot_on_a_log_grid(case):
    stats, t_lo, t_hi = case
    a = [stats.mean_x * stats.mean_x - t * t * stats.var_mean_x for t in (t_lo, t_hi)]
    assert 0.0 in a
    assert_band_matches_exact_pivot_on_the_log_grid(stats, t_lo, t_hi)


def test_band_inversion_rejects_inverted_band():
    stats = SummaryStats(10, 1.0, 1.0, 0.01, 0.01, 0.0, 9)
    with pytest.raises(DomainError):
        band_set(stats, 2.0, -2.0)


# ------------------------------------------------------ tangency slopes


@given(stats_strategy())
def test_tangency_slopes_shape_and_on_band(stats):
    spec = ConfidenceSpec.two_sided(0.95, df=stats.df)
    slopes = tangency_slopes(stats, spec.quantile)
    assert len(slopes) in (0, 1, 2)
    assert list(slopes) == sorted(slopes)
    for rho in slopes:
        q = stats.var_mean_y - 2 * rho * stats.cov_mean_xy + rho * rho * stats.var_mean_x
        if q > 1e-12:
            t0 = abs(_t0(stats, 1.0, rho)[1])
            assert t0 == pytest.approx(spec.quantile, rel=1e-6)


@given(
    st.integers(20, 51),
    st.sampled_from((-1.0, 1.0)),
    st.floats(-3.0, 3.0),
    st.floats(0.01, 4.0),
    st.floats(-0.95, 0.95),
)
def test_tangency_slopes_are_stable_near_the_boundedness_threshold(k, sign, my, vy, corr):
    # mean_x = 1 +- 2^-k with var_mean_x = 1 at t = 1 puts the leading
    # coefficient a = mean_x^2 - var_mean_x within 2^(1-k) of zero, where
    # (half_b - s)/a cancels. Both roots of the quadratic in the same double
    # coefficients, from 50-digit mpmath, must agree to 1e-12 relative
    # wherever the roots are well apart (a discriminant of at least 1e-3
    # half_b^2).
    mx, cxy = 1.0 + sign * 2.0**-k, corr * math.sqrt(vy)
    stats = SummaryStats(10, mx, my, 1.0, vy, cxy, 9)
    with mpmath.workdps(50):
        a, half_b, c = (mpmath.mpf(v) for v in (mx * mx - 1.0, mx * my - cxy, my * my - vy))
        disc = half_b * half_b - a * c
        assume(disc >= 1e-3 * half_b * half_b and half_b != 0)
        exact = sorted([(half_b - mpmath.sqrt(disc)) / a, (half_b + mpmath.sqrt(disc)) / a])
        slopes = tangency_slopes(stats, 1.0)
        assert len(slopes) == 2
        for got, want in zip(slopes, exact):
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("mean_y, cov", [(1.0, 0.25), (1e-160, 0.0), (1e-170, 0.0)])
def test_tangency_slope_at_the_threshold_is_the_linear_root(mean_y, cov):
    # a == 0 exactly: the one slope is c / (2 half_b), also where half_b^2
    # is subnormal or underflows to zero.
    stats = SummaryStats(10, 2.0, mean_y, 1.0, 1.0, cov, 9)
    half_b, c = 2.0 * mean_y - 4.0 * cov, mean_y * mean_y - 4.0
    assert tangency_slopes(stats, 2.0) == (c / (2.0 * half_b),)


def test_tangency_equals_bounded_fieller_limits(worked):
    _, stats, spec = worked
    cset = fieller_set(stats, spec).confidence_set
    slopes = tangency_slopes(stats, spec.quantile)
    # Same quadratic, same half-b closed form: equality is exact.
    assert slopes == (cset.lower, cset.upper)


# ---------------------------------------------- index family and others


def test_taylor_rejects_zero_means():
    spec = ConfidenceSpec.two_sided(0.95, df=1)
    with pytest.raises(ZeroDenominator):
        taylor_limits(summarize(PairedSample([-1.0, 1.0], [1.0, 2.0])), spec)


def test_index_zero_individual_denominator_reports_indices():
    sample = PairedSample([1.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    spec = ConfidenceSpec.two_sided(0.95, df=3)
    with pytest.raises(ZeroIndividualDenominator) as err:
        method_result(sample, Method.INDEX, spec)
    assert list(err.value.indices) == [1, 3]


def test_trimmed_reduces_to_index_at_zero_trim():
    rng = np.random.default_rng(11)
    sample = PairedSample(rng.uniform(1, 3, 25), rng.normal(5, 2, 25))
    spec = ConfidenceSpec.two_sided(0.95, df=24)
    plain = method_result(sample, Method.INDEX, spec)
    trimmed = method_result(sample, Method.TRIMMED_INDEX, spec, trim=0.0)
    assert trimmed.estimate == plain.estimate
    assert trimmed.confidence_set.lower == plain.confidence_set.lower
    assert trimmed.confidence_set.upper == plain.confidence_set.upper


# Paired samples of 2 to 40 pairs; an x_i may be exactly zero.
samples = st.integers(2, 40).flatmap(
    lambda n: st.tuples(*[st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)] * 2)
)


def _bits(call) -> str:
    """A method's outcome as text that is equal only for equal bits: the
    repr of its estimate and intervals, or its error class and message."""
    try:
        result = call()
    except RatioCiError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((result.estimate, result.confidence_set.intervals))


@given(samples)
def test_trimmed_index_at_zero_trim_is_index_bit_for_bit(pairs):
    sample = PairedSample(*pairs)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    index = _bits(lambda: method_result(sample, Method.INDEX, spec))
    assert _bits(lambda: method_result(sample, Method.TRIMMED_INDEX, spec, trim=0.0)) == index


@given(samples)
def test_zero_variance_is_taylor_without_x_variance_bit_for_bit(pairs):
    sample = PairedSample(*pairs)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    known_x = replace(summarize(sample), var_mean_x=0.0, cov_mean_xy=0.0)
    taylor = _bits(lambda: taylor_limits(known_x, spec))
    assert _bits(lambda: method_result(sample, Method.ZERO_VARIANCE, spec)) == taylor


@pytest.mark.parametrize("mean_y", [0.0, 1e-170, 1e-150])
def test_taylor_is_defined_at_a_zero_or_tiny_mean_y(mean_y):
    # q = vy - 2*rho*cxy + rho^2*vx = 0.04 + 0.01*mean_y^2 rounds to 0.04.
    spec = ConfidenceSpec.two_sided(0.95, df=9)
    cset = taylor_limits(SummaryStats(10, 1.0, mean_y, 0.01, 0.04, 0.0, 9), spec).confidence_set
    half = spec.quantile * 0.2
    assert half == pytest.approx(0.45243, abs=1e-5)
    assert cset.lower == pytest.approx(mean_y - half, rel=1e-15)
    assert cset.upper == pytest.approx(mean_y + half, rel=1e-15)


def test_trimmed_index_hand_checked():
    # Eight ratios 1..8 with trim=0.25 -> g=2: keep 3..6, winsorize the
    # tails to 3 and 6, df = 8 - 4 - 1 = 3.
    xs = np.ones(8)
    ys = np.array([3.0, 1.0, 8.0, 4.0, 6.0, 2.0, 5.0, 7.0])
    spec = ConfidenceSpec.two_sided(0.95, df=7)
    r = method_result(PairedSample(xs, ys), Method.TRIMMED_INDEX, spec, trim=0.25)
    assert r.estimate == pytest.approx(4.5)
    wins = [3.0, 3.0, 3.0, 4.0, 5.0, 6.0, 6.0, 6.0]
    ref = summarize_oracle(wins, wins)
    s_w = math.sqrt(ref.var_x)
    se = s_w / ((1.0 - 2.0 * 2 / 8) * math.sqrt(8))
    from ratio_ci import t_quantile

    half = t_quantile(0.975, 3) * se
    assert r.confidence_set.lower == pytest.approx(4.5 - half, rel=1e-12)
    assert r.confidence_set.upper == pytest.approx(4.5 + half, rel=1e-12)


def test_trimmed_index_rejects_overtrim():
    sample = PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    spec = ConfidenceSpec.two_sided(0.95, df=2)
    with pytest.raises(TooFewAfterTrim):
        method_result(sample, Method.TRIMMED_INDEX, spec, trim=0.4)
    with pytest.raises(DomainError):
        method_result(sample, Method.TRIMMED_INDEX, spec, trim=0.5)


# ----------------------------------------------------------- ConfidenceSet


def test_confidence_set_contains_semantics():
    b = ConfidenceSet(((1.0, 2.0),))
    assert b.contains(1.0) and b.contains(2.0) and not b.contains(0.999)
    u = ConfidenceSet(((-math.inf, -1.0), (1.0, math.inf)))
    assert u.contains(-1.0) and u.contains(1.0) and u.contains(5.0)
    assert not u.contains(0.0)
    w = ConfidenceSet(((-math.inf, math.inf),))
    assert w.contains(1e308) and w.contains(-1e308)
    h = ConfidenceSet(((-math.inf, -1.0), (1.0, 2.0)))
    assert h.contains(-1e308) and h.contains(1.5) and not h.contains(0.0)
    assert not h.contains(3.0)


def test_confidence_set_derived_fields():
    cases = {
        ((1.0, 2.0),): (SetCase.BOUNDED, 1.0, 2.0, None, None),
        ((3.0, 3.0),): (SetCase.BOUNDED, 3.0, 3.0, None, None),
        ((-math.inf, -1.0), (1.0, math.inf)): (SetCase.UNBOUNDED_EXCLUSIVE, -math.inf, math.inf, -1.0, 1.0),
        ((-math.inf, math.inf),): (SetCase.WHOLE_LINE, -math.inf, math.inf, None, None),
        ((2.0, math.inf),): (SetCase.UNBOUNDED_EXCLUSIVE, 2.0, math.inf, -math.inf, 2.0),
        ((-math.inf, -1.0), (1.0, 2.0)): (SetCase.UNBOUNDED_EXCLUSIVE, -math.inf, 2.0, None, None),
    }
    for intervals, expected in cases.items():
        cset = ConfidenceSet(intervals)
        got = (cset.case, cset.lower, cset.upper, cset.excluded_lower, cset.excluded_upper)
        assert got == expected, intervals


def test_confidence_set_validation():
    with pytest.raises(NonFiniteResult):
        ConfidenceSet(((2.0, 1.0),))
    with pytest.raises(NonFiniteResult):
        ConfidenceSet(((0.0, math.inf), (5.0, 6.0)))
    with pytest.raises(NonFiniteResult):
        ConfidenceSet(((-math.inf, 1.0), (1.0, math.inf)))
    for bad in ((), ((math.nan, 1.0),), ((math.inf, math.inf),), ((1.0, 2.0), (0.0, 0.5))):
        with pytest.raises(NonFiniteResult):
            ConfidenceSet(bad)
