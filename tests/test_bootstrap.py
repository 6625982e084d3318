import contextlib
import math
import tracemalloc
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratio_ci import (
    AllResamplesDegenerate,
    BootstrapConfig,
    ConfidenceSpec,
    DegenerateJackknife,
    DomainError,
    Method,
    PairedSample,
    SetCase,
    SimCell,
    TooFewObservations,
    TooFewReplicates,
    ZeroDenominator,
    evaluate_methods,
    fieller_set,
    summarize,
)
import ratio_ci.montecarlo as mc
from ratio_ci import bootstrap
from ratio_ci.core import _summarize_rows
from ratio_ci.bootstrap import (
    _centre,
    _collect,
    _IndexStream,
    _jackknife_t0,
    _limits,
    _ratio_jackknife,
    _resample,
    _resample_indices,
)
from ratio_ci.methods import _t0

from oracle_utils import (
    bca_ci,
    bca_oracle,
    member_runs,
    quantile_linear_oracle,
    ratio_of_means,
    resample_pairs,
)
from one_sample import band_set, method_result
from test_methods import WORKED_X, WORKED_Y

HWANG = Method.HWANG_BOOTSTRAP
RATIO_BOOT = (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)


def _sample(seed=3, n=30, cv_x=0.2):
    rng = np.random.default_rng(seed)
    xs = rng.normal(2.0, 2.0 * cv_x, n)
    ys = rng.normal(3.0, 0.6, n)
    return PairedSample(xs, ys)


def _dist(values):
    """The values, sorted by the library's collect step."""
    vals = np.asarray(values, dtype=float)
    finite, _ = _collect(vals, vals.size)
    return finite


# ----------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(DomainError):
        BootstrapConfig(replications=99)
    # Only the CLI warns about few replications; the config stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        BootstrapConfig(replications=500)


def test_config_rejects_seeds_and_counts_it_cannot_run():
    # Each used to be accepted and to fail later: seed=-1 with ValueError
    # and seed=1.5 with TypeError inside NumPy, and a fractional count with
    # TypeError inside the resampling kernel.
    for bad in ({"seed": -1}, {"seed": 1.5}, {"replications": 1000.5}, {"replications": 1e3}):
        with pytest.raises(DomainError):
            BootstrapConfig(**bad)
    config = BootstrapConfig(replications=np.int64(1000), seed=np.uint64(2**63))
    assert config == BootstrapConfig(1000, 2**63)
    assert type(config.replications) is int and type(config.seed) is int
# -------------------------------------------------------------- resampling


def test_resampling_is_seed_deterministic():
    sample = _sample()
    config = BootstrapConfig(replications=300, seed=11)
    a, _ = resample_pairs(sample, config, ratio_of_means)
    b, _ = resample_pairs(sample, config, ratio_of_means)
    assert np.array_equal(a, b)
    c, _ = resample_pairs(sample, BootstrapConfig(replications=300, seed=12), ratio_of_means)
    assert not np.array_equal(a, c)


def test_resampling_drops_non_finite_and_counts():
    sample = _sample(n=6)

    def statistic(s: PairedSample) -> float:
        # Degenerate whenever the resample repeats pair 0 at least twice.
        if int((s.xs == sample.xs[0]).sum()) >= 2:
            return math.nan
        return float(s.ys.mean())

    config = BootstrapConfig(replications=400, seed=2)
    values, dropped = resample_pairs(sample, config, statistic)
    assert dropped > 0
    assert values.size + dropped == 400
    assert np.isfinite(values).all()


def test_resampling_majority_degenerate_raises():
    sample = _sample(n=5)
    config = BootstrapConfig(replications=200, seed=0)
    with pytest.raises(AllResamplesDegenerate):
        resample_pairs(sample, config, lambda s: math.nan)


def test_vectorized_ratio_path_equals_generic_loop():
    # Two independent routes to the same empirical distribution must agree
    # bit for bit: same seed, same index matrix, same arithmetic.
    sample = _sample(seed=9, n=21)
    config = BootstrapConfig(replications=500, seed=77)
    generic, generic_dropped = resample_pairs(sample, config, ratio_of_means)
    buffers = np.empty((2, config.replications, sample.n))
    ratios, _ = _resample(
        sample.xs, sample.ys, config.seed, config.replications, True, None, buffers
    )
    vectorized, vectorized_dropped = _collect(ratios, config.replications)
    assert np.array_equal(generic, vectorized)
    assert generic_dropped == vectorized_dropped


# ------------------------------------------------------------- percentiles


def test_percentile_frozen_quantile_rule():
    # Interpolated order-statistic rule with plotting positions (k-1)/(B-1):
    # for values 1..1000 at level 0.95 the endpoints sit at ranks
    # 1 + 0.025*999 = 25.975 and 1 + 0.975*999 = 975.025.
    dist = _dist(np.arange(1.0, 1001.0))
    lower, upper, *_ = _limits(dist, 0.95, None, None)
    assert lower == pytest.approx(25.975, abs=1e-9)
    assert upper == pytest.approx(975.025, abs=1e-9)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32), min_size=100, max_size=400),
    st.floats(0.5, 0.99),
)
def test_percentile_containment(values, level):
    dist = _dist(values)
    lower, upper, *_ = _limits(dist, level, None, None)
    assert dist[0] <= lower <= upper <= dist[-1]


def test_percentile_on_constant_values():
    lower, upper, *_ = _limits(_dist([4.2] * 150), 0.95, None, None)
    assert (lower, upper) == (4.2, 4.2)


def test_percentile_guards():
    with pytest.raises(TooFewReplicates):
        _limits(_dist(np.arange(99.0)), 0.95, None, None)


def test_bootstrap_sd_matches_plugin_formula():
    # For the linear statistic mean(y), the bootstrap SD estimates the
    # plug-in sd of the mean, i.e. sigma_hat * sqrt((n-1)/n) relative to
    # the usual n-1 estimate. B=4000 pins the Monte Carlo noise well under
    # the 10% band asserted here.
    sample = _sample(seed=21, n=40)
    config = BootstrapConfig(replications=4000, seed=5)
    values, _ = resample_pairs(sample, config, lambda s: float(s.ys.mean()))
    boot_sd = float(values.std(ddof=1))
    stats = summarize(sample)
    target = stats.sd_mean_y * math.sqrt((sample.n - 1) / sample.n)
    assert boot_sd == pytest.approx(target, rel=0.10)


# --------------------------------------------------------------------- BCa


def test_bca_matches_textbook_oracle():
    # Same empirical distribution, z0/a recomputed by an independent
    # implementation (erf-based normal CDF, bisection quantiles, hand-rolled
    # linear interpolation); agreement is limited only by those primitives.
    sample = _sample(seed=13, n=25)
    config = BootstrapConfig(replications=2000, seed=31)
    statistic = ratio_of_means
    cset = bca_ci(sample, statistic, config, 0.95)

    values, _ = resample_pairs(sample, config, statistic)
    theta_hat = statistic(sample)
    jack = [
        statistic(PairedSample(np.delete(sample.xs, i), np.delete(sample.ys, i)))
        for i in range(sample.n)
    ]
    lo, hi = bca_oracle(values, theta_hat, jack, 0.95)
    assert cset.lower == pytest.approx(lo, rel=1e-6)
    assert cset.upper == pytest.approx(hi, rel=1e-6)


def test_bca_reduces_to_percentile_when_unbiased_and_symmetric():
    values = np.linspace(-1.0, 1.0, 1001)  # median exactly 0
    dist = _dist(values)
    jack = np.array([-1.0, -0.5, 0.5, 1.0])  # zero skew -> acceleration 0
    lower, upper, _, _, fallback = _limits(dist, 0.9, 0.0 + 1e-15, jack)
    assert fallback is None
    plain_lower, plain_upper, *_ = _limits(dist, 0.9, None, None)
    # z0 = Phi^-1(#below/B); 500/1001 is not exactly half, so allow the
    # one-rank wobble that the tie convention introduces.
    assert lower == pytest.approx(plain_lower, abs=2e-3)
    assert upper == pytest.approx(plain_upper, abs=2e-3)


def test_bca_fallbacks_warn_and_match_percentile():
    # The kernel returns each reason and issues nothing; its callers warn
    # with the reason's category (the _hwang_fallback tests below).
    dist = _dist(np.arange(1.0, 201.0))
    plain = _limits(dist, 0.95, None, None)[:2]
    cases = [
        # Estimate outside the resample range: z0 undefined.
        (0.5, np.array([1.0, 2.0, 3.0]), "estimate outside the bootstrap distribution"),
        # Constant jackknife: acceleration undefined.
        (100.0, np.ones(5), "all jackknife values coincide"),
        # Non-finite jackknife values.
        (100.0, np.array([1.0, math.nan]), "non-finite jackknife values"),
    ]
    for estimate, jack, reason in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, upper, z0, a, fallback = _limits(dist, 0.95, estimate, jack)
        assert (lower, upper, z0, a, fallback) == (*plain, None, None, reason)
    assert bootstrap._FALLBACK_CATEGORY == {
        "estimate outside the bootstrap distribution": RuntimeWarning,
        "non-finite jackknife values": RuntimeWarning,
        "all jackknife values coincide": DegenerateJackknife,
    }


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
@pytest.mark.parametrize("k", [365, -365, 600, -600])
def test_bca_limits_follow_the_units_of_x(k):
    # x times 2^k scales the ratio by 2^-k, and every ratio replicate and
    # jackknife value with it exactly. The acceleration does not depend on
    # that scale: its sums of d^2 and d^3 ran out of range, an OverflowError
    # at k = -365, a nan acceleration at 365, a percentile fallback at +-600.
    # (At 600 the variance of x's mean overflows, which these methods do not read.)
    spec = ConfidenceSpec.two_sided(0.95, df=2)
    config = BootstrapConfig(seed=3)
    methods = (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)
    xs, ys = np.array(WORKED_X), np.array(WORKED_Y)
    unscaled = dict(evaluate_methods(PairedSample(xs, ys), methods, spec, config))
    scaled = dict(evaluate_methods(PairedSample(np.ldexp(xs, k), ys), methods, spec, config))
    for method in methods:
        want, got = unscaled[method], scaled[method]
        assert got.estimate == math.ldexp(want.estimate, -k)
        assert got.confidence_set.intervals == tuple(
            (math.ldexp(lo, -k), math.ldexp(hi, -k)) for lo, hi in want.confidence_set.intervals
        )


def test_bca_needs_three_pairs():
    sample = PairedSample([1.0, 2.0], [3.0, 4.0])
    config = BootstrapConfig(replications=2000, seed=0)
    with pytest.raises(TooFewObservations):
        bca_ci(sample, ratio_of_means, config, 0.95)


# ------------------------------------------------------------ ratio fronts


def test_ratio_results_share_one_distribution():
    sample = _sample(seed=4)
    config = BootstrapConfig(replications=1500, seed=8)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    both = dict(evaluate_methods(sample, RATIO_BOOT, spec, config))
    alone_p = method_result(sample, Method.BOOTSTRAP_PERCENTILE, spec, config)
    alone_b = method_result(sample, Method.BOOTSTRAP_BCA, spec, config)
    for m, alone in (
        (Method.BOOTSTRAP_PERCENTILE, alone_p),
        (Method.BOOTSTRAP_BCA, alone_b),
    ):
        assert both[m].confidence_set.lower == alone.confidence_set.lower
        assert both[m].confidence_set.upper == alone.confidence_set.upper
        assert both[m].confidence_set.case is SetCase.BOUNDED
        assert both[m].estimate == ratio_of_means(sample)


def test_ratio_jackknife_matches_literal_loop():
    sample = _sample(seed=17, n=19)
    fast = _ratio_jackknife(sample.xs, sample.ys)
    slow = [
        ratio_of_means(PairedSample(np.delete(sample.xs, i), np.delete(sample.ys, i)))
        for i in range(sample.n)
    ]
    assert fast == pytest.approx(slow, rel=1e-12)


# ------------------------------------------------------- pivot bootstrap


def test_hwang_symmetric_band_reduces_to_exact_set():
    sample = _sample(seed=6, n=15)
    stats = summarize(sample)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    exact = fieller_set(stats, spec).confidence_set
    forced = band_set(stats, -spec.quantile, spec.quantile)
    assert (forced.case, forced.lower, forced.upper) == (
        exact.case,
        exact.lower,
        exact.upper,
    )


def test_hwang_close_to_exact_on_well_behaved_data():
    sample = _sample(seed=23, n=200, cv_x=0.1)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=2000, seed=3)
    hw = method_result(sample, HWANG, spec, config)
    exact = fieller_set(summarize(sample), spec).confidence_set
    assert hw.confidence_set.case is SetCase.BOUNDED
    width = exact.upper - exact.lower
    assert hw.confidence_set.lower == pytest.approx(exact.lower, abs=0.2 * width)
    assert hw.confidence_set.upper == pytest.approx(exact.upper, abs=0.2 * width)
    diag = hw.diagnostics
    assert diag.t_lower < 0.0 < diag.t_upper
    assert diag.dropped_replicates == 0
    assert diag.bias_correction is not None and diag.acceleration is not None


def _resample_t0_reference(sample: PairedSample, config: BootstrapConfig) -> np.ndarray:
    """Literal per-resample recomputation through the pivot of the moments,
    keeping the resamples whose variance of mean(y - rho_hat*x) is positive."""
    rng = np.random.default_rng(config.seed)
    idx = rng.integers(0, sample.n, size=(config.replications, sample.n))
    rho_hat = ratio_of_means(sample)
    out = []
    for row in idx:
        stats = summarize(PairedSample(sample.xs[row], sample.ys[row]))
        q, t0 = _t0(stats, 1.0, rho_hat)
        if q > 0.0:
            out.append(t0)
    return np.asarray(out)


def test_hwang_resampled_pivots_match_literal_loop():
    sample = _sample(seed=29, n=12)
    config = BootstrapConfig(replications=300, seed=41)
    hw = method_result(sample, HWANG, ConfidenceSpec.two_sided(0.95, df=11), config)
    # The band is read at the BCa levels about T0(rho_hat) = 0, from the
    # literal loop's pivots and the literal leave-one-out pivots.
    ref = np.sort(_resample_t0_reference(sample, config))
    rho_hat = ratio_of_means(sample)
    jack = []
    for i in range(sample.n):
        loo = PairedSample(np.delete(sample.xs, i), np.delete(sample.ys, i))
        jack.append(_t0(summarize(loo), 1.0, rho_hat)[1])
    lo, hi, z0, a, fallback = _limits(ref, 0.95, 0.0, np.array(jack))
    assert fallback is None
    assert hw.diagnostics.bias_correction == pytest.approx(z0, rel=1e-9)
    assert hw.diagnostics.acceleration == pytest.approx(a, rel=1e-9)
    assert hw.diagnostics.t_lower == pytest.approx(float(lo), rel=1e-9)
    assert hw.diagnostics.t_upper == pytest.approx(float(hi), rel=1e-9)


def test_resamples_of_one_repeated_pair_give_no_pivot():
    # At n = 3, 3 of the 27 resamples repeat one pair, so their d* are all
    # equal and T0* is undefined. A mean of three copies of a value that is
    # not a binary fraction need not round back to it; the deviations from
    # such a mean are rounding noise, and T0* would come out near 1e15.
    sample = PairedSample([6.34, 4.02, 2.88], [4.87, 8.30, 11.66])
    config = BootstrapConfig(replications=1000, seed=3)
    buffers = np.empty((2, config.replications, sample.n))
    _, t0s = _resample(
        sample.xs, sample.ys, config.seed, config.replications, False,
        ratio_of_means(sample), buffers,
    )
    idx = _unblocked_indices(config, sample.n)
    repeated = (idx == idx[:, :1]).all(axis=1)
    assert repeated.any()
    assert np.isnan(t0s[repeated]).all()
    assert np.isfinite(t0s[~repeated]).all()


def test_hwang_jackknife_pivots_match_literal_loop():
    sample = _sample(seed=31, n=14)
    rho_hat = ratio_of_means(sample)
    fast = _jackknife_t0(sample.xs, sample.ys, rho_hat)
    slow = []
    for i in range(sample.n):
        loo = PairedSample(np.delete(sample.xs, i), np.delete(sample.ys, i))
        slow.append(_t0(summarize(loo), 1.0, rho_hat)[1])
    assert fast == pytest.approx(slow, rel=1e-9)


def test_hwang_jackknife_pivots_keep_their_digits_far_from_zero():
    # At mean/sd 1e6, leave-one-out moments taken from running sums of
    # squares cancel in about 12 of their 16 digits.
    rng = np.random.default_rng(17)
    xs = rng.normal(1e6, 1.0, 50)
    ys = rng.normal(2e6, 2.0, 50)
    rho_hat = ratio_of_means(PairedSample(xs, ys))
    fast = _jackknife_t0(xs, ys, rho_hat)
    exact = []
    with mpmath.workdps(50):
        d = [mpmath.mpf(y) - mpmath.mpf(rho_hat) * mpmath.mpf(x) for x, y in zip(xs, ys)]
        m = len(d) - 1
        for i in range(len(d)):
            loo = d[:i] + d[i + 1 :]
            mean = mpmath.fsum(loo) / m
            ss = mpmath.fsum((v - mean) ** 2 for v in loo)
            exact.append(float(mean / mpmath.sqrt(ss / (m * (m - 1)))))
    assert fast == pytest.approx(exact, rel=1e-7)


def test_hwang_guards():
    spec = ConfidenceSpec.two_sided(0.95, df=2)
    config = BootstrapConfig(replications=200, seed=0)
    with pytest.raises(TooFewObservations):
        method_result(PairedSample([1.0, 2.0], [1.0, 1.0]), HWANG, spec, config)
    with pytest.raises(ZeroDenominator):
        method_result(PairedSample([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]), HWANG, spec, config)


def _hwang_fallback(sample):
    """Hwang's result, the categories of the warnings it raised, and the plain
    percentile band (t_lo, t_hi) of the same resamples with its set."""
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=1000, seed=5)
    buffers = np.empty((2, config.replications, sample.n))
    _, t0s = _resample(
        sample.xs, sample.ys, config.seed, config.replications, False,
        ratio_of_means(sample), buffers,
    )
    finite, _ = _collect(t0s, config.replications)
    t_lo, t_hi, *_ = _limits(finite, spec.level, 0.0, None)
    plain = t_lo, t_hi, band_set(summarize(sample), t_lo, t_hi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = method_result(sample, HWANG, spec, config)
    assert all("falling back to percentiles" in str(w.message) for w in caught)
    return result, [w.category for w in caught], plain


def _assert_plain_percentile_band(result, plain):
    assert result.diagnostics.bias_correction is None
    assert result.diagnostics.acceleration is None
    t_lo, t_hi, cset = plain
    assert (result.diagnostics.t_lower, result.diagnostics.t_upper) == (t_lo, t_hi)
    assert result.confidence_set == cset


def test_hwang_falls_back_when_pivots_sit_on_one_side_of_zero():
    # d = y - rho_hat*x = (3, -1, -1, -1). Resamples without the first pair
    # have constant d and are dropped; every other one has mean(d*) >= 0.
    sample = PairedSample([1.0, 2.0, 3.0, 2.0], [4.0, 1.0, 2.0, 1.0])
    result, categories, plain = _hwang_fallback(sample)
    assert categories == [RuntimeWarning]
    assert result.diagnostics.t_lower == 0.0
    _assert_plain_percentile_band(result, plain)


def test_hwang_falls_back_on_non_finite_jackknife_pivots():
    # d = y - rho_hat*x = (-2, 1, 1): leaving the first pair out leaves two
    # equal differences, whose pivot variance is zero.
    sample = PairedSample([1.0, 2.0, 3.0], [-1.0, 3.0, 4.0])
    assert not np.all(np.isfinite(_jackknife_t0(sample.xs, sample.ys, ratio_of_means(sample))))
    result, categories, plain = _hwang_fallback(sample)
    assert categories == [RuntimeWarning]
    _assert_plain_percentile_band(result, plain)


def test_hwang_falls_back_when_jackknife_pivots_coincide(monkeypatch):
    # The leave-one-out pivots are proportional to -d_i with sum(d_i) = 0,
    # so on data they coincide only when every d_i is zero, and then they
    # are non-finite instead. Constant pivots stand in for that branch.
    monkeypatch.setattr(
        bootstrap, "_jackknife_t0", lambda xs, ys, rho_hat: np.full(xs.size, 0.5)
    )
    result, categories, plain = _hwang_fallback(_sample(seed=23, n=50))
    assert categories == [DegenerateJackknife]
    _assert_plain_percentile_band(result, plain)


def test_hwang_is_seed_deterministic():
    sample = _sample(seed=2, n=40)
    spec = ConfidenceSpec.two_sided(0.95, df=39)
    config = BootstrapConfig(replications=1200, seed=99)
    a = method_result(sample, HWANG, spec, config)
    b = method_result(sample, HWANG, spec, config)
    assert a.confidence_set == b.confidence_set
    assert a.diagnostics == b.diagnostics


# --------------------------------------------------- set-shape capabilities


def test_ratio_bootstrap_is_always_bounded_even_when_exact_set_is_not():
    # Weak denominator: the exact set is unbounded, the direct bootstrap of
    # the ratio cannot be. This is the structural limitation that motivates
    # bootstrapping the pivot instead.
    rng = np.random.default_rng(37)
    xs = rng.normal(0.05, 1.0, 25)
    ys = rng.normal(1.0, 1.0, 25)
    sample = PairedSample(xs, ys)
    spec = ConfidenceSpec.two_sided(0.95, df=24)
    exact = fieller_set(summarize(sample), spec).confidence_set
    assert exact.case is not SetCase.BOUNDED
    config = BootstrapConfig(replications=2000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # extreme resamples may trip fallbacks
        results = dict(evaluate_methods(sample, RATIO_BOOT, spec, config))
    for result in results.values():
        assert result.confidence_set.case is SetCase.BOUNDED
    hw = method_result(sample, HWANG, spec, config)
    assert hw.confidence_set.case is not SetCase.BOUNDED


def test_hwang_sets_beyond_the_three_shapes_are_the_probe_runs():
    # Hwang BCa on the 300 runs of `simulate --cv-x 3.0 --cv-y 0.1 --n 20
    # --runs 300 --methods fieller,hwang_bootstrap --seed 1`: 12 sets are
    # neither bounded, nor the line minus an interval, nor the whole line.
    # Each is the runs of the band's members on a grid of rho well past its
    # finite limits, with each limit bisected between grid points.
    cell, runs = SimCell(3.0, 0.1, 20), 300
    spec = ConfidenceSpec.two_sided(0.95, df=cell.n - 1)
    config = BootstrapConfig()
    shapes = Counter()
    for _, batch, _ in mc._blocks(cell, mc._cell_seed(1, 0), runs, spec, boot_config=config):
        ((_, rows),) = mc._kernel_rows(batch, (Method.HWANG_BOOTSTRAP,))
        summaries = _summarize_rows(batch.xs, batch.ys)
        for i in np.flatnonzero(~rows.failed):
            result = rows.result(Method.HWANG_BOOTSTRAP, i)
            intervals = result.confidence_set.intervals
            shape = tuple((math.isinf(lo), math.isinf(hi)) for lo, hi in intervals)
            if shape in (((False, False),), ((True, False), (False, True)), ((True, True),)):
                continue
            shapes[shape] += 1
            finite = [v for interval in intervals for v in interval if math.isfinite(v)]
            reach = 10.0 * (1.0 + max(finite) - min(finite))
            grid = np.linspace(min(finite) - reach, max(finite) + reach, 200_001)
            band = result.diagnostics.t_lower, result.diagnostics.t_upper
            probe = member_runs(summaries.row(int(i)), *band, grid)
            assert len(probe) == len(intervals)
            for run, interval in zip(probe, intervals):
                for got, want in zip(run, interval):
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert shapes == {((False, True),): 8, ((True, False), (False, False)): 4}


def test_quantile_rule_matches_hand_rolled_interpolation():
    rng = np.random.default_rng(51)
    values = np.sort(rng.normal(size=501))
    dist = _dist(values)
    for q in (0.025, 0.3, 0.5, 0.91, 0.975):
        # The percentile limits at level |1 - 2q| sit at q and 1 - q.
        lower, upper, *_ = _limits(dist, abs(1.0 - 2.0 * q), None, None)
        assert float(lower if q <= 0.5 else upper) == pytest.approx(
            quantile_linear_oracle(list(values), q), rel=1e-12
        )


# ------------------------------------------------------ blocked resampling


def _unblocked_indices(config: BootstrapConfig, n: int) -> np.ndarray:
    return np.random.default_rng(config.seed).integers(0, n, (config.replications, n))


HALF_REJECTED = 2**31 + 1  # Lemire's threshold is 2**31 - 1: about half the words fail


@example(seed=2**130, bound=HALF_REJECTED, width=33, blocks=[3, 5, 2])
@given(
    seed=st.integers(0, 2**130),
    bound=st.sampled_from([3, 2, 2**16, 2**31, 20_000, HALF_REJECTED, 2**32 - 1]),
    width=st.integers(1, 60),
    blocks=st.lists(st.integers(1, 9), min_size=1, max_size=6),
)
def test_index_draw_is_numpys_integers_block_after_block(seed, bound, width, blocks):
    # The row width is not the bound, so that large bounds stay cheap; odd
    # rows * width leave a half-word for the next block.
    stream = _IndexStream(seed, bound, max(blocks) * width)
    raw, outputs = stream.raw, []
    stream.raw = lambda size: outputs.append(size) or raw(size)
    reference = np.random.default_rng(seed)
    for rows in blocks:
        expected = reference.integers(0, bound, (rows, width))
        drawn = _resample_indices(stream, rows, width)
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)
    rejected = 2 * sum(outputs) - stream.carry.size - sum(blocks) * width
    assert rejected >= 0
    if bound == HALF_REJECTED and sum(blocks) * width >= 64:
        assert rejected > 0  # the probability of none is 2**-64


def test_index_draw_needs_a_bound_below_two_to_the_32():
    for bound in (1, 2**32, 2**40):
        with pytest.raises(DomainError):
            _IndexStream(0, bound, 1)


@contextlib.contextmanager
def _buffer_size(size):
    """np.setbufsize(size) inside the block; np.errstate restores the
    buffer size only from NumPy 2 on, so this restores it itself."""
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("n", [3, 20, 79, 80, 127, 128, 500, 8191, 8192, 20_000])
def test_row_centring_has_the_bits_of_the_buffered_subtraction(n):
    rng = np.random.default_rng(n)
    rows = min(8, bootstrap._block_rows(n))
    d = 1e3 + rng.standard_normal((rows, n))
    first = d[:, :1].copy()
    centred = d.copy()
    _centre(centred, first)
    assert np.array_equal(centred, d - first)
    shift = np.add.reduce(centred, axis=1) / n
    _centre(centred, shift[:, None])
    with _buffer_size(16):
        unbuffered = (d - first) - shift[:, None]
    assert np.array_equal(centred, (d - first) - shift[:, None])
    assert np.array_equal(centred, unbuffered)


def test_resampling_leaves_the_buffer_size_as_it_was(monkeypatch):
    sample = _sample(seed=13, n=500)
    buffers = np.empty((2, bootstrap._block_rows(500), 500))
    args = (sample.xs, sample.ys, 8, 1000, True, ratio_of_means(sample), buffers)
    dots, calls = bootstrap._row_dots, []

    def failing_on_the_second_block(a, b):
        calls.append(np.getbufsize())
        if len(calls) == 2:
            raise ValueError("mid-loop")
        return dots(a, b)

    with _buffer_size(4096):  # neither the default nor the unbuffered 16
        _resample(*args)
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError):  # inside the unbuffered subtraction
            _centre(np.zeros((3, 500)), np.zeros((4, 1)))
        assert np.getbufsize() == 4096
        monkeypatch.setattr(bootstrap, "_row_dots", failing_on_the_second_block)
        with pytest.raises(ValueError, match="mid-loop"):
            _resample(*args)
        assert np.getbufsize() == 4096 and calls == [4096, 4096]


def _unblocked_t0(sample: PairedSample, config: BootstrapConfig, rho_hat: float):
    n = sample.n
    idx = _unblocked_indices(config, n)
    d = sample.ys[idx] - rho_hat * sample.xs[idx]
    first = d[:, 0]
    centred = d - first[:, None]
    shift = centred.mean(axis=1)
    dev = centred - shift[:, None]
    ss = np.array([row @ row for row in dev])  # each resample's own 1-D dot
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ss > 0.0, (first + shift) / np.sqrt(ss / (n * (n - 1))), math.nan)


def _unblocked_ratios(sample: PairedSample, config: BootstrapConfig) -> np.ndarray:
    idx = _unblocked_indices(config, sample.n)
    mx = sample.xs[idx].mean(axis=1)
    my = sample.ys[idx].mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mx != 0.0, my / mx, math.nan)


def _assert_distribution_is(collected: tuple[np.ndarray, int], values: np.ndarray):
    finite = np.sort(values[np.isfinite(values)])
    assert np.array_equal(collected[0], finite)
    assert collected[1] == len(values) - len(finite)


@pytest.mark.parametrize(
    ("n", "replications", "block_elements", "blocks"),
    [
        # fewer elements than n: one resample per block
        pytest.param(31, 1000, 30, 1000, id="30-1000"),
        # 142 blocks of 7 rows, then a ragged block of 6
        pytest.param(31, 1000, 7 * 31, 143, id="217-143"),
        # one-row blocks, the default for n > 32 768, against 3-row blocks
        pytest.param(20_000, 200, 1, 200, id="n20000-1-200"),
    ],
)
def test_block_size_changes_no_number(monkeypatch, n, replications, block_elements, blocks):
    sample = _sample(seed=13, n=n)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=replications, seed=8)
    rho_hat = ratio_of_means(sample)
    hwang_default = method_result(sample, HWANG, spec, config)
    ratio_default = dict(evaluate_methods(sample, RATIO_BOOT, spec, config))

    monkeypatch.setattr(bootstrap, "_BLOCK_ELEMENTS", block_elements)
    draws = []
    draw = bootstrap._resample_indices

    def counted_draw(rng, rows, n):
        draws.append(rows)
        return draw(rng, rows, n)

    monkeypatch.setattr(bootstrap, "_resample_indices", counted_draw)
    # One pass gives the ratio replicates and the pivots of the same resamples.
    buffers = np.empty((2, config.replications, sample.n))
    ratios, t0s = _resample(
        sample.xs, sample.ys, config.seed, config.replications, True, rho_hat, buffers
    )
    assert len(draws) == blocks and sum(draws) == config.replications
    assert np.array_equal(t0s, _unblocked_t0(sample, config, rho_hat), equal_nan=True)
    assert np.array_equal(ratios, _unblocked_ratios(sample, config), equal_nan=True)
    _assert_distribution_is(
        resample_pairs(sample, config, ratio_of_means), _unblocked_ratios(sample, config)
    )

    hwang_blocked = method_result(sample, HWANG, spec, config)
    assert hwang_blocked.confidence_set == hwang_default.confidence_set
    assert hwang_blocked.diagnostics == hwang_default.diagnostics
    assert hwang_blocked.estimate == hwang_default.estimate
    assert dict(evaluate_methods(sample, RATIO_BOOT, spec, config)) == ratio_default


@pytest.mark.parametrize(
    ("n", "replications", "block_elements"),
    [
        # 142 blocks of 7 rows, then a ragged block of 6
        pytest.param(31, 1000, 7 * 31, id="31-ragged"),
        # the default block at n = 20 000: 66 blocks of 3 rows, then one of 2
        pytest.param(20_000, 200, None, id="n20000"),
    ],
)
def test_pivot_alone_gives_the_pivots_of_the_pass_with_the_ratios(
    monkeypatch, n, replications, block_elements
):
    sample = _sample(seed=13, n=n)
    config = BootstrapConfig(replications=replications, seed=8)
    rho_hat = ratio_of_means(sample)
    if block_elements is not None:
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMENTS", block_elements)
    rows = min(config.replications, bootstrap._block_rows(n))
    args = (sample.xs, sample.ys, config.seed, config.replications)
    # The pivot alone is given one buffer: it gathers only d = ys - rho_hat xs.
    _, alone = _resample(*args, False, rho_hat, np.empty((1, rows, n)))
    _, with_ratios = _resample(*args, True, rho_hat, np.empty((2, rows, n)))
    assert np.array_equal(alone, _unblocked_t0(sample, config, rho_hat), equal_nan=True)
    assert np.array_equal(alone, with_ratios, equal_nan=True)


def test_bootstrap_working_set_stays_within_a_few_mib():
    # At n = 20 000 a block of 1 << 16 index elements is 3 resamples: its
    # indices and two gathers take about 1.4 MiB (with 1 << 18, 6 MiB).
    sample = _sample(seed=5, n=20_000)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=2000, seed=1)
    tracemalloc.start()
    try:
        dict(evaluate_methods(sample, (HWANG,) + RATIO_BOOT, spec, config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_jackknife_peak_stays_below_the_resampling_peak(monkeypatch):
    # The gather buffers are held through each row's jackknife, so the
    # jackknife's n-length temporaries must not stack higher than a block's
    # indices do while resampling. Each peak is taken over its helper's call.
    sample = _sample(seed=5, n=20_000)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=2000, seed=1)
    peaks = {}

    def peaked(name):
        helper = getattr(bootstrap, name)

        def measured(*args):
            tracemalloc.reset_peak()
            try:
                return helper(*args)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(bootstrap, name, measured)

    peaked("_resample")
    peaked("_jackknife_t0")
    tracemalloc.start()
    try:
        dict(evaluate_methods(sample, (HWANG,) + RATIO_BOOT, spec, config))
    finally:
        tracemalloc.stop()
    assert peaks["_jackknife_t0"] <= peaks["_resample"], peaks


@pytest.mark.parametrize("replications", [2000, 6000])
def test_bootstrap_peak_memory_does_not_grow_with_replications(replications):
    # At n=5000 one (B, n) float matrix alone is 76 MiB at B=2000.
    sample = _sample(seed=5, n=5000)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=replications, seed=1)
    for methods in ((HWANG,), RATIO_BOOT):
        tracemalloc.start()
        try:
            dict(evaluate_methods(sample, methods, spec, config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, (methods, peak)
