import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratio_ci import (
    AllResamplesDegenerate,
    BootstrapConfig,
    BootstrapMethod,
    ConfidenceSpec,
    DegenerateJackknife,
    DomainError,
    EmpiricalDistribution,
    Method,
    PairedSample,
    SetCase,
    TooFewObservations,
    TooFewReplicates,
    ZeroDenominator,
    bca_set,
    fieller_set,
    hwang_set,
    invert_t0_band,
    percentile_ci,
    percentile_set,
    ratio_bootstrap_results,
    ratio_of_means,
    summarize,
    t0_statistic,
)
from ratio_ci import bootstrap
from ratio_ci.bootstrap import (
    _bca_from_distribution,
    _collect,
    _jackknife_t0,
    _ratio_jackknife,
    _resample,
)

from oracle_utils import bca_ci, bca_oracle, quantile_linear_oracle, resample_pairs


def _sample(seed=3, n=30, cv_x=0.2):
    rng = np.random.default_rng(seed)
    xs = rng.normal(2.0, 2.0 * cv_x, n)
    ys = rng.normal(3.0, 0.6, n)
    return PairedSample(xs, ys)


def _dist(values):
    vals = np.sort(np.asarray(values, dtype=float))
    return EmpiricalDistribution(values=vals, count=len(vals))


# ----------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(DomainError):
        BootstrapConfig(replications=99)
    with pytest.warns(RuntimeWarning, match="1000 replications"):
        BootstrapConfig(replications=500, method=BootstrapMethod.BCA)
    # Percentile at the same count must stay silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        BootstrapConfig(replications=500, method=BootstrapMethod.PERCENTILE)


def test_distribution_validation():
    with pytest.raises(DomainError):
        EmpiricalDistribution(values=np.array([2.0, 1.0]), count=2)
    with pytest.raises(DomainError):
        EmpiricalDistribution(values=np.array([1.0, 2.0]), count=3)


# -------------------------------------------------------------- resampling


def test_resampling_is_seed_deterministic():
    sample = _sample()
    config = BootstrapConfig(replications=300, seed=11)
    a = resample_pairs(sample, config, ratio_of_means)
    b = resample_pairs(sample, config, ratio_of_means)
    assert np.array_equal(a.values, b.values)
    c = resample_pairs(sample, BootstrapConfig(replications=300, seed=12), ratio_of_means)
    assert not np.array_equal(a.values, c.values)


def test_resampling_drops_non_finite_and_counts():
    sample = _sample(n=6)

    def statistic(s: PairedSample) -> float:
        # Degenerate whenever the resample repeats pair 0 at least twice.
        if int((s.xs == sample.xs[0]).sum()) >= 2:
            return math.nan
        return float(s.ys.mean())

    config = BootstrapConfig(replications=400, seed=2)
    dist = resample_pairs(sample, config, statistic)
    assert dist.dropped > 0
    assert dist.count + dist.dropped == 400
    assert np.isfinite(dist.values).all()


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
    generic = resample_pairs(sample, config, ratio_of_means)
    ratios, _ = _resample(sample.xs, sample.ys, config.seed, config.replications, True, None)
    vectorized = _collect(ratios, config.replications)
    assert np.array_equal(generic.values, vectorized.values)
    assert generic.dropped == vectorized.dropped


# ------------------------------------------------------------- percentiles


def test_percentile_frozen_quantile_rule():
    # Interpolated order-statistic rule with plotting positions (k-1)/(B-1):
    # for values 1..1000 at level 0.95 the endpoints sit at ranks
    # 1 + 0.025*999 = 25.975 and 1 + 0.975*999 = 975.025.
    dist = _dist(np.arange(1.0, 1001.0))
    cset = percentile_ci(dist, 0.95)
    assert cset.lower == pytest.approx(25.975, abs=1e-9)
    assert cset.upper == pytest.approx(975.025, abs=1e-9)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32), min_size=100, max_size=400),
    st.floats(0.5, 0.99),
)
def test_percentile_containment(values, level):
    dist = _dist(values)
    cset = percentile_ci(dist, level)
    assert cset.case is SetCase.BOUNDED
    assert dist.values[0] <= cset.lower <= cset.upper <= dist.values[-1]


def test_percentile_on_constant_values():
    cset = percentile_ci(_dist([4.2] * 150), 0.95)
    assert (cset.lower, cset.upper) == (4.2, 4.2)


def test_percentile_guards():
    dist = _dist(np.arange(120.0))
    with pytest.raises(DomainError):
        percentile_ci(dist, 1.0)
    with pytest.raises(TooFewReplicates):
        percentile_ci(_dist(np.arange(99.0)), 0.95)


def test_bootstrap_sd_matches_plugin_formula():
    # For the linear statistic mean(y), the bootstrap SD estimates the
    # plug-in sd of the mean, i.e. sigma_hat * sqrt((n-1)/n) relative to
    # the usual n-1 estimate. B=4000 pins the Monte Carlo noise well under
    # the 10% band asserted here.
    sample = _sample(seed=21, n=40)
    config = BootstrapConfig(replications=4000, seed=5)
    dist = resample_pairs(sample, config, lambda s: float(s.ys.mean()))
    boot_sd = float(dist.values.std(ddof=1))
    stats = summarize(sample)
    target = stats.sd_mean_y * math.sqrt((sample.n - 1) / sample.n)
    assert boot_sd == pytest.approx(target, rel=0.10)


# --------------------------------------------------------------------- BCa


def test_bca_matches_textbook_oracle():
    # Same empirical distribution, z0/a recomputed by an independent
    # implementation (erf-based normal CDF, bisection quantiles, hand-rolled
    # linear interpolation); agreement is limited only by those primitives.
    sample = _sample(seed=13, n=25)
    config = BootstrapConfig(replications=2000, seed=31, method=BootstrapMethod.BCA)
    statistic = ratio_of_means
    cset = bca_ci(sample, statistic, config, 0.95)

    dist = resample_pairs(sample, config, statistic)
    theta_hat = statistic(sample)
    jack = [
        statistic(PairedSample(np.delete(sample.xs, i), np.delete(sample.ys, i)))
        for i in range(sample.n)
    ]
    lo, hi = bca_oracle(dist.values, theta_hat, jack, 0.95)
    assert cset.lower == pytest.approx(lo, rel=1e-6)
    assert cset.upper == pytest.approx(hi, rel=1e-6)


def test_bca_reduces_to_percentile_when_unbiased_and_symmetric():
    values = np.linspace(-1.0, 1.0, 1001)  # median exactly 0
    dist = _dist(values)
    jack = np.array([-1.0, -0.5, 0.5, 1.0])  # zero skew -> acceleration 0
    cset, fallback = _bca_from_distribution(dist, 0.0 + 1e-15, jack, 0.9)
    assert fallback is None
    plain = percentile_ci(dist, 0.9)
    # z0 = Phi^-1(#below/B); 500/1001 is not exactly half, so allow the
    # one-rank wobble that the tie convention introduces.
    assert cset.lower == pytest.approx(plain.lower, abs=2e-3)
    assert cset.upper == pytest.approx(plain.upper, abs=2e-3)


def test_bca_fallbacks_warn_and_match_percentile():
    dist = _dist(np.arange(1.0, 201.0))
    plain = percentile_ci(dist, 0.95)

    # Estimate outside the resample range: z0 undefined.
    with pytest.warns(RuntimeWarning, match="outside the bootstrap distribution"):
        cset, fallback = _bca_from_distribution(dist, 0.5, np.array([1.0, 2.0, 3.0]), 0.95)
    assert (cset.lower, cset.upper) == (plain.lower, plain.upper)
    assert fallback == "estimate outside the bootstrap distribution"

    # Constant jackknife: acceleration undefined.
    with pytest.warns(DegenerateJackknife):
        cset, fallback = _bca_from_distribution(dist, 100.0, np.ones(5), 0.95)
    assert (cset.lower, cset.upper) == (plain.lower, plain.upper)
    assert fallback == "all jackknife values coincide"

    # Non-finite jackknife values.
    with pytest.warns(RuntimeWarning, match="non-finite jackknife"):
        cset, fallback = _bca_from_distribution(dist, 100.0, np.array([1.0, math.nan]), 0.95)
    assert (cset.lower, cset.upper) == (plain.lower, plain.upper)
    assert fallback == "non-finite jackknife values"


def test_bca_needs_three_pairs():
    sample = PairedSample([1.0, 2.0], [3.0, 4.0])
    config = BootstrapConfig(replications=2000, seed=0)
    with pytest.raises(TooFewObservations):
        bca_ci(sample, ratio_of_means, config, 0.95)


# ------------------------------------------------------------ ratio fronts


def test_ratio_results_share_one_distribution():
    sample = _sample(seed=4)
    config = BootstrapConfig(replications=1500, seed=8, method=BootstrapMethod.BCA)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    both = ratio_bootstrap_results(sample, config, spec)
    alone_p = percentile_set(sample, config, spec)
    alone_b = bca_set(sample, config, spec)
    for m, alone in (
        (Method.BOOTSTRAP_PERCENTILE, alone_p),
        (Method.BOOTSTRAP_BCA, alone_b),
    ):
        assert both[m].confidence_set.lower == alone.confidence_set.lower
        assert both[m].confidence_set.upper == alone.confidence_set.upper
        assert both[m].confidence_set.case is SetCase.BOUNDED
        assert both[m].estimate == ratio_of_means(sample)


def test_ratio_results_reject_foreign_methods():
    sample = _sample()
    config = BootstrapConfig(replications=200, seed=0)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    with pytest.raises(DomainError):
        ratio_bootstrap_results(sample, config, spec, (Method.FIELLER,))


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
    forced = invert_t0_band(stats, -spec.quantile, spec.quantile)
    assert (forced.case, forced.lower, forced.upper) == (
        exact.case,
        exact.lower,
        exact.upper,
    )


def test_hwang_close_to_exact_on_well_behaved_data():
    sample = _sample(seed=23, n=200, cv_x=0.1)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=2000, seed=3, method=BootstrapMethod.BCA)
    hw = hwang_set(sample, config, spec)
    exact = fieller_set(summarize(sample), spec).confidence_set
    assert hw.confidence_set.case is SetCase.BOUNDED
    width = exact.upper - exact.lower
    assert hw.confidence_set.lower == pytest.approx(exact.lower, abs=0.2 * width)
    assert hw.confidence_set.upper == pytest.approx(exact.upper, abs=0.2 * width)
    diag = hw.diagnostics
    assert diag.t_lower < 0.0 < diag.t_upper
    assert diag.dropped_replicates == 0
    assert diag.bias_correction is not None and diag.acceleration is not None


def test_hwang_percentile_mode_skips_adjustment():
    sample = _sample(seed=23, n=50)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=2000, seed=3)
    hw = hwang_set(sample, config, spec)
    assert hw.diagnostics.bias_correction is None
    assert hw.diagnostics.acceleration is None
    # The inverted band is exactly the empirical 2.5/97.5 percentiles.
    t0s = _resample_t0_reference(sample, config)
    lo, hi = np.quantile(np.sort(t0s), [0.025, 0.975])
    assert hw.diagnostics.t_lower == pytest.approx(float(lo), rel=1e-12)
    assert hw.diagnostics.t_upper == pytest.approx(float(hi), rel=1e-12)


def _resample_t0_reference(sample: PairedSample, config: BootstrapConfig) -> np.ndarray:
    """Literal per-resample recomputation through the public pivot."""
    rng = np.random.default_rng(config.seed)
    idx = rng.integers(0, sample.n, size=(config.replications, sample.n))
    rho_hat = ratio_of_means(sample)
    out = []
    for row in idx:
        stats = summarize(PairedSample(sample.xs[row], sample.ys[row]))
        try:
            out.append(t0_statistic(stats, rho_hat))
        except Exception:
            pass
    return np.asarray(out)


def test_hwang_resampled_pivots_match_literal_loop():
    sample = _sample(seed=29, n=12)
    config = BootstrapConfig(replications=300, seed=41)
    hw = hwang_set(sample, config, ConfidenceSpec.two_sided(0.95, df=11))
    ref = np.sort(_resample_t0_reference(sample, config))
    lo, hi = np.quantile(ref, [0.025, 0.975])
    assert hw.diagnostics.t_lower == pytest.approx(float(lo), rel=1e-9)
    assert hw.diagnostics.t_upper == pytest.approx(float(hi), rel=1e-9)


def test_hwang_jackknife_pivots_match_literal_loop():
    sample = _sample(seed=31, n=14)
    rho_hat = ratio_of_means(sample)
    fast = _jackknife_t0(sample.xs, sample.ys, rho_hat)
    slow = []
    for i in range(sample.n):
        loo = PairedSample(np.delete(sample.xs, i), np.delete(sample.ys, i))
        slow.append(t0_statistic(summarize(loo), rho_hat))
    assert fast == pytest.approx(slow, rel=1e-9)


def test_hwang_guards():
    spec = ConfidenceSpec.two_sided(0.95, df=2)
    config = BootstrapConfig(replications=200, seed=0)
    with pytest.raises(TooFewObservations):
        hwang_set(PairedSample([1.0, 2.0], [1.0, 1.0]), config, spec)
    with pytest.raises(ZeroDenominator):
        hwang_set(PairedSample([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]), config, spec)


def _hwang_fallback(sample):
    """hwang_set in BCa mode, the categories of the warnings it raised, and
    hwang_set in percentile mode on the same resamples."""
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=1000, seed=5, method=BootstrapMethod.BCA)
    plain = hwang_set(sample, replace(config, method=BootstrapMethod.PERCENTILE), spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = hwang_set(sample, config, spec)
    assert all("falling back to percentiles" in str(w.message) for w in caught)
    return result, [w.category for w in caught], plain


def _assert_plain_percentile_band(result, plain):
    assert result.diagnostics.bias_correction is None
    assert result.diagnostics.acceleration is None
    assert result.diagnostics.t_lower == plain.diagnostics.t_lower
    assert result.diagnostics.t_upper == plain.diagnostics.t_upper
    assert result.confidence_set == plain.confidence_set


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
    config = BootstrapConfig(replications=1200, seed=99, method=BootstrapMethod.BCA)
    a = hwang_set(sample, config, spec)
    b = hwang_set(sample, config, spec)
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
    config = BootstrapConfig(replications=2000, seed=1, method=BootstrapMethod.BCA)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # extreme resamples may trip fallbacks
        results = ratio_bootstrap_results(sample, config, spec)
    for result in results.values():
        assert result.confidence_set.case is SetCase.BOUNDED
    hw = hwang_set(sample, config, spec)
    assert hw.confidence_set.case is not SetCase.BOUNDED


def test_quantile_rule_matches_hand_rolled_interpolation():
    rng = np.random.default_rng(51)
    values = np.sort(rng.normal(size=501))
    dist = EmpiricalDistribution(values=values, count=501)
    for q in (0.025, 0.3, 0.5, 0.91, 0.975):
        assert float(dist.quantile(q)) == pytest.approx(
            quantile_linear_oracle(list(values), q), rel=1e-12
        )


# ------------------------------------------------------ blocked resampling


def _unblocked_indices(config: BootstrapConfig, n: int) -> np.ndarray:
    return np.random.default_rng(config.seed).integers(0, n, (config.replications, n))


def _unblocked_t0(sample: PairedSample, config: BootstrapConfig, rho_hat: float):
    n = sample.n
    idx = _unblocked_indices(config, n)
    xs = sample.xs[idx]
    ys = sample.ys[idx]
    mx = xs.mean(axis=1)
    my = ys.mean(axis=1)
    dx = xs - mx[:, None]
    dy = ys - my[:, None]
    scale = 1.0 / (n * (n - 1))
    vx = np.einsum("ij,ij->i", dx, dx) * scale
    vy = np.einsum("ij,ij->i", dy, dy) * scale
    cxy = np.einsum("ij,ij->i", dx, dy) * scale
    q = vy - 2.0 * rho_hat * cxy + rho_hat * rho_hat * vx
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0.0, (my - rho_hat * mx) / np.sqrt(q), math.nan)


def _unblocked_ratios(sample: PairedSample, config: BootstrapConfig) -> np.ndarray:
    idx = _unblocked_indices(config, sample.n)
    mx = sample.xs[idx].mean(axis=1)
    my = sample.ys[idx].mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mx != 0.0, my / mx, math.nan)


def _assert_distribution_is(dist: EmpiricalDistribution, values: np.ndarray):
    finite = np.sort(values[np.isfinite(values)])
    assert np.array_equal(dist.values, finite)
    assert dist.dropped == len(values) - len(finite)


@pytest.mark.parametrize(
    ("block_elements", "blocks"),
    [
        (30, 1000),  # fewer elements than n: one resample per block
        (7 * 31, 143),  # 142 blocks of 7 rows, then a ragged block of 6
    ],
)
def test_block_size_changes_no_number(monkeypatch, block_elements, blocks):
    sample = _sample(seed=13, n=31)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=1000, seed=8, method=BootstrapMethod.BCA)
    rho_hat = ratio_of_means(sample)
    hwang_default = hwang_set(sample, config, spec)
    ratio_default = ratio_bootstrap_results(sample, config, spec)

    monkeypatch.setattr(bootstrap, "_BLOCK_ELEMENTS", block_elements)
    draws = []
    draw = bootstrap._resample_indices

    def counted_draw(rng, rows, n):
        draws.append(rows)
        return draw(rng, rows, n)

    monkeypatch.setattr(bootstrap, "_resample_indices", counted_draw)
    # One pass gives the ratio replicates and the pivots of the same resamples.
    ratios, t0s = _resample(
        sample.xs, sample.ys, config.seed, config.replications, True, rho_hat
    )
    assert len(draws) == blocks and sum(draws) == config.replications
    assert np.array_equal(t0s, _unblocked_t0(sample, config, rho_hat), equal_nan=True)
    assert np.array_equal(ratios, _unblocked_ratios(sample, config), equal_nan=True)
    _assert_distribution_is(
        resample_pairs(sample, config, ratio_of_means), _unblocked_ratios(sample, config)
    )

    hwang_blocked = hwang_set(sample, config, spec)
    assert hwang_blocked.confidence_set == hwang_default.confidence_set
    assert hwang_blocked.diagnostics == hwang_default.diagnostics
    assert hwang_blocked.estimate == hwang_default.estimate
    assert ratio_bootstrap_results(sample, config, spec) == ratio_default


@pytest.mark.parametrize("replications", [2000, 6000])
def test_bootstrap_peak_memory_does_not_grow_with_replications(replications):
    # At n=5000 one (B, n) float matrix alone is 76 MiB at B=2000.
    sample = _sample(seed=5, n=5000)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=replications, seed=1, method=BootstrapMethod.BCA)
    for run in (hwang_set, ratio_bootstrap_results):
        tracemalloc.start()
        try:
            run(sample, config, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, (run.__name__, peak)
