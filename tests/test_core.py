import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ratio_ci import (
    ConfidenceSpec,
    DomainError,
    NonFiniteInput,
    PairedSample,
    SimCell,
    TooFewObservations,
    summarize,
    t_quantile,
)
from ratio_ci.montecarlo import _draw_run

from oracle_utils import summarize_oracle, t_cdf_oracle, t_quantile_oracle

SRC = Path(__file__).resolve().parents[1] / "src"

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def pairs_strategy(min_n=2, max_n=40):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(finite, min_size=n, max_size=n),
            st.lists(finite, min_size=n, max_size=n),
        )
    )


# ------------------------------------------------------------ PairedSample


def test_paired_sample_basic():
    s = PairedSample([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert s.n == 3
    assert s.xs.dtype == float


def test_paired_sample_rejects_length_mismatch():
    with pytest.raises(NonFiniteInput):
        PairedSample([1.0, 2.0], [1.0])


def test_paired_sample_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        PairedSample([1.0, math.nan], [1.0, 2.0])
    with pytest.raises(NonFiniteInput):
        PairedSample([1.0, 2.0], [math.inf, 2.0])


def test_paired_sample_rejects_empty_and_2d():
    with pytest.raises(TooFewObservations):
        PairedSample([], [])
    with pytest.raises(NonFiniteInput):
        PairedSample([[1.0, 2.0]], [[3.0, 4.0]])


# --------------------------------------------------------------- summarize


# A draw where the covariance cancels: summarize's cov_mean_xy is 5.6e-13
# (relative) from the exact value, and an fsum of rounded deviations 2.3e-12.
@example(([0.0, 0.0, 184411.302734375, 185051.0], [0.0, 184727.30078125, 185360.0, 0.0]))
@given(pairs_strategy())
def test_summarize_matches_reference(data):
    xs, ys = data
    got = summarize(PairedSample(xs, ys))
    ref = summarize_oracle(xs, ys)
    n = ref.n
    assert got.n == n and got.df == n - 1
    scale = 1.0 / n
    for a, b in (
        (got.mean_x, ref.mean_x),
        (got.mean_y, ref.mean_y),
        (got.var_mean_x, ref.var_x * scale),
        (got.var_mean_y, ref.var_y * scale),
        (got.cov_mean_xy, ref.cov_xy * scale),
    ):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@given(pairs_strategy(), st.floats(-100, 100, allow_nan=False))
def test_summarize_location_covariant(data, c):
    xs, ys = data
    base = summarize(PairedSample(xs, ys))
    shifted = summarize(PairedSample([x + c for x in xs], ys))
    assert shifted.mean_x == pytest.approx(base.mean_x + c, rel=1e-9, abs=1e-9)
    assert shifted.mean_y == base.mean_y
    # Deviations are unchanged, so all three second moments must match.
    span = max(abs(v) for v in xs + [c, 1.0])
    assert shifted.var_mean_x == pytest.approx(base.var_mean_x, rel=1e-6, abs=1e-10 * span**2)
    assert shifted.var_mean_y == base.var_mean_y
    assert shifted.cov_mean_xy == pytest.approx(base.cov_mean_xy, rel=1e-6, abs=1e-10 * span**2)


@example(([998327.9999999999, -998356.0], [0.0, 0.0]), 0.01171875)
@example(([0.0, 0.0, 5.366445359018727e-27], [5.366445359018727e-27] * 3), 0.01171875)
@given(pairs_strategy(), st.floats(0.01, 100, allow_nan=False))
def test_summarize_scale_covariant(data, c):
    # The referee is the exact summary of the scaled doubles themselves, not
    # c times the summary of xs: each x * c is rounded before the sum, so
    # where the sum cancels the scaled inputs' exact mean is not c times
    # theirs. On the example, summarize returns that exact mean, which is
    # 1.4e-12 (relative) from c * mean(xs).
    xs, ys = data
    scaled_xs = [x * c for x in xs]
    scaled = summarize(PairedSample(scaled_xs, ys))
    ref = summarize_oracle(scaled_xs, ys)
    assert scaled.mean_x == pytest.approx(ref.mean_x, rel=1e-12, abs=1e-300)
    assert scaled.var_mean_x == pytest.approx(ref.var_x / ref.n, rel=1e-9, abs=1e-300)
    assert scaled.cov_mean_xy == pytest.approx(ref.cov_xy / ref.n, rel=1e-9, abs=1e-300)


def test_summarize_constant_column_has_zero_moments():
    # The mean of three 0.1s rounds an ulp above 0.1; the deviations must
    # still be exactly zero.
    s = summarize(PairedSample([1.0, 2.0, 3.5], [0.1, 0.1, 0.1]))
    assert s.var_mean_y == 0.0 and s.cov_mean_xy == 0.0


def test_summarize_needs_two_pairs():
    with pytest.raises(TooFewObservations):
        summarize(PairedSample([1.0], [2.0]))


def _long_summary(threads):
    """summarize of 20 000 pairs in a fresh process that imports ratio_ci
    before numpy, with OPENBLAS_NUM_THREADS unset (None) or set."""
    code = (
        "import os, ratio_ci, numpy as np; "
        "rng = np.random.default_rng(3); "
        "s = ratio_ci.summarize(ratio_ci.PairedSample("
        "1.0 + rng.standard_normal(20_000), 2.0 + rng.standard_normal(20_000))); "
        "print(os.environ['OPENBLAS_NUM_THREADS'], repr(s))"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env=env
    )
    return out.stdout.split(" ", 1)


def test_long_sample_summary_uses_one_blas_thread_by_default():
    # Past 10 000 elements OpenBLAS splits a dot product across its threads.
    default_threads, default = _long_summary(None)
    assert default_threads == "1"
    assert default == _long_summary("1")[1]
    assert _long_summary("2")[0] == "2"


def test_summary_stats_reject_impossible_moments():
    from ratio_ci import SummaryStats

    with pytest.raises(DomainError):
        SummaryStats(3, 1.0, 1.0, -0.1, 1.0, 0.0, 2)
    with pytest.raises(DomainError):
        SummaryStats(3, 1.0, 1.0, 1.0, 1.0, 1.5, 2)  # breaks Cauchy-Schwarz
    with pytest.raises(DomainError):
        SummaryStats(3, 1.0, 1.0, 1.0, 1.0, 0.0, 0)


# -------------------------------------------------------------- t_quantile


@given(st.floats(0.001, 0.999), st.integers(1, 200))
def test_t_quantile_matches_reference(p, df):
    assert t_quantile(p, df) == pytest.approx(t_quantile_oracle(p, df), rel=1e-9, abs=1e-9)


def test_t_quantile_anchor_values():
    # Round-tripped through the independent CDF rather than frozen decimals.
    for p, df in ((0.975, 2), (0.975, 19), (0.9, 4), (0.6, 1)):
        q = t_quantile(p, df)
        assert t_cdf_oracle(q, df) == pytest.approx(p, abs=1e-12)
    # 0.95 / sqrt(0.04875), within the module's 4 ulp.
    exact = 4.30265272974946385
    assert abs(t_quantile(0.975, 2) - exact) <= 4 * math.ulp(exact)
    assert t_quantile(0.975, math.inf) == pytest.approx(1.959963984540054, abs=1e-12)


@given(st.integers(1, 100))
def test_t_quantile_symmetry_and_monotonicity(df):
    ps = [0.55, 0.7, 0.9, 0.99]
    qs = [t_quantile(p, df) for p in ps]
    assert qs == sorted(qs) and len(set(qs)) == len(qs)
    for p in ps:
        assert t_quantile(1.0 - p, df) == -t_quantile(p, df)
    assert t_quantile(0.5, df) == 0.0


def test_t_quantile_decreasing_in_df():
    qs = [t_quantile(0.975, df) for df in (1, 2, 5, 30, math.inf)]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_t_quantile_domain():
    # 1e-100 is the least tail t_quantile takes; no level needs less.
    assert t_quantile(1e-100, 3) < 0.0
    for bad_p in (0.0, 1.0, -0.5, 9e-101):
        with pytest.raises(DomainError, match=r"\[1e-100, 1\)"):
            t_quantile(bad_p, 5)
    with pytest.raises(DomainError):
        t_quantile(0.9, 0.5)


def test_t_quantile_rejects_nan():
    with pytest.raises(DomainError, match="df must be"):
        t_quantile(0.9, math.nan)
    with pytest.raises(DomainError, match="p must"):
        t_quantile(math.nan, 5)


# ---------------------------------------------------------- ConfidenceSpec


def test_confidence_spec_two_sided():
    spec = ConfidenceSpec.two_sided(0.95, df=2)
    assert spec.level == 0.95 and spec.df == 2.0
    assert spec.quantile == t_quantile(0.975, 2)
    # Same level at another df: used when trimming changes the df.
    assert spec.quantile_for_df(9) == t_quantile(0.975, 9)
    assert spec.quantile_for_df(2) == spec.quantile


def test_confidence_spec_validation():
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(DomainError, match="level must"):
            ConfidenceSpec.two_sided(bad, df=5)
    with pytest.raises(DomainError):
        ConfidenceSpec(level=0.95, df=5.0, quantile=-1.0)


@given(
    st.sampled_from([0.5, 0.8, 0.95, 0.99]),
    st.one_of(st.integers(1, 40), st.floats(0.0, 6.0).map(lambda e: int(10.0**e))),
)
def test_two_sided_quantile_unchanged_where_one_plus_level_is_exact(level, df):
    # The quantile is read from the tail 0.5*(1 - level). t_quantile is odd
    # in p - 1/2 exactly, so where 1 + level is exact it has the bits of
    # t_quantile(0.5*(1 + level)).
    assert (1.0 + level) - 1.0 == level
    assert ConfidenceSpec.two_sided(level, df).quantile == t_quantile(0.5 * (1.0 + level), df)
    assert ConfidenceSpec.two_sided(level, 1).quantile_for_df(df) == t_quantile(
        0.5 * (1.0 + level), df
    )


def test_two_sided_names_a_level_too_small_for_a_quantile():
    # 0.5*(1 - 1e-300) rounds to 1/2, whose quantile is 0.
    with pytest.raises(DomainError, match=r"level 1e-300 is too small"):
        ConfidenceSpec.two_sided(1e-300, df=5)
    assert ConfidenceSpec.two_sided(1e-16, df=5).quantile > 0.0


# ------------------------------------------------------------ normal draws


def _one_run(cell: SimCell, seed: int) -> PairedSample:
    xs, ys, _, _ = _draw_run(cell, seed, 0, 1, False)
    return PairedSample(xs[0], ys[0])


def test_sampling_is_seed_deterministic():
    cell = SimCell(cv_x=0.5, cv_y=0.125, n=50, corr=0.4)
    a = _one_run(cell, seed=123)
    b = _one_run(cell, seed=123)
    c = _one_run(cell, seed=124)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.xs, c.xs)


def test_sampling_moments():
    # Unit means, so sd_x = cv_x = 1 and sd_y = cv_y = 0.5.
    cell = SimCell(cv_x=1.0, cv_y=0.5, n=200_000, corr=0.6)
    s = _one_run(cell, seed=7)
    assert s.xs.mean() == pytest.approx(1.0, abs=0.02)
    assert s.ys.mean() == pytest.approx(1.0, abs=0.01)
    assert s.xs.std(ddof=1) == pytest.approx(1.0, abs=0.02)
    assert s.ys.std(ddof=1) == pytest.approx(0.5, abs=0.01)
    r = np.corrcoef(s.xs, s.ys)[0, 1]
    assert r == pytest.approx(0.6, abs=0.02)
