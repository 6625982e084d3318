"""The special functions in ratio_ci._special against 50-digit mpmath, and
the guard that importing the package and its CLI loads no SciPy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from ratio_ci import ConfidenceSpec, _special

SRC = Path(__file__).resolve().parents[1] / "src"

# Probabilities in [1e-10, 1 - 1e-10]: log-uniform tails on both sides, the
# bulk, and points within 1e-16 to 1e-2 of 1/2.
tails = st.floats(-10.0, math.log10(0.5)).map(lambda e: 10.0**e)
probabilities = st.one_of(
    tails,
    tails.map(lambda p: 1.0 - p),
    st.floats(1e-10, 1.0 - 1e-10),
    st.tuples(st.floats(-16.0, -2.0), st.sampled_from((-1.0, 1.0))).map(
        lambda es: 0.5 + es[1] * 10.0 ** es[0]
    ),
).filter(lambda p: 1e-10 <= p <= 1.0 - 1e-10)


def ulps(value: float, exact) -> float:
    ref = float(exact)
    return float(abs(mpmath.mpf(value) - exact) / mpmath.mpf(math.ulp(ref)))


def ndtri_mp(p: float):
    with mpmath.workdps(50):
        return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


def t_quantile_mp(p: float, df: float, start: float):
    """Newton on P(T > t) = min(p, 1 - p) at 50 digits, from `start`.

    P(T > t) = (1 - I_y(1/2, df/2))/2 for y = t^2/(df + t^2); for tails
    down to 1e-10 the subtraction leaves 40 digits.
    """
    with mpmath.workdps(50):
        nu, half = mpmath.mpf(df), mpmath.mpf(1) / 2
        target = min(mpmath.mpf(p), 1 - mpmath.mpf(p))
        norm = 1 / (mpmath.sqrt(nu) * mpmath.beta(nu / 2, half))
        t = mpmath.mpf(abs(start))
        for _ in range(50):
            y = t * t / (nu + t * t)
            sf = (1 - mpmath.betainc(half, nu / 2, 0, y, regularized=True)) / 2
            pdf = norm * (1 + t * t / nu) ** (-(nu + 1) / 2)
            step = (sf - target) / pdf
            t += step
            if abs(step) < mpmath.mpf(10) ** -40 * t:
                break
        return t if p > 0.5 else -t


def fdtrc_mp(dfn: int, dfd: int, f: float):
    with mpmath.workdps(50):
        a, b = mpmath.mpf(dfd) / 2, mpmath.mpf(dfn) / 2
        x = dfd / (dfd + dfn * mpmath.mpf(f))
        if x < a / (a + b):
            return mpmath.betainc(a, b, 0, x, regularized=True)
        return 1 - mpmath.betainc(b, a, 0, 1 - x, regularized=True)


# ------------------------------------------------------------------ normal


@settings(max_examples=150)
@given(probabilities)
def test_ndtri_within_4_ulp(p):
    assert ulps(_special.ndtri(p), ndtri_mp(p)) <= 4.0


@settings(max_examples=150)
@given(st.floats(-20.0, 20.0))
def test_ndtr_within_1e_13_relative(x):
    with mpmath.workdps(50):
        exact = mpmath.ncdf(mpmath.mpf(x))
        assert abs(_special.ndtr(x) - exact) <= 1e-13 * exact


def test_normal_edges():
    assert _special.ndtri(0.5) == 0.0
    assert _special.ndtri(0.0) == -math.inf and _special.ndtri(1.0) == math.inf
    assert math.isnan(_special.ndtri(math.nan)) and math.isnan(_special.ndtri(1.5))
    assert _special.ndtr(-37.0) > 0.0 and _special.ndtr(-50.0) == 0.0
    assert _special.ndtr(50.0) == 1.0 and math.isnan(_special.ndtr(math.nan))


# --------------------------------------------------------------- Student t

# df/2 + 1/2 is exact at 1.5, 3.3 and 20.1 and rounds at 1.01, 1.05 and 7.7.
non_integer_df = st.sampled_from((1.01, 1.05, 1.5, 3.3, 7.7, 20.1))


@settings(max_examples=120)
@given(
    probabilities,
    st.one_of(
        st.integers(1, 40),
        st.integers(1, 10**6),
        st.floats(0.0, 6.0).map(lambda e: int(10.0**e)),
        non_integer_df,
    ),
)
def test_t_quantile_within_4_ulp(p, df):
    t = _special.stdtrit(df, p)
    assert ulps(t, t_quantile_mp(p, df, t)) <= 4.0


@settings(max_examples=40)
@given(probabilities)
def test_t_quantile_at_infinite_df_is_ndtri(p):
    assert _special.stdtrit(math.inf, p) == _special.ndtri(p)
    assert ulps(_special.stdtrit(1e300, p), ndtri_mp(p)) <= 4.0


@pytest.mark.parametrize("df", [19, 499, 19_999, 499_999])
def test_t_quantile_at_the_cli_level(df):
    # 0.975 is the upper quantile of the default 95% level; 19 999 and
    # 499 999 are the df of the ci-boot and ci-large benchmark inputs.
    t = _special.stdtrit(df, 0.975)
    assert ulps(t, t_quantile_mp(0.975, df, t)) <= 1.0


@pytest.mark.parametrize("df", [1, 2, 5, 19, 30, 1000])
def test_t_quantile_lower_tail_is_not_rounded_through_one_minus_p(df):
    # 1 - 1e-10 rounds, so a lower tail taken as -t(1 - p) is off by up to
    # 1e8 ulp; the tail itself is exact in p.
    for p in (1e-10, 1e-6, 0.01):
        t = _special.stdtrit(df, p)
        assert ulps(t, t_quantile_mp(p, df, t)) <= 4.0


def t_tail_mp(df: float, t: float):
    """P(T > |t|) at 50 digits."""
    with mpmath.workdps(50):
        nu, half = mpmath.mpf(df), mpmath.mpf(1) / 2
        return mpmath.betainc(nu / 2, half, 0, nu / (nu + mpmath.mpf(t) ** 2), regularized=True) / 2


def t_quantile_tail_mp(q: float, df: float, start: float):
    """The t with P(T > t) = q at 50 digits, by Newton on `t_tail_mp`, which
    keeps its digits however small q is."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(df)
        norm = 1 / (mpmath.sqrt(nu) * mpmath.beta(nu / 2, mpmath.mpf(1) / 2))
        t = mpmath.mpf(abs(start))
        for _ in range(50):
            step = (t_tail_mp(df, t) - q) / (norm * (1 + t * t / nu) ** (-(nu + 1) / 2))
            t += step
            if abs(step) < mpmath.mpf(10) ** -40 * t:
                break
        return t


@settings(max_examples=80)
@given(
    st.floats(-100.0, -10.0).map(lambda e: 10.0**e),
    st.one_of(
        st.integers(1, 40), st.floats(0.0, 6.0).map(lambda e: int(10.0**e)), non_integer_df
    ),
)
def test_t_quantile_small_tails_within_4_ulp(q, df):
    # Tails from 1e-100, the least that t_quantile takes, to 1e-10.
    t = _special.stdtrit(df, q)
    assert ulps(-t, t_quantile_tail_mp(q, df, t)) <= 4.0


@pytest.mark.parametrize("level", [0.999, 1.0 - 2.0**-53])
@pytest.mark.parametrize("df", [4, 19, 499])
def test_two_sided_quantile_is_read_from_the_exact_tail(level, df):
    # 0.5*(1 + level) rounds at these levels, to 1 at 1 - 2^-53; the tail
    # 0.5*(1 - level) is exact.
    # At most one double from the rounded exact quantile (1.09 ulp from the
    # exact one at df 499, level 1 - 2^-53).
    t = ConfidenceSpec.two_sided(level, df).quantile
    with mpmath.workdps(50):
        exact = float(t_quantile_tail_mp((1 - mpmath.mpf(level)) / 2, df, t))
    assert abs(t - exact) <= math.ulp(exact)


def test_t_quantile_closed_forms():
    assert _special.stdtrit(1, 0.75) == pytest.approx(1.0, rel=1e-15)
    # 0.95 / sqrt(0.04875) for the double nearest 0.975.
    assert _special.stdtrit(2, 0.975) == pytest.approx(4.302652729749462, rel=1e-15)
    assert _special.stdtrit(1, 0.5 + 2.0**-53) == pytest.approx(math.pi * 2.0**-53, rel=1e-15)


# ---------------------------------------------------------------------- F


@settings(max_examples=100)
@given(st.integers(1, 100), st.integers(1, 10**4), st.floats(-3.0, 3.0))
def test_fdtrc_within_1e_13_relative(dfn, dfd, log_f):
    f = 10.0**log_f
    exact = fdtrc_mp(dfn, dfd, f)
    assume(exact >= 1e-100)
    assert abs(_special.fdtrc(dfn, dfd, f) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("dfn,dfd", [(1, 5_000), (4, 6_387), (50, 10_000), (100, 3)])
def test_fdtrc_at_the_mean(dfn, dfd):
    # x at the continued fraction's switch (a + 1)/(a + b + 2), where a
    # fraction in x rather than in y would lose digits to cancellation.
    a, b = dfd / 2, dfn / 2
    x = (a + 1.0) / (a + b + 2.0)
    for f in (dfd * (1 - x) / (dfn * x) * s for s in (0.999, 1.0, 1.001)):
        exact = fdtrc_mp(dfn, dfd, f)
        assert abs(_special.fdtrc(dfn, dfd, f) - exact) <= 1e-13 * exact


def test_fdtrc_edges():
    assert _special.fdtrc(3, 5, 0.0) == 1.0
    assert _special.fdtrc(3, 5, math.inf) == 0.0
    assert math.isnan(_special.fdtrc(3, 5, math.nan))


# ------------------------------------------------------------------- guard


def test_importing_the_package_and_cli_loads_no_scipy():
    code = (
        "import sys, ratio_ci, ratio_ci.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"


def test_importing_the_package_and_cli_loads_no_process_pool():
    # run_grid imports its process pool when it first starts workers.
    code = (
        "import sys, ratio_ci, ratio_ci.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"
