"""Scalar special functions on the standard library's `math`: the normal
CDF and quantile, the Student-t quantile and the upper tail of the F
distribution.

Every confidence limit in the package rests on one of these: Fieller's
quadratic and the Taylor, index and zero-variance limits on the t
quantile, BCa on the normal CDF and quantile, and the nested-model F test
on the F tail. All four are scalar and pure, so the package needs no
compiled special-function library and its output does not depend on one.

The t and F tails are regularized incomplete betas I_x(a, b), each the
prefactor x^a y^b / B(a, b) times a sum. For F the sum is DiDonato and
Morris's continued fraction BFRAC and the prefactor is written as Temme
does, in the deviation d = b x - a y from the mode and Stirling's error of
each gamma function, so that large a and b lose nothing to cancelling
log-gamma values. For t the prefactor is t times the density and the sum
is the power series of positive terms, or DiDonato and Morris's BGRAT for
the tail at large df; the t quantile carries the roundings of both
(Dekker's products, Knuth's sums) to reach a few ulp for tails down to
1e-100, the least that `core.t_quantile` takes.
"""

from __future__ import annotations

import math

__all__ = ["ndtr", "ndtri", "stdtrit", "fdtrc"]

_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI_LO = -2.49232720227773e-17
# 1/sqrt(2) = _SQRT1_2 + _SQRT1_2_LO to twice the double precision.
_SQRT1_2_LO = -4.833646656726457e-17
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _two_product_err(a: float, b: float, prod: float) -> float:
    """a*b - prod exactly, for prod = fl(a*b) (Dekker's product)."""
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum_err(a: float, b: float, total: float) -> float:
    """a + b - total exactly, for total = fl(a + b) (Knuth's sum)."""
    b_virtual = total - a
    return (a - (total - b_virtual)) + (b - b_virtual)


def _halved(x: float) -> tuple[float, float]:
    """x / sqrt 2 as a double w and the rest dw, to twice the precision."""
    w = x * _SQRT1_2
    return w, _two_product_err(x, _SQRT1_2, w) + x * _SQRT1_2_LO


def ndtr(x: float) -> float:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2).

    The rounding of -x / sqrt 2 is carried to first order: with w its
    double and dw the rest, erfc(w + dw) = erfc(w) - dw 2/sqrt(pi) e^(-w^2).
    Against 50-digit mpmath the result is within 1e-13 relative for
    x in [-20, 20] (measured: 5e-16).
    """
    if math.isnan(x):
        return math.nan
    if abs(x) > 40.0:  # 0 or 1; Dekker's split would overflow near 1e300
        return 0.5 * math.erfc(-x * _SQRT1_2)
    w, dw = _halved(-x)
    return 0.5 * math.erfc(w) - dw * _INV_SQRT_PI * math.exp(-w * w)


# Wichura's AS 241 (PPND16): rational approximations in three regions.
_A = (3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
      13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
      33430.575583588128105, 2509.0809287301226727)
_B = (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
      21213.794301586595867, 39307.89580009271061, 28729.085735721942674,
      5226.495278852545925)
_C = (1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
      3.64784832476320460504, 1.27045825245236838258, 0.24178072517745061177,
      0.0227238449892691845833, 7.7454501427834140764e-4)
_D = (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
      0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
      1.05075007164441684324e-9)
_E = (6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
      0.29656057182850489123, 0.026532189526576123093, 0.0012426609473880784386,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
      7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
      2.04426310338993978564e-15)


def _ratio(num: tuple, den: tuple, r: float) -> float:
    """num(r)/den(r) for coefficient tuples in ascending powers (Horner)."""
    p = q = 0.0
    for a, b in zip(reversed(num), reversed(den)):
        p = p * r + a
        q = q * r + b
    return p / q


def _npdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def ndtri(p: float) -> float:
    """Standard normal quantile by Wichura's AS 241 (1988), then one Newton
    step on a mass that is exact in p: erf(z/sqrt 2)/2 against p - 1/2 in
    the centre, the tail ndtr(-|z|) against min(p, 1 - p) beyond.

    Against 50-digit mpmath the result is within 4 ulp for p in
    [1e-10, 1 - 1e-10] (measured: 2.8). p = 0 and 1 give -inf and inf;
    p outside [0, 1] gives nan.
    """
    if not 0.0 <= p <= 1.0:
        return math.nan
    q = p - 0.5
    if abs(q) <= 0.425:
        z = q * _ratio(_A, _B, 0.180625 - q * q)
        w, dw = _halved(z)
        mass = 0.5 * math.erf(w) + dw * _INV_SQRT_PI * math.exp(-w * w)
        return z - (mass - q) / _npdf(z)
    r = min(p, 1.0 - p)
    if r == 0.0:
        return math.copysign(math.inf, q)
    s = math.sqrt(-math.log(r))
    z = _ratio(_C, _D, s - 1.6) if s <= 5.0 else _ratio(_E, _F, s - 5.0)
    if r > 1e-300:
        z += (ndtr(-z) - r) / _npdf(z)
    return math.copysign(z, q)


# ---------------------------------------------------- incomplete beta

# Coefficients of Stirling's series for the error of Stirling's formula:
# ln Gamma(z) = (z - 1/2) ln z - z + ln sqrt(2 pi) + sum_k S_k / z^(2k-1).
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)


def _stirlerr(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln sqrt(2 pi)), for z >= 1/2.

    Stirling's series from z = 10 up; below, the recurrence
    err(z) = err(z + 1) + g(z) with g(z) = (z + 1/2) ln(1 + 1/z) - 1
    = u^2/3 + u^4/5 + ... for u = 1/(2z + 1), a sum of positive terms.
    """
    shift = 0.0
    while z < 10.0:
        u2 = 1.0 / (2.0 * z + 1.0) ** 2
        term, k, g = u2, 3.0, 0.0
        while term > 1e-17 * g:
            g += term / k
            term *= u2
            k += 2.0
        shift += g
        z += 1.0
    r = 1.0 / (z * z)
    s = 0.0
    for coef in reversed(_STIRLING):
        s = s * r + coef
    return shift + s / z


def _log1pmx(z: float) -> float:
    """ln(1 + z) - z without cancellation for small z.

    For w = z/(2 + z), ln(1 + z) = 2 atanh(w) and z - 2w = z w, so
    ln(1 + z) - z = -z w + 2 w^3 (1/3 + w^2/5 + ...); |w| <= 1/3 on
    [-1/2, 1].
    """
    if not -0.5 <= z <= 1.0:
        return math.log1p(z) - z
    w = z / (2.0 + z)
    w2 = w * w
    term, k, s = 1.0, 3.0, 0.0
    while term > 1e-17:
        s += term / k
        term *= w2
        k += 2.0
    return 2.0 * w * w2 * s - z * w


def _prefactor(a: float, b: float, x: float, y: float, d: float) -> float:
    """x^a y^b / B(a, b) for x + y = 1, d = b x - a y and a, b >= 1/2.

    With c = a + b, x c/a = 1 + d/a and y c/b = 1 - d/b, and B(a, b) by
    Stirling's formula gives
    x^a y^b / B = sqrt(a b / (2 pi c)) (x c/a)^a (y c/b)^b e^(err(c) - err(a) - err(b)).
    The powers' logs are a ln(1 + u) + b ln(1 + v) with u = d/a, v = -d/b
    and a u + b v = 0, so they are summed as a (ln(1 + u) - u) + b (ln(1 + v) - v):
    two terms of one sign instead of two that cancel. Where 1 + u = x c/a
    is below 1/2, ln(1 + u) comes from x itself (and 1 + v from y), which
    keeps its digits when x is tiny.
    """
    if x == 0.0 or y == 0.0:
        return 0.0
    c = a + b
    u, v = d / a, -d / b
    lu = _log1pmx(u) if u >= -0.5 else math.log(x * c / a) - u
    lv = _log1pmx(v) if v >= -0.5 else math.log(y * c / b) - v
    scale = math.sqrt(a * b / (2.0 * math.pi * c))
    return scale * math.exp(a * lu + b * lv + _stirlerr(c) - _stirlerr(a) - _stirlerr(b))


def _bfrac(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction r of DiDonato and Morris's BFRAC (ACM TOMS 708,
    1992): I_x(a, b) = r x^a y^b / B(a, b). Its terms use the distance from
    the mean lambda = a - (a + b) x, taken from y when x is near 1, so it
    stays accurate below the mean however large a is."""
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    n, p, s = 0.0, 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    while n < 10_000.0:
        n += 1.0
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-16 * r:
            break
        an /= bnp1
        bn /= bnp1
        anp1, bnp1 = r, 1.0
    return r


def _beta_series(a: float, b: float, x: float, x_lo: float) -> tuple[float, float]:
    """S = sum_k (a + b)_k / (a + 1)_k x^k as a double and the rest, so that
    I_x(a, b) = S x^a (1 - x)^b / (a B(a, b)), for x + x_lo below the mean.

    The terms are positive, and the roundings of each one's recurrence and
    of the running sum are tracked exactly, so S keeps its digits however
    many terms it takes; x_lo enters to first order, x dS/dx = sum k term_k.
    """
    v, v_lo, term, rel, k, kx = 1.0, 0.0, 1.0, 0.0, 0.0, 0.0
    while term > 1e-17 * v and k < 100_000.0:
        num, den = a + b + k, a + 1.0 + k
        c = num / den
        cd = c * den
        rel += ((num - cd) - _two_product_err(c, den, cd)) / num
        cx = c * x
        rel += _two_product_err(c, x, cx) / cx
        nxt = term * cx
        rel += _two_product_err(term, cx, nxt) / nxt
        term = nxt
        k += 1.0
        total = v + term
        v_lo += _two_sum_err(v, term, total) + term * rel
        v = total
        kx += k * term
    return v, v_lo + kx * x_lo / x


# ---------------------------------------------------------- Student t

# Smallest df for the large-a expansion of the t tail above x = 1/2.
_BGRAT_DF = 16.0


def _hill_guess(df: float, two_tail: float) -> float:
    """Hill's ACM Algorithm 396 (1970): |t| with P(|T| > t) = two_tail, to
    about six digits for df > 2. For tails of 1e-100 and up at df >= 1,
    its y = (d two_tail)^(2/df) is a normal double."""
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * two_tail) ** (2.0 / df)
    if (df < 2.1 and two_tail > 0.5) or y > 0.05 + a:
        x = ndtri(0.5 * two_tail)
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _t_tail_bgrat(a: float, x: float, y: float, log_scale: float) -> float:
    """I_x(a, 1/2) by DiDonato and Morris's BGRAT (ACM TOMS 708, 1992), an
    expansion in 1/(a - 1/4)^2 whose leading term is the normal tail
    erfc(sqrt(z)), z = -(a - 1/4) ln x. It serves a >= 8 with x >= 1/2; for
    smaller a, or far out, 30 terms do not converge. log_scale =
    ln(Gamma(a + 1/2) / (Gamma(a) sqrt a))."""
    nu = a - 0.25
    lnx = math.log1p(-y) if y < 0.375 else math.log(x)
    z = -nu * lnx
    root = math.sqrt(z)
    term = math.erfc(root)
    r = root * math.exp(-z) * _INV_SQRT_PI
    v = 0.25 / (nu * nu)
    t2 = 0.25 * lnx * lnx
    total = term
    power, cn, n2 = 1.0, 1.0, 0.0
    c: list[float] = []
    d: list[float] = []
    for n in range(1, 31):
        bp2n = 0.5 + n2
        term = (bp2n * (bp2n + 1.0) * term + (z + bp2n + 1.0) * power * r) * v
        n2 += 2.0
        power *= t2
        cn /= n2 * (n2 + 1.0)
        c.append(cn)
        acc = sum((0.5 * i - n) * c[i - 1] * d[n - 1 - i] for i in range(1, n))
        d.append(-0.5 * cn + acc / n)
        total += d[-1] * term
        if abs(d[-1] * term) <= 1e-17 * total:
            break
    return math.exp(log_scale) * math.sqrt(a / nu) * total


def _t_front(t: float, df: float, scale: float) -> tuple[float, ...]:
    """t pdf(t) for the t density, y = t^2/(df + t^2) and x = 1 - y, each as
    a double and the rest of its value; scale = Gamma(a + 1/2)/(Gamma(a)
    sqrt a) for a = df/2, so that pdf(t) = scale (1 + t^2/df)^-(a + 1/2) /
    sqrt(2 pi).

    pow rounds once for its double base B; the roundings of t^2, t^2/df and
    B = 1 + t^2/df are carried to first order, (B + b)^-e = B^-e (1 - e b/B),
    since a relative error r in the base costs e r in the result, and so
    are the roundings of the products. So is the rounding of the exponent
    e = df/2 + 1/2, exact for integer df but not for every df:
    B^-(e + e_lo) = B^-e (1 - e_lo ln B).
    """
    e = 0.5 * df + 0.5
    e_lo = _two_sum_err(0.5 * df, 0.5, e)
    t2 = t * t
    u = t2 / df
    prod = u * df
    u_lo = ((t2 - prod) - _two_product_err(u, df, prod) + _two_product_err(t, t, t2)) / df
    base = 1.0 + u
    base_lo = _two_sum_err(1.0, u, base) + u_lo
    y = u / base
    prod = y * base
    y_lo = ((u - prod) - _two_product_err(y, base, prod) + u_lo - y * base_lo) / base
    x = 1.0 / base
    prod = x * base
    x_lo = ((1.0 - prod) - _two_product_err(x, base, prod) - x * base_lo) / base
    power = base**-e
    f1 = t * _INV_SQRT_2PI
    f2 = f1 * scale
    front = f2 * power
    rel = (
        _two_product_err(t, _INV_SQRT_2PI, f1) / f1
        + _two_product_err(f1, scale, f2) / f2
        + _two_product_err(f2, power, front) / front
        + _INV_SQRT_2PI_LO / _INV_SQRT_2PI
        - e * base_lo / base
        - e_lo * math.log(base)
    )
    return front, front * rel, y, y_lo, x, x_lo


def stdtrit(df: float, p: float) -> float:
    """Student-t quantile for df >= 1 (inf: the normal) and 0 < p < 1 with
    a tail min(p, 1 - p) of at least 1e-100.

    df 1 and 2 have closed forms. Otherwise Hill's Algorithm 396 starts
    Halley's iteration on a probability that is exact in the input: the
    central mass |p - 1/2| = P(0 < T < t) near the centre, where the tail
    would be ill-conditioned, and the tail q = min(p, 1 - p) beyond. With
    y = t^2/(df + t^2) = 1 - x, the central mass is I_y(1/2, df/2)/2 and
    the tail I_x(df/2, 1/2)/2, both t pdf(t) times the positive series of
    `_beta_series` below the mean; for df >= 16 the tail at x >= 1/2 is
    BGRAT's. Below df 16 the central mass serves out to the mean,
    t^2 = 3 df/(df + 2), and the tail's series beyond it.

    Against 50-digit mpmath the result is within 4 ulp for every integer df
    from 1 to 1e6 and inf, for p in [1e-10, 1 - 1e-10] (measured: 3.2) and
    for tails from 1e-100 to 1e-10 (measured: 1.6), and so it is at the
    non-integer df 1.01, 1.05, 1.5, 3.3, 7.7 and 20.1 (measured: 1.3 and
    1.1), whether df/2 + 1/2 rounds or not. It is odd in p - 1/2
    exactly: stdtrit(df, 1 - p) = -stdtrit(df, p) whenever 1 - p is exact.
    Below a tail of 1e-100, which no confidence level reaches, nothing
    guards the density against underflow.
    """
    if df > 1e20:
        # t - z = (z^3 + z)/(4 df) + O(1/df^2) is below z's last bit.
        return ndtri(p)
    s = p - 0.5
    if s == 0.0:
        return 0.0
    q = min(p, 1.0 - p)
    if df == 1.0:
        t = math.tan(math.pi * abs(s)) if abs(s) < 0.25 else 1.0 / math.tan(math.pi * q)
        return math.copysign(t, s)
    if df == 2.0:
        if abs(s) < 0.25:
            t = 2.0 * abs(s) / math.sqrt(0.5 - 2.0 * s * s)
        else:
            t = (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))
        return math.copysign(t, s)
    a = 0.5 * df
    log_scale = a * _log1pmx(0.5 / a) + _stirlerr(a + 0.5) - _stirlerr(a)
    scale = math.exp(log_scale)
    central_t2 = 3.0 * df / (df + 2.0)
    # Below about 1e-17, Hill's guess rounds to 0; t is then near |s|/pdf(0).
    t = max(_hill_guess(df, 2.0 * q), abs(s))
    for _ in range(20):
        front, front_lo, y, y_lo, x, x_lo = _t_front(t, df, scale)
        pdf = front / t
        t2 = t * t
        central = abs(s) < 0.25 or (df < _BGRAT_DF and t2 < central_t2)
        if not central and df >= _BGRAT_DF and x >= 0.5:
            resid = 0.5 * _t_tail_bgrat(a, x, y, log_scale) - q
        else:
            if central:
                # P(0 < T < t) = I_y(1/2, a)/2 = t pdf(t) S.
                v, v_lo = _beta_series(0.5, a, y, y_lo)
                div, target = 1.0, abs(s)
            else:
                # P(T > t) = I_x(a, 1/2)/2 = t pdf(t) S / df.
                v, v_lo = _beta_series(a, 0.5, x, x_lo)
                div, target = df, q
            mass = front * v
            mass_lo = _two_product_err(front, v, mass) + front_lo * v + front * v_lo
            goal = target * div
            # mass / div - target, with both products' roundings carried.
            resid = ((mass - goal) + (mass_lo - _two_product_err(target, div, goal))) / div
            if central:
                resid = -resid
        step = resid / pdf
        step /= 1.0 - 0.5 * step * (df + 1.0) * t / (df + t2)
        t = t + step if t + step > 0.0 else 0.5 * t
        if abs(step) <= 1e-9 * t:
            break
    return math.copysign(t, s)


# ---------------------------------------------------------------- F


def fdtrc(dfn: float, dfd: float, f: float) -> float:
    """P(F > f) for the F distribution with dfn and dfd >= 1 degrees of
    freedom: I_x(dfd/2, dfn/2) for x = dfd/(dfd + dfn f) by the continued
    fraction below the mean, one minus the other tail above it.

    Against 50-digit mpmath the result is within 1e-13 relative for dfn in
    [1, 100], dfd in [1, 1e4] and values >= 1e-100 (measured: 9.3e-14, at
    values near 1e-100; 3.1e-14 for values >= 1e-50).
    """
    if not f > 0.0:
        return 1.0 if f <= 0.0 else math.nan
    if math.isinf(f):
        return 0.0
    a, b = 0.5 * dfd, 0.5 * dfn
    # x, y and d = b x - a y = a dfn (1 - f)/(dfd + dfn f) from f with the
    # errors of dfn f, dfd + dfn f and 1 - f carried: ln P moves by about
    # d times the relative error of d, and |d| reaches 300 at P = 1e-100.
    p = dfn * f
    if p == math.inf:
        return 0.0
    s = dfd + p
    o = 1.0 - f
    q = o / s
    x, y, d = dfd / s, p / s, a * dfn * q
    if p < 1e300:  # else the error terms overflow, and P is below about 1e-150
        p_lo = _two_product_err(dfn, f, p)
        s_lo = _two_sum_err(dfd, p, s) + p_lo
        x *= 1.0 - s_lo / s
        y *= 1.0 + (p_lo / p - s_lo / s)
        # (o + o_lo)/(s + s_lo) = q + q_lo, one Newton step past the double q.
        qs = q * s
        o_lo = _two_sum_err(1.0, -f, o)
        d += a * dfn * (((o - qs) - _two_product_err(q, s, qs) + o_lo - q * s_lo) / s)
    front = _prefactor(a, b, x, y, d)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _bfrac(a, b, x, y)
    return 1.0 - front * _bfrac(b, a, y, x)
