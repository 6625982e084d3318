"""Pair resampling with percentile, BCa, and bootstrap-on-T0 confidence sets.

Plain percentile and BCa intervals bootstrap the ratio statistic directly
and are therefore always bounded; they cannot reproduce the unbounded cases
that an exact inversion produces when the denominator is indistinguishable
from zero. The bootstrap-on-T0 variant instead resamples the pivot
T0* = mean(d*) / se(d*), the one-sample t of the resampled differences
d = y - rho_hat x, reads off its empirical band (t_lo, t_hi), and inverts
t_lo <= T0(rho) <= t_hi with the same machinery as the exact method, so it
returns the same union of closed intervals, or from an asymmetric band
also a half-line, alone or with a bounded interval.

Every bootstrap distribution is read by one collect-and-read step: _collect
keeps the finite values, sorted, or fails the distribution, and _limits
reads the limits at the percentile levels, or at the BCa levels when given
a jackknife, by the interpolated order-statistic rule with plotting
positions (k - 1)/(B - 1) (numpy's default). The pivot method reads T0* at
the BCa levels about T0(rho_hat) = 0, and bootstrap_bca the ratio
replicates about rho_hat; where z0 or a is undefined, both read the
percentile levels, a fallback. The kernel warns about nothing: it keeps
each row's fallback reason, and its callers in montecarlo report them,
evaluate_methods as one warning per method that fell back and a simulation
as one per method and reason, with the count (_FALLBACK_CATEGORY gives each
reason's warning category).

Resample indices are drawn in blocks of rows = max(1, _BLOCK_ELEMENTS // n)
resamples, the last block ragged, each block's statistics computed before
the next is drawn. The blocks are the rows of default_rng(seed).integers(0,
n, (B, n)), drawn by NumPy's own algorithm (Lemire's bounded integer on
PCG64's 32-bit words) vectorized over a block, a word left over by one
block starting the next; so the block size changes no number. Peak memory
is O(rows·n + n) for any B, with rows·n at most max(_BLOCK_ELEMENTS, n):
the block's words, indices and gathered values and the sample, besides the
B floats of each statistic.

All three methods read the same config, so they are one kernel over the
rows of a batch of samples, _bootstrap_rows. Each row is resampled once,
from its own seed, for every requested method: each index block is drawn
once and gathered into buffers held for the whole batch, x and y for the
ratio replicates (from the resample means) and, when the pivot method
runs, d* = y* - rho_hat x*, formed in place of x* after the means, for
T0* (alone, the pivot gathers the row's d). The jackknife of T0* is the
same one-sample t with each d_i left out. The per-row part ends with one
loop reading each method's limits; the preconditions, the estimates, the
inversion of every row's pivot band (one methods._band_rows call) and the
diagnostics are done once for the batch.
On one sample the kernel runs on a batch of one (montecarlo's
evaluate_methods), so requesting the methods together or apart, and a
sample alone or among the runs of a simulation, gives the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._special import ndtr, ndtri
from .core import ConfidenceSpec, _integer, _row_dots, _RowSummaries, _seed
from .errors import (
    AllResamplesDegenerate,
    DegenerateJackknife,
    DomainError,
    RatioCiError,
    TooFewObservations,
    TooFewReplicates,
    ZeroDenominator,
)
from .methods import Method, _band_rows, _bounded_rows, _RowResults

__all__ = ["BootstrapConfig", "HwangDiagnostics"]

# The methods that bootstrap the ratio itself; they share one distribution.
_RATIO_BOOT_METHODS = (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)


@dataclass(frozen=True)
class BootstrapConfig:
    """B = replications resamples, at least 100, drawn from seed; a
    simulation reads only replications (run_cell)."""

    replications: int = 2000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "replications", _integer(self.replications, "replications"))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.replications < 100:
            raise DomainError("need at least 100 bootstrap replications")


@dataclass(frozen=True)
class HwangDiagnostics:
    """Empirical pivot band actually inverted, plus bookkeeping."""

    t_lower: float
    t_upper: float
    dropped_replicates: int
    bias_correction: float | None = None
    acceleration: float | None = None


# Index elements per resampling block: 512 KiB of indices and 256 KiB of
# random words, 1.75 MiB with two gathers, so a block's passes stay in cache.
_BLOCK_ELEMENTS = 1 << 16


class _IndexStream:
    """default_rng(seed).integers(0, bound, ...), block after block (_resample_indices)."""

    def __init__(self, seed: int, bound: int, size: int):
        if not 2 <= bound < 1 << 32:
            raise DomainError(f"resample indices need 2 <= n < 2**32, not n = {bound}")
        self.raw, self.bound = np.random.PCG64(seed).random_raw, bound
        self.threshold = ((1 << 32) - bound) % bound  # Lemire's
        self.carry = np.empty(0, np.uint32)  # drawn, not yet used: NumPy's has_uint32 word
        self.indices = np.empty(size, np.uint64)  # every block's, reused


def _resample_indices(stream: _IndexStream, rows: int, n: int) -> np.ndarray:
    """The next (rows, n) block of stream's integers, NumPy's bit for bit:
    each is the high half of word * bound, for the 32-bit words of PCG64
    (low half first) less those whose product's low half is below the threshold."""
    k = rows * n
    out = stream.indices[:k]
    low = out.view(np.uint32)[:k]
    while True:
        words = stream.raw((k - stream.carry.size + 1) // 2).astype("<u8", copy=False).view("<u4")
        if stream.carry.size:
            words = np.concatenate((stream.carry, words))
        if np.multiply(words[:k], np.uint32(stream.bound), out=low).min() >= stream.threshold:
            break
        stream.carry = np.delete(words, np.flatnonzero(low < stream.threshold))
    stream.carry = words[k:].copy()
    np.multiply(words[:k], stream.bound, out=out, dtype=np.uint64)
    out >>= 32
    return out.view(np.int64).reshape(rows, n)


def _block_rows(n: int) -> int:
    """Resamples per block at n pairs."""
    return max(1, _BLOCK_ELEMENTS // n)


def _collect(values: np.ndarray, replications: int) -> tuple[np.ndarray, int]:
    """The finite values, sorted, and the number of the B = replications
    dropped; more than half dropped, or fewer than 100 kept, is an error."""
    finite = values[np.isfinite(values)]
    dropped = replications - finite.size
    if dropped * 2 > replications:
        raise AllResamplesDegenerate(
            f"{dropped} of {replications} bootstrap draws were non-finite"
        )
    if finite.size < 100:
        raise TooFewReplicates(f"{finite.size} retained replications, need 100")
    finite.sort()
    return finite, int(dropped)


def _percentile_levels(level: float) -> tuple[float, float]:
    alpha = 1.0 - level
    return 0.5 * alpha, 1.0 - 0.5 * alpha


def _acceleration(jackknife: np.ndarray):
    """Jackknife skewness constant; None when the values do not vary. It
    does not depend on the scale of the deviations d, so they are scaled by
    a power of two to a largest |d| in [0.5, 1) first: exact, and sum(d^2)^1.5
    neither overflows nor underflows whatever the data's units."""
    d = jackknife.mean() - jackknife
    d = np.ldexp(d, -np.frexp(np.abs(d).max())[1])
    ssq = float(d @ d)
    if ssq == 0.0:
        return None
    return float((d**3).sum() / (6.0 * ssq**1.5))


def _bca_levels(z0: float, a: float, level: float) -> tuple[float, float]:
    alpha = 1.0 - level
    out = []
    for p in (0.5 * alpha, 1.0 - 0.5 * alpha):
        num = z0 + ndtri(p)
        denom = 1.0 - a * num
        if denom <= 0.0:
            # Past the adjustment's pole; saturate at the distribution edge.
            out.append(1.0 if num > 0.0 else 0.0)
        else:
            out.append(ndtr(z0 + num / denom))
    return out[0], out[1]


# The warning category of each reason the BCa step falls back to percentiles.
_FALLBACK_CATEGORY = {
    "estimate outside the bootstrap distribution": RuntimeWarning,
    "non-finite jackknife values": RuntimeWarning,
    "all jackknife values coincide": DegenerateJackknife,
}


def _bca_adjustment(
    finite: np.ndarray, estimate: float, jackknife: np.ndarray, level: float
) -> tuple[float, float, float | None, float | None, str | None]:
    """Quantile probabilities of the BCa interval on the sorted values finite,
    then z0, a and the reason for falling back (None if the adjustment was made).

    z0 comes from the fraction of bootstrap values strictly below the
    full-sample estimate, the acceleration from the leave-one-out jackknife.
    When either is undefined this returns the plain percentile probabilities
    with z0 and a None, and the reason, a key of _FALLBACK_CATEGORY; the
    callers warn.
    """
    below = int(np.searchsorted(finite, estimate, side="left"))
    if below == 0 or below == finite.size:
        reason = "estimate outside the bootstrap distribution"
    elif not np.all(np.isfinite(jackknife)):
        reason = "non-finite jackknife values"
    else:
        a = _acceleration(jackknife)
        if a is not None:
            z0 = ndtri(below / finite.size)
            return (*_bca_levels(z0, a, level), z0, a, None)
        reason = "all jackknife values coincide"
    return (*_percentile_levels(level), None, None, reason)


def _limits(
    finite: np.ndarray, level: float, estimate: float, jackknife: np.ndarray | None
) -> tuple[float, float, float | None, float | None, str | None]:
    """The limits read from the sorted values finite, then z0, a and the
    BCa fallback reason: the equal-tailed percentile limits when jackknife
    is None, else the BCa limits about estimate (_bca_adjustment)."""
    if jackknife is None:
        lo_p, hi_p, z0, a, fallback = (*_percentile_levels(level), None, None, None)
    else:
        lo_p, hi_p, z0, a, fallback = _bca_adjustment(finite, estimate, jackknife, level)
    lo, hi = np.quantile(finite, [lo_p, hi_p])
    return lo, hi, z0, a, fallback


def _one_sample_t(mean: np.ndarray, ss: np.ndarray, k: int) -> np.ndarray:
    """The one-sample t, mean / sqrt(ss / (k (k - 1))), of k values with
    these means and sums of squared deviations ss; nan where ss is not
    positive. Formed in place: the result is mean, and ss is overwritten."""
    positive = ss > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ss /= k * (k - 1)
        mean /= np.sqrt(ss, out=ss)
    mean[~positive] = math.nan
    return mean


def _resample(
    xs: np.ndarray,
    ys: np.ndarray,
    seed: int,
    replications: int,
    ratios: bool,
    rho_hat: float | None,
    buffers: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The ratio replicates (if ratios) and the pivots T0* at rho_hat (if
    rho_hat is not None) of the same B = replications resamples of the
    pairs (xs, ys) drawn from seed, from one pass.

    The index blocks come from one _IndexStream, and each block's values
    are written into its slice of the B-length results. Each block is
    gathered into the leading rows of buffers' (rows, n) arrays: for the
    ratio replicates mean_y*/mean_x* (nan where mean_x* is zero), x* and y*
    into the two; for T0*, the one-sample t of d* = y* - rho_hat x*, formed
    in place of x* after the means, or, without the ratios, gathered into
    the first from the row's d = ys - rho_hat xs. Elementwise these are the
    same doubles. Each row of d* is centred on its first value before its
    mean is taken, so a resample whose d* are all equal has a sum of
    squares of exactly 0, and T0* nan. That sum is the row's own dot
    (core._row_dots), bit-equal to the 1-D dot in a block of any shape, so
    the block size changes no T0*.
    """
    n = xs.size
    ratio = np.empty(replications) if ratios else None
    t0 = np.empty(replications) if rho_hat is not None else None
    d_all = ys - rho_hat * xs if t0 is not None and ratio is None else None
    step = _block_rows(n)
    stream = _IndexStream(seed, n, min(step, replications) * n)
    for start in range(0, replications, step):
        rows = min(step, replications - start)
        idx = _resample_indices(stream, rows, n)
        part = slice(start, start + rows)
        # mode="clip" writes into out directly ("raise" would buffer); the
        # indices are all in range, so it clips nothing.
        if ratio is not None:
            x = np.take(xs, idx, out=buffers[0, :rows], mode="clip")
            y = np.take(ys, idx, out=buffers[1, :rows], mode="clip")
            mx, my = np.add.reduce(x, axis=1) / n, np.add.reduce(y, axis=1) / n  # .mean's bits
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio[part] = np.where(mx != 0.0, my / mx, math.nan)
        if t0 is not None:
            d = (np.take(d_all, idx, out=buffers[0, :rows], mode="clip") if ratio is None
                 else np.subtract(y, np.multiply(x, rho_hat, out=x), out=x))
            first = d[:, :1].copy()
            _centre(d, first)
            shift = np.add.reduce(d, axis=1) / n
            _centre(d, shift[:, None])
            t0[part] = _one_sample_t(first[:, 0] + shift, _row_dots(d, d), n)
    return ratio, t0


def _centre(d: np.ndarray, column: np.ndarray) -> None:
    """d -= column, a (rows, 1) column. NumPy copies the column through its
    8192-element buffer where the rows are shorter than that: 34 µs a block
    at n = 500, 14 µs with a 16-element buffer. The two cross at n = 80
    (34 µs each): below, the small buffer is slower (120 against 43 µs at
    n = 20); from n = 8192 on, where nothing is copied, they match."""
    if d.shape[1] < 80:
        d -= column
        return
    old = np.setbufsize(16)
    try:
        d -= column
    finally:
        np.setbufsize(old)


def _ratio_jackknife(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The ratio of means of each leave-one-out sample of the pairs."""
    sx = float(xs.sum())
    sy = float(ys.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sy - ys) / (sx - xs)


def _jackknife_t0(xs: np.ndarray, ys: np.ndarray, rho_hat: float) -> np.ndarray:
    """T0 at the full-sample rho_hat of each leave-one-out sample of the
    pairs: the one-sample t of d = ys - rho_hat xs with d_i left out. With
    e = d - mean(d) and m = n - 1, that sample's mean is mean(d) - e_i/m
    and its sum of squares sum(e^2) - (n/m) e_i^2. The caller still holds
    the gather buffers, so this forms two n-length float arrays and works
    in them in place."""
    e = np.multiply(xs, rho_hat)
    np.subtract(ys, e, out=e)  # d
    n = e.size
    m = n - 1
    mean = e.mean()
    e -= mean
    ss = e * e
    ss *= n / m
    np.subtract(e @ e, ss, out=ss)
    e /= m
    return _one_sample_t(np.subtract(mean, e, out=e), ss, m)


def _bootstrap_rows(
    xs: np.ndarray,
    ys: np.ndarray,
    summaries: _RowSummaries | None,
    seeds: Sequence[int],
    config: BootstrapConfig,
    spec: ConfidenceSpec,
    methods: tuple[Method, ...],
) -> tuple[_RowResults, ...]:
    """The requested bootstrap methods on every row of the (rows, n) samples
    xs and ys, one _RowResults per method in `methods`.

    The preconditions come first: three pairs for every method, and for the
    pivot method a nonzero mean of x (summaries holds the rows' summaries;
    it is read only with three pairs). Then each row that some method still
    needs is resampled once, from seeds[i] with config.replications
    resamples (_resample), and one loop over the methods, the pivot method
    first, reads each distribution: for the pivot method the band (t_lo,
    t_hi), for each ratio method its limits, from ratio replicates collected
    once for both. An error there is the row's error for the pivot method,
    or for every requested ratio method, and wins over an error of the band
    inversion, which runs once for all rows.
    """
    rows, n = xs.shape
    ratio_methods = tuple(m for m in methods if m in _RATIO_BOOT_METHODS)
    if n < 3:
        pivot = TooFewObservations("pivot bootstrap needs at least three pairs")
        ratio = TooFewObservations("bootstrap ratio intervals need at least three pairs")
        return tuple(
            _RowResults.failing(rows, pivot if m is Method.HWANG_BOOTSTRAP else ratio)
            for m in methods
        )
    mx, my = summaries.mean_x, summaries.mean_y
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = np.where(mx != 0.0, my / mx, np.nan)
    pivots = (mx != 0.0) & (Method.HWANG_BOOTSTRAP in methods)
    # Per method and row: the band or the limits, the BCa fallback reason,
    # the replicates dropped and the error; and the pivot's BCa z0 and a.
    limits = {m: np.full((2, rows), np.nan) for m in methods}
    fallback: dict[Method, list[str | None]] = {m: [None] * rows for m in methods}
    dropped = {m: np.zeros(rows, dtype=np.int64) for m in methods}
    errors: dict[Method, dict[int, RatioCiError]] = {m: {} for m in methods}
    adjustment = [(None, None)] * rows
    if Method.HWANG_BOOTSTRAP in methods:
        zero = ZeroDenominator("mean of x is exactly zero")
        errors[Method.HWANG_BOOTSTRAP] = dict.fromkeys(np.flatnonzero(~pivots).tolist(), zero)
    # Every row gathers into the leading rows of the same buffers, the
    # second (y*) only for a ratio method. Gathered arrays allocated afresh
    # per block were mapped by malloc and page-faulted in each time: 2000
    # resamples of 20 000 pairs took 57 000 faults.
    buffers = np.empty((1 + bool(ratio_methods), min(config.replications, _block_rows(n)), n))
    ordered = sorted(methods, key=lambda m: m is not Method.HWANG_BOOTSTRAP)
    for i in range(rows):
        if not (ratio_methods or pivots[i]):
            continue
        rho_hat = estimate[i] if pivots[i] else None
        ratios, t0s = _resample(
            xs[i], ys[i], seeds[i], config.replications, bool(ratio_methods), rho_hat, buffers
        )
        shared = None  # the ratio replicates, collected once for both ratio methods
        for m in ordered:
            if i in errors[m]:  # no pivot, or the shared replicates failed
                continue
            try:
                if m is Method.HWANG_BOOTSTRAP:
                    finite, drops = _collect(t0s, config.replications)
                    theta, jack = 0.0, _jackknife_t0(xs[i], ys[i], rho_hat)
                else:
                    finite, drops = shared = shared or _collect(ratios, config.replications)
                    bca = m is Method.BOOTSTRAP_BCA
                    theta, jack = estimate[i], (_ratio_jackknife(xs[i], ys[i]) if bca else None)
                lo, hi, z0, a, fallback[m][i] = _limits(finite, spec.level, theta, jack)
                limits[m][:, i] = lo, hi
                dropped[m][i] = drops
                if m is Method.HWANG_BOOTSTRAP:
                    adjustment[i] = z0, a
            except RatioCiError as exc:
                for failed in ratio_methods if m in ratio_methods else (m,):
                    errors[failed][i] = exc

    results = []
    for m in methods:
        extra = (fallback[m], dropped[m])
        if m is not Method.HWANG_BOOTSTRAP:
            results.append(_bounded_rows(estimate, *limits[m], errors[m], None, *extra))
            continue
        lower, upper, failed = _band_rows(summaries, *limits[m])

        def diagnostics(i: int, band=limits[m], drops=dropped[m]) -> HwangDiagnostics:
            t_lo, t_hi = band[:, i]
            return HwangDiagnostics(float(t_lo), float(t_hi), int(drops[i]), *adjustment[i])

        results.append(_RowResults(estimate, lower, upper, failed | errors[m], diagnostics, *extra))
    return tuple(results)
