"""The batch kernels against the scalar reference in scalar_reference.py:
bit equality per row, and equal run_cell tallies. The bootstrap kernel,
one resampling for all three bootstrap methods, is held to the separate
resamplings of the reference."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ratio_ci.bootstrap as bootstrap_module
import ratio_ci.montecarlo as mc
import scalar_reference as ref
from ratio_ci import (
    AllResamplesDegenerate,
    BootstrapConfig,
    ConfidenceSpec,
    DomainError,
    Method,
    PairedSample,
    RatioCiError,
    SimCell,
    run_cell,
    summarize,
    tangency_slopes,
)
from ratio_ci.core import _summarize_rows
from ratio_ci.methods import (
    _band_rows,
    _delta_rows,
    _fieller_rows,
    _index_rows,
    _known_x,
    _row_set,
)

from one_sample import band_set


def _same(a, b) -> bool:
    """Bit equality of floats: nan matches nan, 0.0 does not match -0.0."""
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _outcome(call):
    try:
        return call()
    except RatioCiError as exc:
        return exc


def _assert_same_outcome(got, expected):
    if isinstance(expected, RatioCiError):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert not isinstance(got, RatioCiError), got
    assert got.method is expected.method
    assert _same(got.estimate, expected.estimate)
    _assert_same_set(got.confidence_set, expected.confidence_set)
    _assert_same_diagnostics(got.diagnostics, expected.diagnostics)


def _assert_same_set(got, expected):
    """The same ConfidenceSet with bit-equal limits, or the same error."""
    if isinstance(expected, RatioCiError):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert not isinstance(got, RatioCiError), got
    assert got.case is expected.case
    assert len(got.intervals) == len(expected.intervals)
    for a, b in zip(got.intervals, expected.intervals):
        assert _same(a[0], b[0]) and _same(a[1], b[1])


def _assert_same_diagnostics(got, expected):
    """The same record type with bit-equal floats; both None if either is."""
    if expected is None or got is None:
        assert got is None and expected is None
        return
    assert type(got) is type(expected)
    for name, want in vars(expected).items():
        value = getattr(got, name)
        assert _same(value, want) if isinstance(want, float) else value == want, name


# ------------------------------------------------------- kernels, row by row

ROW_KINDS = (
    "normal", "boundary", "constant_x", "constant_y", "constant", "one_zero_x", "collinear"
)


@st.composite
def batches(draw):
    """(runs, n) samples from one bivariate normal, with some rows reshaped:
    x shifted so that mean_x^2 / var_mean_x lies within 1e-9 relative of
    q^2, constant x (vx == 0, zero included), constant y, both constant
    (vx == vy == 0), one x_i = 0, or y = k*x, whose discriminant is zero up
    to rounding."""
    n = draw(st.integers(2, 60))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6))
    corr = draw(st.floats(-1.0, 1.0))
    mean_x, mean_y = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    sd_x, sd_y = draw(st.floats(0.01, 5.0)), draw(st.floats(0.01, 5.0))
    trim = draw(st.sampled_from((0.0, 0.1, 0.25, 0.45)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ConfidenceSpec.two_sided(0.95, df=n - 1)
    xs = np.empty((len(kinds), n))
    ys = np.empty_like(xs)
    for i, kind in enumerate(kinds):
        z = rng.standard_normal((2, n))
        x = mean_x + sd_x * z[0]
        y = mean_y + sd_y * (corr * z[0] + math.sqrt(1.0 - corr * corr) * z[1])
        if kind == "boundary":
            dev = x - x.mean()
            var_mean = float(dev @ dev) / (n * (n - 1))
            ratio = 1.0 + rng.uniform(-1e-9, 1e-9)
            x = dev + rng.choice((-1.0, 1.0)) * spec.quantile * math.sqrt(var_mean * ratio)
        elif kind == "constant_x":
            x = np.full(n, float(rng.integers(-3, 4)))
        elif kind == "constant_y":
            y = np.full(n, float(rng.integers(-3, 4)))
        elif kind == "constant":
            x, y = np.full((2, n), rng.integers(-3, 4, (2, 1)).astype(float))
        elif kind == "one_zero_x":
            x[rng.integers(n)] = 0.0
        elif kind == "collinear":
            y = rng.uniform(-3.0, 3.0) * x
        xs[i], ys[i] = x, y
    return kinds, xs, ys, spec, trim


@given(batches())
def test_kernels_match_scalar_reference_bit_for_bit(batch):
    kinds, xs, ys, spec, trim = batch
    q = spec.quantile
    samples = [PairedSample(x, y) for x, y in zip(xs, ys)]
    stats = [_outcome(lambda s=s: ref.summarize(s)) for s in samples]
    if any(isinstance(s, RatioCiError) for s in stats):
        with pytest.raises(DomainError):
            _summarize_rows(xs, ys)
        return
    summaries = _summarize_rows(xs, ys)
    kernels = {
        Method.FIELLER: (_fieller_rows(summaries, q), lambda i: ref.fieller_set(stats[i], spec)),
        Method.TAYLOR: (_delta_rows(summaries, q), lambda i: ref.taylor_limits(stats[i], spec)),
        Method.INDEX: (
            _index_rows(xs, ys, spec, 0.0), lambda i: ref.index_limits(samples[i], spec)
        ),
        Method.TRIMMED_INDEX: (
            _index_rows(xs, ys, spec, trim),
            lambda i: ref.trimmed_index_limits(samples[i], spec, trim),
        ),
        Method.ZERO_VARIANCE: (
            _delta_rows(_known_x(summaries), q),
            lambda i: ref.zero_variance_limits(samples[i], spec),
        ),
    }
    for i, kind in enumerate(kinds):
        row = summaries.row(i)
        for name in ("n", "df", "mean_x", "mean_y", "var_mean_x", "var_mean_y", "cov_mean_xy"):
            assert _same(getattr(row, name), getattr(stats[i], name))
        if kind == "boundary":
            assert abs(row.mean_x**2 / row.var_mean_x / q**2 - 1.0) <= 1.1e-9
        for method, (rows, scalar) in kernels.items():
            expected = _outcome(lambda: scalar(i))
            _assert_same_outcome(_outcome(lambda: rows.result(method, i)), expected)
            if isinstance(expected, RatioCiError):
                assert rows.failed[i] and not rows.contains(1.0)[i]
                continue
            cset = expected.confidence_set
            probes = [1.0, expected.estimate] + [
                v for interval in cset.intervals for v in interval if math.isfinite(v)
            ]
            for value in probes:
                assert rows.contains(value)[i] == cset.contains(value)


@pytest.mark.parametrize("n", [2, 3, 20, 500, 20_000, 500_000])
def test_row_summaries_are_bit_equal_to_summarize(n):
    rng = np.random.default_rng(n)
    xs = 1.0 + 3.0 * rng.standard_normal((2, n))
    ys = -2.0 + 0.5 * xs + rng.standard_normal((2, n))
    summaries = _summarize_rows(xs, ys)
    for i in range(2):
        assert summaries.row(i) == ref.summarize(PairedSample(xs[i], ys[i]))


# ------------------------------------------------- the band inversion

BAND_KINDS = ("symmetric", "equal", "random", "tail", "empty", "graze", "inverted")


def _band(data, stats):
    """A band (t_lo, t_hi) for one row: symmetric; one value; random; around
    one tail's asymptote, so that one tail is in and the other out (half-
    lines and mixed shapes); past the largest |T0| (an empty set); at the
    largest |T0| itself (a touch point); or inverted or nan."""
    kind = data.draw(st.sampled_from(BAND_KINDS))
    t, width = data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(0.0, 10.0))
    sign = data.draw(st.sampled_from((-1.0, 1.0)))
    diagnostics = ref.fieller_diagnostics(stats)
    t_max = math.sqrt(diagnostics.t_unbounded_squared)
    if kind == "symmetric":
        return -abs(t), abs(t)
    if kind == "equal":
        return t, t
    if kind == "tail" and stats.var_mean_x > 0.0:
        asymptote = sign * stats.mean_x / math.sqrt(stats.var_mean_x)
        return asymptote - abs(t), asymptote + width
    if kind == "empty" and math.isfinite(t_max):
        edge = t_max * (1.0 + 1e-6) + abs(t)
        return (edge, edge + width) if sign > 0.0 else (-edge - width, -edge)
    if kind == "graze" and math.isfinite(t_max):
        return (t_max - width, t_max) if sign > 0.0 else (-t_max, -t_max + width)
    if kind == "inverted":
        return (t, t - width - 1e-3) if sign > 0.0 else (math.nan, t)
    return t, t + width


@given(batches(), st.data())
def test_band_kernel_matches_the_scalar_inversion_bit_for_bit(batch, data):
    """_band_rows with a band of its own per row, on the batch and on each
    row alone, and tangency_slopes against the scalar reference, error
    class and message included."""
    _, xs, ys, _, _ = batch
    try:
        summaries = _summarize_rows(xs, ys)
    except DomainError:
        return
    stats = [summaries.row(i) for i in range(len(xs))]
    bands = [_band(data, row) for row in stats]
    t_lo, t_hi = (np.array(edge) for edge in zip(*bands))
    lower, upper, errors = _band_rows(summaries, t_lo, t_hi)
    for i, row in enumerate(stats):
        expected = _outcome(lambda: ref.invert_t0_band(row, *bands[i]))
        got = errors.get(i) or _outcome(lambda: _row_set(lower[i], upper[i]))
        _assert_same_set(got, expected)
        _assert_same_set(_outcome(lambda: band_set(row, *bands[i])), expected)
        for t in bands[i]:
            got_slopes, want = tangency_slopes(row, t), ref.tangency_slopes(row, t)
            assert len(got_slopes) == len(want)
            assert all(_same(a, b) for a, b in zip(got_slopes, want))


# ------------------------------------------- the method registry, a batch of one
#
# evaluate_methods, the registry on a batch of one, is held to the scalar
# reference's per-sample methods, each requested alone (ref.evaluate). The
# two tests' names recall the per-method public functions that evaluate_methods
# replaced; scalar_reference.py keeps their code.

BOOTSTRAP = (Method.HWANG_BOOTSTRAP, Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)


def test_registry_has_one_kernel_per_method():
    assert len(mc._KERNELS) == len(Method) and set(mc._KERNELS) == set(Method)


def _assert_batch_of_one_is_the_reference(sample, methods, spec, trim=0.25, config=None):
    got = list(mc.evaluate_methods(sample, methods, spec, config, trim))
    assert [method for method, _ in got] == list(methods)
    for method, result in got:
        ((_, expected, _, _),) = ref.evaluate(sample, (method,), spec, config, trim)
        _assert_same_outcome(result, expected)


@given(batches())
def test_evaluate_methods_equals_the_public_closed_form_functions(batch):
    _, xs, ys, spec, trim = batch
    for x, y in zip(xs, ys):
        sample = PairedSample(x, y)
        summary = _outcome(lambda: summarize(sample))
        if isinstance(summary, RatioCiError):
            with pytest.raises(type(summary), match=str(summary)):
                next(mc.evaluate_methods(sample, CLOSED_FORM, spec, trim=trim))
            continue
        _assert_batch_of_one_is_the_reference(sample, CLOSED_FORM, spec, trim)
        _assert_batch_of_one_is_the_reference(sample, CLOSED_FORM[::-1], spec, trim)


def _boot_sample(n):
    rng = np.random.default_rng(n)
    return PairedSample(rng.normal(2.0, 0.8, n), rng.normal(3.0, 1.0, n))


BOOT_SAMPLES = {
    "n3": _boot_sample(3),
    "n5": _boot_sample(5),
    "n20": _boot_sample(20),
    # Every resample has the same ratio and a zero pivot variance: Hwang
    # fails, and BCa falls back to the percentile interval with a warning.
    "degenerate": PairedSample([1.0] * 5, [2.0] * 5),
}


@pytest.mark.filterwarnings("ignore:estimate outside the bootstrap distribution")
@pytest.mark.parametrize("name", BOOT_SAMPLES)
def test_evaluate_methods_equals_the_public_bootstrap_functions(name):
    sample = BOOT_SAMPLES[name]
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=1000, seed=11)
    for method in BOOTSTRAP:
        _assert_batch_of_one_is_the_reference(sample, (method,), spec, config=config)
    # Together, the ratio-bootstrap methods come from one resampling.
    order = (Method.BOOTSTRAP_BCA, Method.FIELLER) + BOOTSTRAP[:2]
    got = dict(mc.evaluate_methods(sample, order, spec, config))
    expected = _separate(sample, config, spec, order)
    for method in BOOTSTRAP:
        want = expected[method]
        _assert_same_outcome(got[method], want if isinstance(want, RatioCiError) else want[0])


# ------------------------------------------------------ run_cell, cell by cell


def _zero_x(monkeypatch, run, attempts):
    """Make the draw of `run` at each of `attempts` have x[1] == 0 exactly,
    in a cell with cv_x == 1: its normal is set to -1/cv_x = -1."""
    real = mc._draw_normals

    def draw_normals(seed, runs, attempt, n, boot):
        z, boot_seeds = real(seed, runs, attempt, n, boot)
        if attempt in attempts:
            z[runs == run, 0, 1] = -1.0
        return z, boot_seeds

    monkeypatch.setattr(mc, "_draw_normals", draw_normals)


def _replace_samples(monkeypatch, sample_of_run):
    """Make each run drawn by run_cell and by ref.run_cell (or by
    ref._draw_run) be sample_of_run(run) where that is not None. The runs'
    bootstrap seeds and redraws stay their own."""
    block, per_run = mc._draw_run, ref._draw_run

    def draw_block(cell, seed, start, rows, boot):
        xs, ys, redraws, boot_seeds = block(cell, seed, start, rows, boot)
        for i in range(rows):
            sample = sample_of_run(start + i)
            if sample is not None:
                xs[i], ys[i] = sample.xs, sample.ys
        return xs, ys, redraws, boot_seeds

    def draw_run(cell, seed, run, draw_boot_seed=True):
        sample, boot_seed, attempts = per_run(cell, seed, run, draw_boot_seed)
        replaced = sample_of_run(run)
        return sample if replaced is None else replaced, boot_seed, attempts

    monkeypatch.setattr(mc, "_draw_run", draw_block)
    monkeypatch.setattr(ref, "_draw_run", draw_run)


CLOSED_FORM = ref.CLOSED_FORM


@pytest.mark.parametrize(
    "cell, runs",
    [
        (SimCell(2.0, 0.5, 8), 300),  # deep in the unbounded regime
        (SimCell(0.01, 0.01, 20), 150),  # corners of the default grid
        (SimCell(10.0, 10.0, 20), 150),
        (SimCell(1.0, 1.0, 20, corr=0.9), 150),
        (SimCell(1.0, 1.0, 20, corr=-0.9), 150),
        (SimCell(1.0, 0.5, 2), 200),
    ],
)
def test_run_cell_equals_the_per_run_loop(cell, runs):
    got = run_cell(cell, CLOSED_FORM, runs, seed=3)
    assert got == ref.run_cell(cell, CLOSED_FORM, runs, seed=3)


def test_run_cell_mixed_with_bootstrap_equals_the_per_run_loop(monkeypatch):
    cell = SimCell(0.3, 0.3, 10)
    boot = BootstrapConfig(replications=150, seed=0)
    cases = [
        (CLOSED_FORM + (Method.HWANG_BOOTSTRAP, Method.BOOTSTRAP_PERCENTILE), None),
        # All eight methods, in blocks of 7 runs and a ragged last block of 2.
        (tuple(Method), 7 * cell.n),
    ]
    for methods, block_elements in cases:
        if block_elements is not None:
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_elements)
        got = run_cell(cell, methods, 100, seed=4, boot_config=boot)
        assert got == ref.run_cell(cell, methods, 100, seed=4, boot_config=boot)


def test_run_cell_equals_the_per_run_loop_through_a_redraw(monkeypatch):
    real = ref._draw_pairs
    calls = {"count": 0}

    def flaky(cell, rng):
        calls["count"] += 1
        sample = real(cell, rng)
        if calls["count"] in (5, 6):  # run 4 needs two redraws
            xs = sample.xs.copy()
            xs[1] = 0.0
            return PairedSample(xs, sample.ys)
        return sample

    cell = SimCell(1.0, 1.0, 6)
    _zero_x(monkeypatch, run=4, attempts=(0, 1))
    monkeypatch.setattr(ref, "_draw_pairs", flaky)
    got = run_cell(cell, CLOSED_FORM, 100, seed=5)
    expected = ref.run_cell(cell, CLOSED_FORM, 100, seed=5)
    assert got.redraws == 2
    assert got == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "cell, methods, config",
    [
        (SimCell(3.0, 1.0, 5), CLOSED_FORM, None),
        # The n = 4 Hwang/BCa cell of the digests, at B = 101: Hwang keeps too
        # few replicates on some rows and drops some on others, and BCa falls back.
        (
            SimCell(3.0, 0.5, 4),
            (Method.HWANG_BOOTSTRAP, Method.BOOTSTRAP_BCA),
            BootstrapConfig(101),
        ),
    ],
    ids=["closed_form", "bootstrap"],
)
def test_block_size_changes_no_tally(monkeypatch, cell, methods, config):
    whole = run_cell(cell, methods, 101, seed=6, boot_config=config)
    monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * cell.n)  # 15 blocks, the last ragged
    assert run_cell(cell, methods, 101, seed=6, boot_config=config) == whole
    if config is not None:
        hwang, bca = whole.methods[Method.HWANG_BOOTSTRAP], whole.methods[Method.BOOTSTRAP_BCA]
        assert hwang.failures and hwang.dropped_replicates and bca.fallbacks


def test_run_cell_peak_memory_does_not_grow_with_runs(cpus):
    # Without blocks the stacked runs alone would take 2 x 300 x 20000 x 8 B
    # = 96 MB; with them a block holds one row at this n. tracemalloc sees
    # this process alone, so the cell's two jobs run here.
    cpus(1)
    cell = SimCell(1.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        run_cell(cell, CLOSED_FORM, 300, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# ----------------------------------------------------------------- failures


def test_run_cell_records_failures_by_error_class():
    # g = floor(0.45 * 3) = 1 leaves 1 of 3 pairs on every run.
    res = run_cell(
        SimCell(1.0, 1.0, 3), (Method.FIELLER, Method.TRIMMED_INDEX), 100, seed=0, trim=0.45
    )
    assert res.methods[Method.TRIMMED_INDEX].failures == {"TooFewAfterTrim": 100}
    assert res.methods[Method.TRIMMED_INDEX].covered == 0
    assert res.methods[Method.FIELLER].failures == {}


# About 10% of the resamples of this sample have mean(x) == 0, and so no
# ratio: at B = 100 the ratio methods fail with too few replicates.
PLUS_MINUS_ONE = PairedSample([-1.0, 1.0, -1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_run_cell_records_failures_of_the_per_run_methods(monkeypatch):
    _replace_samples(monkeypatch, lambda run: PLUS_MINUS_ONE)
    draws = _counted_draws(monkeypatch)
    methods = (Method.FIELLER, Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)
    boot = BootstrapConfig(replications=100)
    cell = SimCell(1.0, 1.0, 5)
    res = run_cell(cell, methods, 100, seed=0, boot_config=boot)
    assert draws == [100] * 100  # one resampling per run for both methods
    for method in methods[1:]:
        assert res.methods[method].failures == {"TooFewReplicates": 100}
        assert res.methods[method].covered == 0
    assert res.methods[Method.FIELLER].failures == {}
    assert res == ref.run_cell(cell, methods, 100, seed=0, boot_config=boot)


# ------------------------------------------- the bootstrap kernel, one resampling

BOOT_KINDS = ("normal", "zero_mean_x", "constant_x", "constant")


@st.composite
def boot_cases(draw):
    """A sample with n 3-60 of one kind, a config, and a non-empty subset of
    the bootstrap methods in some request order. Integer x with a zero sum
    has mean_x == 0 exactly; constant x has no x variance, and a constant
    sample gives every resample the same ratio and a zero pivot variance."""
    n = draw(st.integers(3, 60))
    kind = draw(st.sampled_from(BOOT_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 3.0)), n)
    y = rng.normal(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 3.0)), n)
    if kind == "zero_mean_x":
        x = rng.integers(-5, 6, n).astype(float)
        x[-1] -= x.sum()
    elif kind == "constant_x":
        x = np.full(n, float(rng.integers(-2, 3)))
    elif kind == "constant":
        x, y = np.full(n, 1.5), np.full(n, -0.5)
    config = BootstrapConfig(
        replications=draw(st.sampled_from((100, 1000))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    order = draw(st.permutations(BOOTSTRAP))[: draw(st.integers(1, 3))]
    return PairedSample(x, y), config, tuple(order)


def _separate(sample, config, spec, order):
    """{method: outcome} of the reference's separate resamplings: one
    hwang_set call and one ratio_bootstrap_results call over the requested
    ratio methods (in `order`, other methods aside). A result comes with
    its fallback reason and its dropped replicates."""
    out = {}
    ratio = tuple(m for m in order if m in ref.RATIO_BOOT)
    if Method.HWANG_BOOTSTRAP in order:
        out[Method.HWANG_BOOTSTRAP] = _outcome(lambda: ref.hwang_set(sample, config, spec))
    if ratio:
        got = _outcome(lambda: ref.ratio_bootstrap_results(sample, config, spec, ratio))
        for m in ratio:
            out[m] = got if isinstance(got, RatioCiError) else got[m]
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(boot_cases())
def test_bootstrap_methods_together_equal_the_separate_paths(case):
    sample, config, order = case
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    # The reference's separate resamplings, with their fallbacks and drops.
    expected = _separate(sample, config, spec, order)
    got = dict(mc.evaluate_methods(sample, order, spec, config))
    assert list(got) == list(order)
    batch = mc._Batch(sample.xs[None], sample.ys[None], spec, 0.25, config, (config.seed,))
    rows = dict(mc._kernel_rows(batch, order))
    for method in order:
        want = expected[method]
        if isinstance(want, RatioCiError):
            fallback, dropped = None, 0
        else:
            want, fallback, dropped = want
        _assert_same_outcome(got[method], want)
        _assert_same_outcome(_outcome(lambda: rows[method].result(method)), want)
        assert dict(rows[method].fallbacks) == ({} if fallback is None else {fallback: 1})
        assert rows[method].dropped_replicates == dropped


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "cell, config",
    [
        # One x value in three draws: the pivot drops about 1/9 of resamples.
        (SimCell(0.5, 0.5, 3), BootstrapConfig(1000)),
        (SimCell(3.0, 0.3, 5), BootstrapConfig(100)),
        (SimCell(0.3, 1.0, 20, corr=0.8), BootstrapConfig(1000)),
    ],
)
def test_run_cell_bootstrap_subsets_equal_the_separate_paths(cell, config):
    totals = Counter()
    for k in range(1, 4):
        for methods in itertools.combinations(BOOTSTRAP, k):
            got = run_cell(cell, methods, 100, seed=8, boot_config=config)
            assert got == ref.run_cell(cell, methods, 100, seed=8, boot_config=config)
            for method, tally in got.methods.items():
                totals[method] += tally.dropped_replicates
    if cell.n == 3:
        assert totals[Method.HWANG_BOOTSTRAP] > 0


# Rows that fail differently side by side: a normal sample; mean(x) == 0,
# where the pivot method fails; a constant sample, where every resampled
# pivot is degenerate and BCa falls back; and PLUS_MINUS_ONE, where the
# ratio methods keep too few replicates.
MIXED_SAMPLES = (
    _boot_sample(5),
    PairedSample([-2.0, -1.0, 0.5, 1.0, 1.5], [1.0, 2.0, 3.0, 4.0, 5.0]),
    PairedSample([1.0] * 5, [2.0] * 5),
    PLUS_MINUS_ONE,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block_runs", [None, 7], ids=["one_block", "ragged_blocks"])
def test_bootstrap_rows_fail_independently_within_a_block(monkeypatch, block_runs):
    _replace_samples(monkeypatch, lambda run: MIXED_SAMPLES[run % len(MIXED_SAMPLES)])
    cell = SimCell(1.0, 1.0, 5)
    if block_runs is not None:
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_runs * cell.n)
    config = BootstrapConfig(100)
    got = run_cell(cell, BOOTSTRAP, 100, seed=4, boot_config=config)
    assert got == ref.run_cell(cell, BOOTSTRAP, 100, seed=4, boot_config=config)
    hwang = got.methods[Method.HWANG_BOOTSTRAP]
    assert hwang.failures["ZeroDenominator"] == hwang.failures["AllResamplesDegenerate"] == 25
    assert hwang.unbounded_sets > 0
    assert got.methods[Method.BOOTSTRAP_BCA].fallbacks == {OUTSIDE: 25}
    for method in BOOTSTRAP[1:]:  # the rows with mean(x) == 0 in some resamples
        assert got.methods[method].failures == {"TooFewReplicates": 50}


def _counted_draws(monkeypatch):
    draws = []
    draw = bootstrap_module._resample_indices

    def counted(rng, rows, n):
        draws.append(rows)
        return draw(rng, rows, n)

    monkeypatch.setattr(bootstrap_module, "_resample_indices", counted)
    return draws


def test_hwang_and_the_ratio_bootstrap_draw_each_block_once(monkeypatch):
    draws = _counted_draws(monkeypatch)
    config = BootstrapConfig(replications=100)
    cell = SimCell(0.3, 0.3, 10)
    run_cell(cell, (Method.HWANG_BOOTSTRAP, Method.BOOTSTRAP_BCA), 100, seed=1, boot_config=config)
    assert draws == [100] * 100  # one block per run; two before the shared kernel
    # ci's batch of one, in 4 blocks of 27 rows and a ragged one of 4.
    monkeypatch.setattr(bootstrap_module, "_BLOCK_ELEMENTS", 27 * 31)
    draws.clear()
    sample = _boot_sample(31)
    spec = ConfidenceSpec.two_sided(0.95, df=30)
    list(mc.evaluate_methods(sample, BOOTSTRAP[::-1], spec, BootstrapConfig(replications=112)))
    assert draws == [27, 27, 27, 27, 4]


def test_shared_resampling_peak_memory_is_bounded():
    # At n=5000 one (B, n) float matrix alone is 229 MiB at B=6000.
    sample = _boot_sample(5000)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=6000, seed=1)
    tracemalloc.start()
    try:
        results = dict(mc.evaluate_methods(sample, BOOTSTRAP, spec, config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(isinstance(r, RatioCiError) for r in results.values())
    assert peak < 64 * 2**20, peak


# Samples that force each BCa fallback reason on every resampling.
FALLBACK_SAMPLES = {
    # Every resample has the ratio 2: the estimate is below none of them.
    "constant": PairedSample([1.0] * 4, [2.0] * 4),
    # d = y - rho_hat*x = (3, -1, -1, -1): no resampled pivot is below 0.
    "one_sided_pivots": PairedSample([1.0, 2.0, 3.0, 2.0], [4.0, 1.0, 2.0, 1.0]),
    # d = (-3, 1, 1, 1): leaving the first pair out leaves a zero pivot variance.
    "non_finite_jackknife": PairedSample([1.0, 2.0, 3.0, 4.0], [-2.0, 3.0, 4.0, 5.0]),
    "coinciding_jackknife": _boot_sample(20),
}
OUTSIDE = "estimate outside the bootstrap distribution"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, hwang, bca",
    [
        ("constant", {}, {OUTSIDE: 100}),
        ("one_sided_pivots", {OUTSIDE: 100}, {}),
        ("non_finite_jackknife", {"non-finite jackknife values": 100}, {}),
        ("coinciding_jackknife", *[{"all jackknife values coincide": 100}] * 2),
    ],
)
def test_run_cell_counts_each_fallback_reason(monkeypatch, name, hwang, bca):
    sample = FALLBACK_SAMPLES[name]
    _replace_samples(monkeypatch, lambda run: sample)
    if name == "coinciding_jackknife":
        constant = lambda xs, *args: np.full(xs.size, 0.5)  # noqa: E731
        for module in (bootstrap_module, ref):
            monkeypatch.setattr(module, "_jackknife_t0", constant)
            monkeypatch.setattr(module, "_ratio_jackknife", constant)
    cell = SimCell(1.0, 1.0, sample.n)
    config = BootstrapConfig(replications=1000)
    got = run_cell(cell, BOOTSTRAP, 100, seed=2, boot_config=config)
    assert got.methods[Method.HWANG_BOOTSTRAP].fallbacks == hwang
    assert got.methods[Method.BOOTSTRAP_BCA].fallbacks == bca
    assert got.methods[Method.BOOTSTRAP_PERCENTILE].fallbacks == {}
    assert got == ref.run_cell(cell, BOOTSTRAP, 100, seed=2, boot_config=config)
    if name == "constant":
        assert got.methods[Method.HWANG_BOOTSTRAP].failures == {"AllResamplesDegenerate": 100}
    if name == "one_sided_pivots":  # resamples without the first pair are dropped
        assert got.methods[Method.HWANG_BOOTSTRAP].dropped_replicates > 0
