"""The batch kernels of the closed-form methods against the scalar reference
in scalar_reference.py: bit equality per row, and equal run_cell tallies."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
)
from ratio_ci.core import _summarize_rows
from ratio_ci.methods import (
    _fieller_rows,
    _index_rows,
    _taylor_rows,
    _trimmed_index_rows,
    _zero_variance_rows,
)

SET_FIELDS = ("lower", "upper", "excluded_lower", "excluded_upper")


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
    assert got.confidence_set.case is expected.confidence_set.case
    for name in SET_FIELDS:
        assert _same(getattr(got.confidence_set, name), getattr(expected.confidence_set, name))


# ------------------------------------------------------- kernels, row by row

ROW_KINDS = ("normal", "boundary", "constant_x", "constant_y", "one_zero_x", "collinear")


@st.composite
def batches(draw):
    """(runs, n) samples from one bivariate normal, with some rows reshaped:
    x shifted so that mean_x^2 / var_mean_x lies within 1e-9 relative of
    q^2, constant x (vx == 0, zero included), constant y, one x_i = 0, or
    y = k*x, whose discriminant is zero up to rounding."""
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
        Method.TAYLOR: (_taylor_rows(summaries, q), lambda i: ref.taylor_limits(stats[i], spec)),
        Method.INDEX: (_index_rows(xs, ys, spec), lambda i: ref.index_limits(samples[i], spec)),
        Method.TRIMMED_INDEX: (
            _trimmed_index_rows(xs, ys, spec, trim),
            lambda i: ref.trimmed_index_limits(samples[i], spec, trim),
        ),
        Method.ZERO_VARIANCE: (
            _zero_variance_rows(summaries, q),
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
                v for v in (getattr(cset, name) for name in SET_FIELDS) if v is not None
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


# ------------------------------------------------------ run_cell, cell by cell

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


def test_run_cell_mixed_with_bootstrap_equals_the_per_run_loop():
    cell = SimCell(0.3, 0.3, 10)
    methods = CLOSED_FORM + (Method.HWANG_BOOTSTRAP, Method.BOOTSTRAP_PERCENTILE)
    boot = BootstrapConfig(replications=150, seed=0)
    got = run_cell(cell, methods, 100, seed=4, boot_config=boot)
    assert got == ref.run_cell(cell, methods, 100, seed=4, boot_config=boot)


def test_run_cell_equals_the_per_run_loop_through_a_redraw(monkeypatch):
    real = mc._draw_pairs
    calls = {"count": 0}

    def flaky(params, n, rng):
        calls["count"] += 1
        sample = real(params, n, rng)
        if calls["count"] in (5, 6):  # run 4 needs two redraws
            xs = sample.xs.copy()
            xs[1] = 0.0
            return PairedSample(xs, sample.ys)
        return sample

    cell = SimCell(1.0, 1.0, 6)
    monkeypatch.setattr(mc, "_draw_pairs", flaky)
    got = run_cell(cell, CLOSED_FORM, 100, seed=5)
    calls["count"] = 0
    expected = ref.run_cell(cell, CLOSED_FORM, 100, seed=5)
    assert got.redraws == 2
    assert got == expected


def test_block_size_changes_no_tally(monkeypatch):
    cell = SimCell(3.0, 1.0, 5)
    whole = run_cell(cell, CLOSED_FORM, 101, seed=6)
    monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * cell.n)  # 15 blocks, the last ragged
    assert run_cell(cell, CLOSED_FORM, 101, seed=6) == whole


def test_run_cell_peak_memory_does_not_grow_with_runs():
    # Without blocks the stacked runs alone would take 2 x 300 x 20000 x 8 B
    # = 96 MB; with them a block holds one row at this n.
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


def test_run_cell_records_failures_of_the_per_run_methods(monkeypatch):
    def degenerate(*args):
        raise AllResamplesDegenerate("every resample was degenerate")

    monkeypatch.setattr(mc, "ratio_bootstrap_results", degenerate)
    methods = (Method.FIELLER, Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)
    boot = BootstrapConfig(replications=100)
    res = run_cell(SimCell(1.0, 1.0, 5), methods, 100, seed=0, boot_config=boot)
    for method in methods[1:]:
        assert res.methods[method].failures == {"AllResamplesDegenerate": 100}
        assert res.methods[method].covered == 0
    assert res.methods[Method.FIELLER].failures == {}
