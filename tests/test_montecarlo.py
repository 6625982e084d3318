import math

import numpy as np
import pytest

import ratio_ci.bootstrap as bootstrap
import ratio_ci.montecarlo as mc
import scalar_reference as ref
from ratio_ci import core, methods
from test_kernels import SET_FIELDS, _same
from ratio_ci import (
    BootstrapConfig,
    BootstrapMethod,
    ConfidenceSpec,
    DegenerateVariance,
    DomainError,
    GridSpec,
    Method,
    NonFiniteResult,
    PairedSample,
    RatioCiError,
    SimCell,
    TooFewReplicates,
    error_bar_experiment,
    errorbar_csv_rows,
    fieller_set,
    grid_csv_rows,
    run_cell,
    run_grid,
    summarize,
    thread_cap,
)

CLOSED_FORM = (
    Method.FIELLER,
    Method.TAYLOR,
    Method.INDEX,
    Method.TRIMMED_INDEX,
    Method.ZERO_VARIANCE,
)


# ------------------------------------------------------------------- cells


def test_cell_validation():
    with pytest.raises(DomainError):
        SimCell(cv_x=0.0, cv_y=1.0, n=20)
    with pytest.raises(DomainError):
        SimCell(cv_x=1.0, cv_y=1.0, n=1)
    with pytest.raises(DomainError):
        SimCell(cv_x=1.0, cv_y=1.0, n=20, corr=1.5)
    with pytest.raises(DomainError):
        SimCell(cv_x=1.0, cv_y=1.0, n=20, mean_x=0.0)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            SimCell(cv_x=bad, cv_y=1.0, n=20)
        with pytest.raises(DomainError):
            SimCell(cv_x=1.0, cv_y=bad, n=20)


def test_cell_params_scale_cv_by_mean():
    cell = SimCell(cv_x=0.5, cv_y=0.2, n=10, corr=0.3, mean_x=2.0, mean_y=4.0)
    p = cell.params()
    assert p.sd_x == 1.0 and p.sd_y == pytest.approx(0.8)
    assert p.corr == 0.3
    assert cell.true_rho == 2.0


def test_grid_spec_is_rectangular_row_major():
    spec = GridSpec(cv_x_values=(0.1, 1.0), cv_y_values=(0.2, 0.5, 2.0), n=20)
    cells = spec.cells()
    assert len(cells) == 6
    assert [(c.cv_x, c.cv_y) for c in cells[:3]] == [(0.1, 0.2), (0.1, 0.5), (0.1, 2.0)]
    with pytest.raises(DomainError):
        GridSpec(cv_x_values=(), cv_y_values=(1.0,), n=20)


def test_log_spaced_axis():
    spec = GridSpec.log_spaced(n=20, count=7, low=0.01, high=10.0)
    axis = spec.cv_x_values
    assert len(axis) == 7
    assert axis[0] == pytest.approx(0.01) and axis[-1] == pytest.approx(10.0)
    steps = [math.log(b / a) for a, b in zip(axis, axis[1:])]
    assert all(s == pytest.approx(steps[0], rel=1e-9) for s in steps)


def test_reference_line_positions():
    # cv of the mean reaches 0.5 at cv_x = 0.5*sqrt(n): about 2.2 for n=20
    # and 11.2 for n=500.
    grid20 = run_grid(GridSpec((1.0,), (1.0,), n=20), (Method.FIELLER,), 100, 0)
    grid500 = run_grid(GridSpec((1.0,), (1.0,), n=500), (Method.FIELLER,), 100, 0)
    assert round(grid20.reference_cv_x, 1) == 2.2
    assert round(grid500.reference_cv_x, 1) == 11.2


# --------------------------------------------------------------- run_cell


def test_run_cell_deterministic():
    cell = SimCell(cv_x=0.5, cv_y=0.5, n=15)
    a = run_cell(cell, CLOSED_FORM, runs=200, seed=42)
    b = run_cell(cell, CLOSED_FORM, runs=200, seed=42)
    assert a == b
    c = run_cell(cell, CLOSED_FORM, runs=200, seed=43)
    assert c != a


def test_run_cell_method_subset_invariance():
    # Tallies for a method must not depend on which other methods ran,
    # including the bootstrap ones that consume their own seed stream.
    cell = SimCell(cv_x=0.8, cv_y=0.4, n=12)
    boot = BootstrapConfig(replications=200, seed=0)
    alone = run_cell(cell, (Method.FIELLER,), runs=150, seed=9, boot_config=boot)
    together = run_cell(
        cell,
        (Method.FIELLER, Method.INDEX, Method.BOOTSTRAP_PERCENTILE),
        runs=150,
        seed=9,
        boot_config=boot,
    )
    assert alone.methods[Method.FIELLER] == together.methods[Method.FIELLER]


def test_run_cell_counting_invariants():
    cell = SimCell(cv_x=2.0, cv_y=0.5, n=8)
    res = run_cell(cell, CLOSED_FORM, runs=300, seed=1)
    for tally in res.methods.values():
        assert 0 <= tally.covered <= tally.runs == 300
        assert tally.coverage == tally.covered / 300
        assert 0 <= tally.unbounded_sets <= 300
    # The exact method at cv_x=2, n=8 sits deep in the unbounded regime.
    assert res.methods[Method.FIELLER].unbounded_sets > 0
    # Only the exact inversion can produce unbounded sets.
    for m in (Method.TAYLOR, Method.INDEX, Method.TRIMMED_INDEX, Method.ZERO_VARIANCE):
        assert res.methods[m].unbounded_sets == 0


def test_run_cell_rejects_tiny_run_counts():
    cell = SimCell(cv_x=1.0, cv_y=1.0, n=10)
    with pytest.raises(DomainError):
        run_cell(cell, (Method.FIELLER,), runs=99, seed=0)
    with pytest.raises(DomainError):
        run_cell(cell, (), runs=200, seed=0)


def test_run_cell_with_bootstrap_methods_smoke():
    cell = SimCell(cv_x=0.3, cv_y=0.3, n=10)
    boot = BootstrapConfig(replications=150, seed=0)
    res = run_cell(
        cell,
        (Method.BOOTSTRAP_PERCENTILE, Method.HWANG_BOOTSTRAP),
        runs=100,
        seed=3,
        boot_config=boot,
    )
    assert 0.5 <= res.methods[Method.BOOTSTRAP_PERCENTILE].coverage <= 1.0
    assert 0.5 <= res.methods[Method.HWANG_BOOTSTRAP].coverage <= 1.0


def test_correlation_insensitivity_of_exact_coverage():
    # Coverage stays put across strong negative, zero, and strong positive
    # correlation (the pivot is exactly t distributed regardless).
    covs = []
    for corr in (-0.9, 0.0, 0.9):
        cell = SimCell(cv_x=1.0, cv_y=1.0, n=20, corr=corr)
        res = run_cell(cell, (Method.FIELLER,), runs=2000, seed=7)
        covs.append(res.methods[Method.FIELLER].coverage)
    assert max(covs) - min(covs) < 0.02
    assert all(0.93 <= c <= 0.97 for c in covs)


def test_point_estimator_variability_comparison():
    # Per-pair ratios are wildly variable when the denominator straddles
    # zero; trimming tames the variance but the location stays biased.
    cell = SimCell(cv_x=3.0, cv_y=0.1, n=500)
    res = run_cell(
        cell, (Method.FIELLER, Method.INDEX, Method.TRIMMED_INDEX), runs=300, seed=1
    )
    var_ratio = res.methods[Method.FIELLER].estimate_variance
    var_index = res.methods[Method.INDEX].estimate_variance
    var_trim = res.methods[Method.TRIMMED_INDEX].estimate_variance
    assert var_index > var_ratio
    assert var_trim < var_index
    assert res.methods[Method.TRIMMED_INDEX].coverage < 0.90


def test_failed_ratio_bootstrap_is_resampled_once(monkeypatch):
    draws = []
    draw = bootstrap._resample_indices

    def counted(rng, rows, n):
        draws.append(rows)
        return draw(rng, rows, n)

    monkeypatch.setattr(bootstrap, "_resample_indices", counted)
    # 13 of these 100 resamples have mean(x) == 0, and so no ratio.
    sample = PairedSample([-1.0, 1.0, -1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    spec = ConfidenceSpec.two_sided(0.95, df=4)
    config = BootstrapConfig(replications=100, seed=3)
    methods = (Method.BOOTSTRAP_PERCENTILE, Method.FIELLER, Method.BOOTSTRAP_BCA)
    results = dict(mc.evaluate_methods(sample, methods, spec, config))
    assert draws == [100]
    error = results[Method.BOOTSTRAP_PERCENTILE]
    assert isinstance(error, TooFewReplicates)
    assert str(error) == "87 retained replications, need 100"
    assert results[Method.BOOTSTRAP_BCA] is error
    assert results[Method.FIELLER] == fieller_set(summarize(sample), spec)


def test_evaluate_methods_summarizes_the_sample_once(monkeypatch):
    calls = []

    def counted(module):
        real = module._summarize_rows

        def summarize_rows(xs, ys):
            calls.append(module.__name__)
            return real(xs, ys)

        monkeypatch.setattr(module, "_summarize_rows", summarize_rows)

    for module in (core, methods, mc):
        counted(module)
    sample = PairedSample([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 6.0])
    spec = ConfidenceSpec.two_sided(0.95, df=4)
    requested = CLOSED_FORM + (Method.BOOTSTRAP_PERCENTILE,)
    results = dict(mc.evaluate_methods(sample, requested, spec, BootstrapConfig(replications=100)))
    assert list(results) == list(requested)
    assert len(calls) == 1, calls


def test_zero_x_draws_are_redrawn(monkeypatch):
    cell = SimCell(cv_x=1.0, cv_y=1.0, n=6)
    real = mc._draw_pairs
    calls = {"count": 0}

    def flaky(params, n, rng):
        calls["count"] += 1
        sample = real(params, n, rng)
        if calls["count"] <= 2:
            xs = sample.xs.copy()
            xs[0] = 0.0
            return PairedSample(xs, sample.ys)
        return sample

    monkeypatch.setattr(mc, "_draw_pairs", flaky)
    sample, boot_seed, attempts = mc._draw_run(cell, seed=5, run=0)
    assert attempts == 2
    assert not np.any(sample.xs == 0.0)
    assert isinstance(boot_seed, int)


def test_redraw_tally_reaches_coverage_result(monkeypatch):
    cell = SimCell(cv_x=1.0, cv_y=1.0, n=6)
    real = mc._draw_pairs
    calls = {"count": 0}

    def flaky(params, n, rng):
        calls["count"] += 1
        sample = real(params, n, rng)
        if calls["count"] == 1:
            xs = sample.xs.copy()
            xs[0] = 0.0
            return PairedSample(xs, sample.ys)
        return sample

    monkeypatch.setattr(mc, "_draw_pairs", flaky)
    res = run_cell(cell, (Method.FIELLER,), runs=100, seed=5)
    assert res.redraws == 1


# ---------------------------------------------------------------- run_grid


def test_grid_independent_of_thread_count():
    spec = GridSpec(cv_x_values=(0.3, 1.0), cv_y_values=(0.3, 1.0), n=10)
    one = run_grid(spec, (Method.FIELLER, Method.INDEX), 150, master_seed=5, threads=1)
    many = run_grid(spec, (Method.FIELLER, Method.INDEX), 150, master_seed=5, threads=4)
    assert grid_csv_rows(one) == grid_csv_rows(many)
    assert one.results == many.results


def test_grid_cells_have_distinct_seeds():
    spec = GridSpec(cv_x_values=(0.5, 0.5), cv_y_values=(0.5,), n=10)
    grid = run_grid(spec, (Method.FIELLER,), 100, master_seed=0)
    seeds = [r.seed for r in grid.results]
    assert len(set(seeds)) == len(seeds)


def test_grid_csv_layout():
    spec = GridSpec(cv_x_values=(0.3,), cv_y_values=(0.3, 3.0), n=10)
    grid = run_grid(spec, (Method.FIELLER, Method.TAYLOR), 120, master_seed=2)
    rows = grid_csv_rows(grid)
    assert rows[0] == [
        "cv_x",
        "cv_y",
        "n",
        "corr",
        "method",
        "runs",
        "covered",
        "coverage",
        "unbounded_sets",
        "redraws",
    ]
    assert len(rows) == 1 + 2 * 2
    # Floats are serialized with repr: shortest round-trip text.
    assert rows[1][0] == "0.3"
    assert rows[1][5] == "120"


# -------------------------------------------------------------- error bars


def test_error_bar_experiment_layout():
    cell = SimCell(cv_x=0.15, cv_y=0.10, n=50)
    exp = error_bar_experiment(cell, runs=25, seed=3)
    assert len(exp.rows) == 50
    first, second = exp.rows[:25], exp.rows[25:]
    assert all(r.method is Method.FIELLER for r in first)
    assert all(r.method is Method.INDEX for r in second)
    for half in (first, second):
        estimates = [r.estimate for r in half]
        assert estimates == sorted(estimates)
    for r in exp.rows:
        assert r.covers_true == r.confidence_set.contains(cell.true_rho)
    assert exp.significant_deviations(Method.FIELLER) == sum(
        1 for r in first if not r.covers_true
    )


def test_error_bar_determinism_and_runs_guard():
    cell = SimCell(cv_x=0.5, cv_y=0.5, n=30)
    a = error_bar_experiment(cell, runs=10, seed=1)
    b = error_bar_experiment(cell, runs=10, seed=1)
    assert errorbar_csv_rows(a) == errorbar_csv_rows(b)
    with pytest.raises(DomainError):
        error_bar_experiment(cell, runs=0, seed=1)


def test_errorbar_csv_layout():
    cell = SimCell(cv_x=3.0, cv_y=0.5, n=4)
    exp = error_bar_experiment(cell, runs=30, seed=11)
    rows = errorbar_csv_rows(exp)
    assert rows[0] == ["method", "run", "estimate", "lower", "upper", "case", "covers_true"]
    assert len(rows) == 61
    by_case = {r[5] for r in rows[1:]}
    # cv_x=3 at n=4 forces plenty of unbounded exact sets.
    assert "whole_line" in by_case or "unbounded_exclusive" in by_case
    for r in rows[1:]:
        if r[5] != "bounded":
            assert r[3] == "" and r[4] == ""
        else:
            assert float(r[3]) <= float(r[4])
        assert r[6] in ("true", "false")


def _error_bar_loop(cell, runs, seed):
    """error_bar_experiment's rows as (method, run, result), by a per-run loop
    over the scalar reference; raises the first error, Fieller first."""
    spec = ConfidenceSpec.two_sided(0.95, df=cell.n - 1)
    per_method = {Method.FIELLER: [], Method.INDEX: []}
    for run in range(runs):
        sample, _, _ = mc._draw_run(cell, seed, run)
        per_method[Method.FIELLER].append((run, ref.fieller_set(ref.summarize(sample), spec)))
        per_method[Method.INDEX].append((run, ref.index_limits(sample, spec)))
    return [
        (method, run, result)
        for method, rows in per_method.items()
        for run, result in sorted(rows, key=lambda row: row[1].estimate)
    ]


@pytest.mark.parametrize(
    "cell, runs, seed",
    [
        (SimCell(3.0, 0.1, 20), 40, 1),
        (SimCell(3.0, 0.1, 500), 60, 2),  # two blocks, the second ragged
        (SimCell(3.0, 0.5, 4), 30, 11),
    ],
)
def test_error_bar_experiment_equals_the_per_run_loop(cell, runs, seed):
    rows = error_bar_experiment(cell, runs=runs, seed=seed).rows
    expected = _error_bar_loop(cell, runs, seed)
    assert len(rows) == len(expected) == 2 * runs
    for row, (method, run, result) in zip(rows, expected):
        assert (row.method, row.run) == (method, run)
        assert _same(row.estimate, result.estimate)
        assert row.confidence_set.case is result.confidence_set.case
        for name in SET_FIELDS:
            assert _same(getattr(row.confidence_set, name), getattr(result.confidence_set, name))
        assert row.covers_true is result.confidence_set.contains(cell.true_rho)


# Index fails: y/x overflows at x = 5e-324.
INDEX_FAILS = PairedSample([5e-324, 1.0, 2.0, 1.5, 0.5, 1.2], [1.0] * 6)
# Fieller fails: var_mean_x underflows to 0 with mean_x = 0, and y is constant.
FIELLER_FAILS = PairedSample([1e-300, -1e-300] * 3, [1e-300] * 6)
# Both fail: as above, but the per-pair ratios overflow too.
BOTH_FAIL = PairedSample([1e-300, -1e-300] * 3, [1e10] * 6)


@pytest.mark.parametrize(
    "bad, block_runs, error",
    [
        ({5: FIELLER_FAILS, 3: INDEX_FAILS}, None, NonFiniteResult),
        ({9: INDEX_FAILS, 6: BOTH_FAIL}, 4, DegenerateVariance),  # in the second block
        ({2: INDEX_FAILS, 1: FIELLER_FAILS}, 1, DegenerateVariance),
    ],
    ids=["index_first", "both_in_the_second_block", "fieller_first_in_blocks_of_one"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_error_bar_experiment_raises_the_first_failing_run(monkeypatch, bad, block_runs, error):
    cell = SimCell(1.0, 1.0, 6)
    real = mc._draw_run

    def draw_run(cell, seed, run, *args):
        sample, boot_seed, attempts = real(cell, seed, run, *args)
        return bad.get(run, sample), boot_seed, attempts

    monkeypatch.setattr(mc, "_draw_run", draw_run)
    if block_runs is not None:
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_runs * cell.n)
    with pytest.raises(RatioCiError) as expected:
        _error_bar_loop(cell, 12, 0)
    with pytest.raises(error) as got:
        error_bar_experiment(cell, runs=12, seed=0)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


# -------------------------------------------------------------- thread cap


def test_thread_cap_sources(monkeypatch):
    assert thread_cap(3) == 3
    monkeypatch.setenv("RATIO_CI_THREADS", "2")
    assert thread_cap() == 2
    assert thread_cap(5) == 5  # explicit argument wins over the environment
    monkeypatch.setenv("RATIO_CI_THREADS", "zebra")
    with pytest.raises(DomainError):
        thread_cap()
    monkeypatch.delenv("RATIO_CI_THREADS")
    assert thread_cap() >= 1
    with pytest.raises(DomainError):
        thread_cap(0)
