import csv
import io
import itertools
import math
import multiprocessing
import os
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ratio_ci.bootstrap as bootstrap
import ratio_ci.montecarlo as mc
import scalar_reference as ref
from ratio_ci import cli, core, errors, methods
from test_kernels import (
    _assert_same_set,
    _fallback_warnings,
    _replace_samples,
    _same,
    _zero_x,
)
from ratio_ci import (
    BootstrapConfig,
    ConfidenceSpec,
    DegenerateVariance,
    DomainError,
    GridSpec,
    Method,
    NonFiniteInput,
    NonFiniteResult,
    PairedSample,
    RatioCiError,
    SimCell,
    TooFewObservations,
    TooFewReplicates,
    error_bar_experiment,
    fieller_set,
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


def _printed(records):
    """The rows of the CSV that the command line prints for the records."""
    return list(csv.reader(io.StringIO(cli._csv_text(records))))


# ------------------------------------------------------------------- cells


def test_cell_validation():
    with pytest.raises(DomainError):
        SimCell(cv_x=0.0, cv_y=1.0, n=20)
    with pytest.raises(DomainError):
        SimCell(cv_x=1.0, cv_y=1.0, n=1)
    with pytest.raises(DomainError):
        SimCell(cv_x=1.0, cv_y=1.0, n=20, corr=1.5)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            SimCell(cv_x=bad, cv_y=1.0, n=20)
        with pytest.raises(DomainError):
            SimCell(cv_x=1.0, cv_y=bad, n=20)


def test_fractional_n_is_rejected():
    # int() used to truncate it: SimCell(0.3, 0.3, 20.7).n was 20, and a
    # GridSpec kept n = 20.7 while its cells were drawn at n = 20.
    with pytest.raises(DomainError, match="n must be an integer"):
        SimCell(0.3, 0.3, 20.7)
    with pytest.raises(DomainError, match="n must be an integer"):
        GridSpec((0.3,), (0.3,), 20.7)
    spec = GridSpec((0.3,), (0.3,), np.int64(20))
    assert type(spec.n) is int and spec.cells()[0] == SimCell(0.3, 0.3, 20)


def test_grid_spec_is_rectangular_row_major():
    spec = GridSpec(cv_x_values=(0.1, 1.0), cv_y_values=(0.2, 0.5, 2.0), n=20)
    cells = spec.cells()
    assert len(cells) == 6
    assert [(c.cv_x, c.cv_y) for c in cells[:3]] == [(0.1, 0.2), (0.1, 0.5), (0.1, 2.0)]
    with pytest.raises(DomainError):
        GridSpec(cv_x_values=(), cv_y_values=(1.0,), n=20)


@pytest.mark.parametrize(
    "axes, n, corr, message",
    [
        (((1.0, 0.0), (1.0,)), 20, 0.0, "coefficients of variation must be finite and positive"),
        (((1.0,), (1.0,)), 1, 0.0, "need at least two pairs per sample"),
        (((1.0,), (1.0,)), 20, 1.5, r"correlation must lie in \[-1, 1\]"),
    ],
    ids=["cv", "n", "corr"],
)
def test_grid_spec_with_an_invalid_cell_does_not_construct(axes, n, corr, message):
    # Such a grid used to construct and fail only in cells(), when run.
    with pytest.raises(DomainError, match=message):
        GridSpec(*axes, n, corr=corr)

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

    # Every module of the package that could summarize a sample.
    for module in (core, methods, bootstrap, mc):
        if hasattr(module, "_summarize_rows"):
            counted(module)
    sample = PairedSample([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 6.0])
    spec = ConfidenceSpec.two_sided(0.95, df=4)
    requested = CLOSED_FORM + (Method.BOOTSTRAP_PERCENTILE,)
    results = dict(mc.evaluate_methods(sample, requested, spec, BootstrapConfig(replications=100)))
    assert list(results) == list(requested)
    assert len(calls) == 1, calls


def test_evaluate_methods_bootstraps_with_the_default_config_when_given_none():
    sample = PairedSample([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 6.0])
    spec = ConfidenceSpec.two_sided(0.95, df=4)
    ((_, got),) = mc.evaluate_methods(sample, [Method.HWANG_BOOTSTRAP], spec)
    ((_, want),) = mc.evaluate_methods(sample, [Method.HWANG_BOOTSTRAP], spec, BootstrapConfig())
    assert not isinstance(got, RatioCiError)
    assert got == want


@pytest.mark.parametrize(
    "order",
    [[m] for m in Method] + [list(Method)[::-1] + [Method.HWANG_BOOTSTRAP]],
    ids=[m.value for m in Method] + ["all-reversed-and-a-repeat"],
)
def test_evaluate_methods_reads_a_name_as_its_method(order):
    # Method is a str enum, so a name finds its kernel; the bootstrap kernel
    # must then still tell Hwang's method from the ratio methods.
    rng = np.random.default_rng(7)
    sample = PairedSample(rng.normal(2.0, 0.4, 30), rng.normal(3.0, 0.6, 30))
    spec = ConfidenceSpec.two_sided(0.95, df=29)
    config = BootstrapConfig(replications=200, seed=1)
    want = list(mc.evaluate_methods(sample, order, spec, config))
    got = list(mc.evaluate_methods(sample, [m.value for m in order], spec, config))
    assert got == want
    for (method, result), requested in zip(got, order):
        assert not isinstance(result, RatioCiError)
        assert method is requested and result.method is requested


@pytest.mark.parametrize("method", list(Method))
def test_evaluate_methods_on_one_pair_raises_too_few_observations(method):
    sample = PairedSample([2.0], [3.0])
    spec = ConfidenceSpec.two_sided(0.95, df=1)
    with pytest.raises(TooFewObservations, match="^need at least two pairs to estimate variances$"):
        list(mc.evaluate_methods(sample, [method], spec, BootstrapConfig()))


def test_zero_x_draws_are_redrawn(monkeypatch):
    cell = SimCell(cv_x=1.0, cv_y=1.0, n=6)
    _zero_x(monkeypatch, run=0, attempts=(0, 1))
    xs, ys, attempts, boot_seeds = mc._draw_run(cell, seed=5, start=0, rows=1, boot=True)
    assert attempts == 2
    assert not np.any(xs == 0.0)
    assert isinstance(boot_seeds[0], int)


def test_redraw_tally_reaches_coverage_result(monkeypatch):
    cell = SimCell(cv_x=1.0, cv_y=1.0, n=6)
    _zero_x(monkeypatch, run=0, attempts=(0,))
    res = run_cell(cell, (Method.FIELLER,), runs=100, seed=5)
    assert res.redraws == 1


# Entropy of SeedSequence([seed, run, attempt]) longer than its four-word
# pool reaches mix_entropy's extra loop: seeds of 2^64 or more, and runs of
# 2^32 or more beside seeds of 2^32 or more.
SEEDS = st.integers(0, 2**130 - 1)
RUNS = st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=6)
ATTEMPTS = st.integers(0, 4)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, runs=RUNS, attempt=ATTEMPTS)
@example(seed=0, runs=[0, 1, 2**32 - 1, 2**32], attempt=0)
@example(seed=2**32 + 5, runs=[2**32 - 1, 2**32, 2**40 - 1], attempt=2)
@example(seed=2**64 - 1, runs=[0, 2**32 + 7], attempt=4)
@example(seed=2**64 + 5, runs=[0, 7, 2**33], attempt=1)
def test_run_streams_equal_numpys_seeding(seed, runs, attempt):
    got = mc._run_streams(seed, np.array(runs, dtype=np.uint64), attempt)
    assert len(got) == len(runs)
    for run, stream in zip(runs, got):
        bits = np.random.PCG64(np.random.SeedSequence([seed, run, attempt]))
        assert stream == (bits.state["state"]["state"], bits.state["state"]["inc"])


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, runs=RUNS, attempt=ATTEMPTS, n=st.integers(1, 40))
@example(seed=2**64 + 5, runs=[0, 2**32], attempt=0, n=20)
def test_drawn_normals_and_boot_seeds_equal_default_rng(seed, runs, attempt, n):
    z, boot_seeds = mc._draw_normals(seed, np.array(runs, dtype=np.uint64), attempt, n, True)
    assert z.shape == (len(runs), 2, n)
    for row, run in enumerate(runs):
        rng = np.random.default_rng([seed, run, attempt])
        assert z[row].tobytes() == rng.standard_normal((2, n)).tobytes()
        assert boot_seeds[row] == int(rng.integers(0, 2**63))


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 + 5])
def test_a_block_equals_the_per_run_draws(seed):
    cell = SimCell(0.5, 2.0, 7, corr=-0.3)
    start = 2**32 - 3  # runs of one and of two words in one block
    xs, ys, redraws, boot_seeds = mc._draw_run(cell, seed, start, 6, True)
    assert redraws == 0
    for i in range(6):
        sample, boot_seed, _ = ref._draw_run(cell, seed, start + i)
        assert xs[i].tobytes() == sample.xs.tobytes()
        assert ys[i].tobytes() == sample.ys.tobytes()
        assert boot_seeds[i] == boot_seed
    assert mc._draw_run(cell, seed, start, 6, False)[3] == []


# Pinned at the per-run draw: a run with a non-finite value raises the error
# its PairedSample raises, x checked before y.
@pytest.mark.parametrize(
    "cell, message",
    [
        (SimCell(1e308, 1.0, 5), "xs contains non-finite values"),
        (SimCell(1.0, 1e308, 5), "ys contains non-finite values"),
    ],
    ids=["xs", "ys"],
)
def test_non_finite_draws_raise(cell, message):
    with pytest.raises(NonFiniteInput) as error:
        run_cell(cell, [Method.FIELLER], 100, 0)
    assert str(error.value) == message
    with pytest.raises(NonFiniteInput) as error:
        error_bar_experiment(cell)
    assert str(error.value) == message


# The library's counts and seeds are read as BootstrapConfig, SimCell and
# GridSpec read theirs: a non-integer or a negative seed is a DomainError.
_CELL, _GRID = SimCell(1.0, 1.0, 5), GridSpec((1.0,), (1.0,), 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_cell(_CELL, [Method.FIELLER], runs=150.0, seed=0),
        lambda: run_cell(_CELL, [Method.FIELLER], runs=150, seed=1.5),
        lambda: run_cell(_CELL, [Method.FIELLER], 100, -1),
        lambda: error_bar_experiment(_CELL, runs=2.5),
        lambda: error_bar_experiment(_CELL, runs=3, seed=2.0),
        lambda: error_bar_experiment(_CELL, runs=3, seed=-2),
        lambda: run_grid(_GRID, [Method.FIELLER], 100, master_seed=1.5),
        lambda: run_grid(_GRID, [Method.FIELLER], 100, master_seed=-1),
        lambda: thread_cap(1.5),
    ],
    ids=[
        "run_cell-float-runs",
        "run_cell-float-seed",
        "run_cell-negative-seed",
        "errorbars-float-runs",
        "errorbars-float-seed",
        "errorbars-negative-seed",
        "run_grid-float-master-seed",
        "run_grid-negative-master-seed",
        "thread_cap-float",
    ],
)
def test_counts_and_seeds_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_fieller_and_zero_variance_cover_at_their_exact_rates():
    # Under bivariate normality the means are independent of the sample
    # covariance, so two coverages are closed forms. Fieller's pivot T0 at
    # the true ratio is t_{n-1}: it covers at the level exactly.
    # Zero-variance covers iff |ybar - rho*xbar| <= q*s_y/sqrt(n), that is
    # iff |t_{n-1}| <= q*sigma_y/sigma_d with sigma_d^2 = var(y - rho*x),
    # which reads the draw's correlation. scipy is the referee. The bounds
    # were fixed before the first run, at p = 1e-4: chi^2 on the sum of
    # z^2 over the 192 (cell, method) pairs, and Bonferroni on max |z|.
    from scipy import stats

    level, runs = 0.95, 2000
    axis = (0.1, 0.3, 1.0, 3.0)
    zs = []
    for seed, (cv_x, cv_y, n, corr) in enumerate(
        itertools.product(axis, axis, (5, 20, 100), (0.0, 0.6))
    ):
        cell = SimCell(cv_x=cv_x, cv_y=cv_y, n=n, corr=corr)
        result = run_cell(cell, (Method.FIELLER, Method.ZERO_VARIANCE), runs, seed, level=level)
        # Unit means: the SDs are the CVs, and the true ratio is 1.
        sd_x, sd_y, rho = cv_x, cv_y, 1.0
        sd_d = math.sqrt(sd_y**2 - 2 * rho * corr * sd_x * sd_y + rho**2 * sd_x**2)
        q = stats.t.isf(0.5 * (1 - level), n - 1)
        exact = {
            Method.FIELLER: level,
            Method.ZERO_VARIANCE: 1 - 2 * stats.t.sf(q * sd_y / sd_d, n - 1),
        }
        for method, rate in exact.items():
            covered = result.methods[method].covered
            zs.append((covered / runs - rate) / math.sqrt(rate * (1 - rate) / runs))
    zs = np.array(zs)
    assert zs.size == 192
    assert (zs**2).sum() < stats.chi2.isf(1e-4, zs.size)
    assert np.abs(zs).max() < stats.norm.isf(1e-4 / (2 * zs.size))


# ---------------------------------------------------------------- run_grid


def test_grid_independent_of_thread_count(forced_pool):
    spec = GridSpec(cv_x_values=(0.3, 1.0), cv_y_values=(0.3, 1.0), n=10)
    one = run_grid(spec, (Method.FIELLER, Method.INDEX), 150, master_seed=5, threads=1)
    assert not forced_pool()
    many = run_grid(spec, (Method.FIELLER, Method.INDEX), 150, master_seed=5, threads=4)
    assert forced_pool()
    assert _printed(cli._grid_records(one)) == _printed(cli._grid_records(many))
    assert one.results == many.results


def test_errors_survive_pickling():
    # A cell's error reaches run_grid's caller pickled from its worker.
    classes = [
        c
        for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, (errors.RatioCiError, errors.DegenerateJackknife))
    ]
    assert errors.ZeroIndividualDenominator in classes and errors.DegenerateJackknife in classes
    for cls in classes:
        exc = cls([3, 0]) if cls is errors.ZeroIndividualDenominator else cls("a message")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)  # ZeroIndividualDenominator's indices


# At n = 4 the BCa step falls back on three runs of this grid.
_FALLBACK_GRID = GridSpec((0.3, 3.0), (0.1, 1.0), 4)
_FALLBACK_METHODS = (Method.HWANG_BOOTSTRAP, Method.BOOTSTRAP_BCA)
_FALLBACK = (
    "estimate outside the bootstrap distribution in 3 of 400 bootstrap_bca runs; "
    "falling back to percentiles in those runs"
)


def _grid_warnings(threads: int, always: bool) -> tuple[tuple, list[tuple]]:
    """The fallback grid's results and the warnings it let through."""
    config = BootstrapConfig(100)
    with warnings.catch_warnings(record=True) as caught:
        if always:
            warnings.simplefilter("always")
        grid = run_grid(_FALLBACK_GRID, _FALLBACK_METHODS, 100, 5, config, threads=threads)
    return grid.results, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("always", [True, False], ids=["always", "default-filters"])
def test_grid_warnings_reach_the_caller_whatever_the_workers(forced_pool, always):
    # One warning per method and reason, built from the summed counts after
    # the merge and issued from the line that called run_grid; the default
    # filters show each of them, as their messages differ.
    results, one = _grid_warnings(1, always)
    assert [w[:2] for w in one] == _fallback_warnings(results, 400) == [(_FALLBACK, RuntimeWarning)]
    assert all(w[2] == __file__ for w in one)
    assert not forced_pool()
    assert _grid_warnings(2, always) == (results, one)
    assert forced_pool()


def test_a_daemonic_process_runs_its_jobs_itself(forced_pool):
    # A daemonic process cannot start one, so it makes every record of its
    # grid of many jobs itself, and issues the same warnings.
    cells, config = _FALLBACK_GRID.cells(), BootstrapConfig(100)
    assert len(mc._jobs(cells, 100, _FALLBACK_METHODS, config, 2)) > 1
    results, caught = _grid_warnings(1, False)
    assert not forced_pool()
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=lambda: send.send(_grid_warnings(2, False)), daemon=True)
    child.start()
    assert receive.poll(120)
    got = receive.recv()
    child.join()
    assert child.exitcode == 0
    assert got == (results, caught) and [w[:2] for w in caught] == [(_FALLBACK, RuntimeWarning)]
    assert forced_pool() == {child.pid}


@pytest.mark.parametrize("threads", [1, 2])
def test_an_error_filter_raises_the_fallback_out_of_run_grid(forced_pool, threads):
    config = BootstrapConfig(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning) as raised:
            run_grid(_FALLBACK_GRID, _FALLBACK_METHODS, 100, 5, config, threads=threads)
    assert type(raised.value) is RuntimeWarning
    assert str(raised.value) == _FALLBACK
    assert bool(forced_pool()) == (threads == 2)
    assert multiprocessing.active_children() == []


def test_jobs_end_where_a_block_end_meets_a_share_exactly():
    # 10 000 runs in 14 shares: share 7 ends with the first cell, whose
    # 5000 runs end a block of 819 runs exactly, so no job spans both cells.
    cells = GridSpec((0.1,), (0.3, 1.0), 20).cells()
    jobs = mc._jobs(cells, 5000, (Method.HWANG_BOOTSTRAP,), BootstrapConfig(2000), 2)
    assert len(jobs) == 14
    assert all(len(job) == 1 for job in jobs)
    assert [piece for job in jobs for piece in job][6:8] == [(0, 4914, 5000), (1, 0, 819)]


def _jobs_ending_at(ends: list[int], runs: int) -> list[list[tuple[int, int, int]]]:
    """The jobs, as _jobs lists them, that end after ends[k] of the runs of
    cells of `runs` runs each, counted in cell and run order."""
    jobs, start = [], 0
    for end in ends:
        job = []
        while start < end:
            cell, first = divmod(start, runs)
            job.append((cell, first, min(end - cell * runs, runs)))
            start = cell * runs + job[-1][2]
        jobs.append(job)
    return jobs


def test_the_benchmark_and_acceptance_grids_keep_their_jobs():
    # The job lists at a cap of 2 that perfbench's sim-closed and sim-boot
    # and acceptance criteria 4 and 5 run on, as _run_seconds cuts them
    # today; a refit of it shows here which of them it moves.
    boot, hwang = BootstrapConfig(2000), (Method.HWANG_BOOTSTRAP,)
    default = cli._build_parser().parse_args(["simulate"])
    cells = GridSpec(default.cv_x, default.cv_y, default.n).cells()
    assert mc._jobs(cells, 500, tuple(default.methods), None, 2) == [
        [(i, 0, 500) for i in range(49)]
    ]
    sim_boot = GridSpec((0.3, 3.0), (0.1, 1.0), 500).cells()
    methods = (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA, Method.HWANG_BOOTSTRAP)
    assert mc._jobs(sim_boot, 100, methods, boot, 2) == [
        [piece] for c in range(4) for piece in ((c, 0, 64), (c, 64, 100))
    ]
    axes = (0.3, 1.0, 3.0)
    assert mc._jobs(GridSpec(axes, axes, 500).cells(), 500, hwang, boot, 2) == _jobs_ending_at(
        [96, 160, 224, 288, 352, 448, 500, 564, 660, 724, 788, 852, 916, 1000, 1064, 1128,
         1224, 1288, 1352, 1416, 1480, 1564, 1628, 1692, 1788, 1852, 1916, 1980, 2064, 2128,
         2192, 2256, 2352, 2416, 2480, 2532, 2628, 2692, 2756, 2820, 2884, 2980, 3032, 3096,
         3192, 3256, 3320, 3384, 3448, 3532, 3596, 3660, 3756, 3820, 3884, 3948, 4032, 4096,
         4160, 4224, 4320, 4384, 4448, 4500],
        500,
    )
    ratio_boot = (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)
    for cell in (SimCell(0.15, 0.10, 500), SimCell(3.0, 0.1, 500)):
        assert mc._jobs([cell], 2000, ratio_boot, boot, 2) == _jobs_ending_at(
            [*range(64, 1345, 64), *range(1376, 1953, 64), 2000], 2000
        )


def test_one_cell_grid_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    grid = run_grid(GridSpec((0.5,), (0.5,), 10), (Method.FIELLER,), 100, 0, threads=4)
    assert len(grid.results) == 1
    run_grid(GridSpec((0.5, 1.0), (0.5,), 10), (Method.FIELLER,), 100, 0, threads=1)


def test_no_worker_outlives_run_grid(forced_pool):
    spec = GridSpec((0.5, 1.0), (0.5,), 10)
    run_grid(spec, (Method.FIELLER,), 100, 0, threads=2)
    assert forced_pool()
    assert multiprocessing.active_children() == []
    # Every draw of x overflows, so both cells raise in their workers.
    with pytest.raises(NonFiniteInput, match="xs contains non-finite values"):
        run_grid(GridSpec((1e308, 1e308), (1.0,), 5), (Method.FIELLER,), 100, 0, threads=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "cell, methods, config",
    [
        (
            SimCell(3.0, 0.1, 20),
            (Method.HWANG_BOOTSTRAP, Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA),
            BootstrapConfig(100),
        ),
        (SimCell(1.0, 0.5, 10), CLOSED_FORM, None),
    ],
    ids=["bootstrap", "closed_form"],
)
@pytest.mark.filterwarnings("ignore:estimate outside the bootstrap distribution")
def test_any_split_of_the_runs_gives_the_same_numbers(
    monkeypatch, forced_pool, cpus, cell, methods, config
):
    # Blocks of 7 or 40 runs, in jobs of one block or of about a third of
    # the work, cut the runs where the whole cell's one block does not.
    spec = GridSpec((cell.cv_x,), (cell.cv_y, 2 * cell.cv_y), cell.n)
    cpus(1)
    whole = run_cell(cell, methods, 150, 7, boot_config=config)
    grid = run_grid(spec, methods, 150, 3, config)
    third = 150 * mc._run_seconds(cell.n, methods, config) / 3
    for block_runs, job_seconds, workers in itertools.product((7, 40), (1e-12, third), (1, 2, 4)):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_runs * cell.n)
        monkeypatch.setattr(mc, "_JOB_SECONDS", job_seconds)
        cpus(workers)
        assert run_cell(cell, methods, 150, 7, boot_config=config) == whole
        split = run_grid(spec, methods, 150, 3, config)
        assert split.results == grid.results
        assert _printed(cli._grid_records(split)) == _printed(cli._grid_records(grid))
    assert forced_pool()


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0)], ids=["xs_first", "ys_first"])
def test_a_split_cell_raises_the_first_failing_runs_error(
    monkeypatch, forced_pool, cpus, first, second
):
    # Blocks of 10 runs, each its own job: runs 61 and 130 fail in the
    # seventh and the fourteenth, x or y of each drawn as inf.
    cell = SimCell(1.0, 1.0, 10)
    monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 10 * cell.n)
    cpus(2)
    draw_normals = mc._draw_normals

    def failing(seed, runs, attempt, n, boot):
        z, boot_seeds = draw_normals(seed, runs, attempt, n, boot)
        z[runs == 61, first, 0] = np.inf
        z[runs == 130, second, 0] = np.inf
        return z, boot_seeds

    monkeypatch.setattr(mc, "_draw_normals", failing)
    with pytest.raises(NonFiniteInput) as raised:
        run_cell(cell, (Method.FIELLER,), 150, 0)
    assert str(raised.value) == f"{'xy'[first]}s contains non-finite values"
    assert forced_pool()
    assert multiprocessing.active_children() == []


def test_grid_cells_have_distinct_seeds():
    spec = GridSpec(cv_x_values=(0.5, 0.5), cv_y_values=(0.5,), n=10)
    grid = run_grid(spec, (Method.FIELLER,), 100, master_seed=0)
    seeds = [r.seed for r in grid.results]
    assert len(set(seeds)) == len(seeds)


def test_grid_csv_layout():
    spec = GridSpec(cv_x_values=(0.3,), cv_y_values=(0.3, 3.0), n=10)
    grid = run_grid(spec, (Method.FIELLER, Method.TAYLOR), 120, master_seed=2)
    rows = _printed(cli._grid_records(grid))
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
        assert r.covers_true == r.confidence_set.contains(1.0)
    assert exp.significant_deviations(Method.FIELLER) == sum(
        1 for r in first if not r.covers_true
    )


def test_error_bar_determinism_and_runs_guard():
    cell = SimCell(cv_x=0.5, cv_y=0.5, n=30)
    a = error_bar_experiment(cell, runs=10, seed=1)
    b = error_bar_experiment(cell, runs=10, seed=1)
    assert _printed(cli._errorbar_records(a)) == _printed(cli._errorbar_records(b))
    with pytest.raises(DomainError):
        error_bar_experiment(cell, runs=0, seed=1)


def test_errorbar_csv_layout():
    cell = SimCell(cv_x=3.0, cv_y=0.5, n=4)
    exp = error_bar_experiment(cell, runs=30, seed=11)
    rows = _printed(cli._errorbar_records(exp))
    assert rows[0] == [
        "method", "run", "estimate", "case", "lower", "upper", "intervals", "covers_true"
    ]
    assert len(rows) == 61
    by_case = {r[3] for r in rows[1:]}
    # cv_x=3 at n=4 forces plenty of unbounded exact sets.
    assert "whole_line" in by_case or "unbounded_exclusive" in by_case
    for r in rows[1:]:
        if r[3] != "bounded":
            # An infinite bound is an empty cell.
            assert r[4] == "" or r[5] == ""
        else:
            assert float(r[4]) <= float(r[5])
        assert r[7] in ("true", "false")


def _error_bar_loop(cell, runs, seed):
    """error_bar_experiment's rows as (method, run, result), by a per-run loop
    over the scalar reference; raises the first error, Fieller first."""
    spec = ConfidenceSpec.two_sided(0.95, df=cell.n - 1)
    per_method = {Method.FIELLER: [], Method.INDEX: []}
    for run in range(runs):
        sample, _, _ = ref._draw_run(cell, seed, run)
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
        (SimCell(3.0, 0.1, 20), 40, 2**64 + 5),  # five-word entropy
    ],
)
def test_error_bar_experiment_equals_the_per_run_loop(cell, runs, seed):
    rows = error_bar_experiment(cell, runs=runs, seed=seed).rows
    expected = _error_bar_loop(cell, runs, seed)
    assert len(rows) == len(expected) == 2 * runs
    for row, (method, run, result) in zip(rows, expected):
        assert (row.method, row.run) == (method, run)
        assert _same(row.estimate, result.estimate)
        _assert_same_set(row.confidence_set, result.confidence_set)
        assert row.covers_true is result.confidence_set.contains(1.0)


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
    _replace_samples(monkeypatch, bad.get)
    if block_runs is not None:
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_runs * cell.n)
    with pytest.raises(RatioCiError) as expected:
        _error_bar_loop(cell, 12, 0)
    with pytest.raises(error) as got:
        error_bar_experiment(cell, runs=12, seed=0)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


# -------------------------------------------------------------- thread cap


def test_thread_cap_sources(monkeypatch, cpus):
    assert thread_cap(3) == 3
    assert thread_cap() == len(os.sched_getaffinity(0))
    cpus(5)
    assert thread_cap() == 5
    assert thread_cap(2) == 2  # the argument wins over the CPUs
    monkeypatch.setenv("RATIO_CI_THREADS", "1")
    assert thread_cap() == 5  # no environment variable is read
    for bad in (0, -1):
        with pytest.raises(DomainError):
            thread_cap(bad)
