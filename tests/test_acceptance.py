"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
-s, or via the one-line-per-test verbose report) and asserts both the
numeric tolerances and the runtime budget.
"""

import time

import numpy as np
import pytest

from ratio_ci import (
    BootstrapConfig,
    ConfidenceSpec,
    GridSpec,
    Method,
    PairedSample,
    SetCase,
    SimCell,
    SummaryStats,
    construct_wedge,
    error_bar_experiment,
    evaluate_methods,
    fieller_set,
    run_cell,
    run_grid,
    spurious_demo,
    stork_demo_table,
    summarize,
    taylor_limits,
)
from ratio_ci.cli import main

WORKED_X = (6.34, 4.02, 2.88)
WORKED_Y = (4.87, 8.30, 11.66)


def _verdict(number: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _random_instances(rng: np.random.Generator):
    """Random summary statistics away from case-classification knife edges."""
    while True:
        n = int(rng.integers(3, 60))
        mean_x = float(rng.normal(0.0, 2.0))
        mean_y = float(rng.normal(0.0, 2.0))
        sd_x = float(rng.uniform(0.05, 3.0))
        sd_y = float(rng.uniform(0.05, 3.0))
        corr = float(rng.uniform(-0.95, 0.95))
        vx, vy, cov = sd_x**2, sd_y**2, corr * sd_x * sd_y
        spec = ConfidenceSpec.two_sided(0.95, df=n - 1)
        t2 = spec.quantile**2
        denom_t2 = mean_x**2 / vx
        det = vx * vy - cov * cov
        t_unb2 = denom_t2 + (mean_y * vx - mean_x * cov) ** 2 / (vx * det)
        if abs(denom_t2 - t2) < 1e-3 * t2 or abs(t_unb2 - t2) < 1e-3 * t2:
            continue
        yield SummaryStats(n, mean_x, mean_y, vx, vy, cov, n - 1), spec


def test_criterion_1_worked_example():
    start = time.perf_counter()
    sample = PairedSample(np.array(WORKED_X), np.array(WORKED_Y))
    stats = summarize(sample)
    spec = ConfidenceSpec.two_sided(0.95, df=2)
    fieller = fieller_set(stats, spec)
    taylor = taylor_limits(stats, spec)
    results = dict(evaluate_methods(sample, (Method.INDEX, Method.ZERO_VARIANCE), spec))
    index, zerov = results[Method.INDEX], results[Method.ZERO_VARIANCE]
    elapsed = time.perf_counter() - start

    checks = [
        abs(taylor.confidence_set.lower - -1.88) <= 0.02,
        abs(taylor.confidence_set.upper - 5.64) <= 0.02,
        abs(index.estimate - 2.29) <= 0.02,
        abs(index.confidence_set.lower - -1.81) <= 0.02,
        abs(index.confidence_set.upper - 6.39) <= 0.02,
        abs(zerov.confidence_set.lower - -0.03) <= 0.02,
        abs(zerov.confidence_set.upper - 3.79) <= 0.02,
        abs(fieller.confidence_set.lower - -0.02) <= 0.01,
        abs(fieller.estimate - 1.88) <= 0.01,
        490.0 <= fieller.confidence_set.upper <= 510.0,
        elapsed < 1.0,
    ]
    _verdict(
        1,
        all(checks),
        f"fieller ({fieller.confidence_set.lower:.4f}, "
        f"{fieller.confidence_set.upper:.2f}), {elapsed:.2f}s",
    )


def test_criterion_2_grid_oracle_equivalence():
    start = time.perf_counter()
    gen = _random_instances(np.random.default_rng(20260816))
    grid = np.linspace(-100.0, 100.0, 10_000)
    cases = {case: 0 for case in SetCase}
    clean = True
    for _ in range(1000):
        stats, spec = next(gen)
        cset = fieller_set(stats, spec).confidence_set
        cases[cset.case] += 1
        t2 = spec.quantile**2
        q = (stats.mean_y - grid * stats.mean_x) ** 2 - t2 * (
            stats.var_mean_y
            - 2.0 * grid * stats.cov_mean_xy
            + grid**2 * stats.var_mean_x
        )
        oracle = q <= 0.0
        if cset.case is SetCase.BOUNDED:
            member = (grid >= cset.lower) & (grid <= cset.upper)
            bounds = (cset.lower, cset.upper)
        elif cset.case is SetCase.UNBOUNDED_EXCLUSIVE:
            member = (grid <= cset.excluded_lower) | (grid >= cset.excluded_upper)
            bounds = (cset.excluded_lower, cset.excluded_upper)
        else:
            member = np.ones_like(grid, dtype=bool)
            bounds = ()
        disagree = oracle != member
        if disagree.any():
            rho = grid[disagree]
            tol = 1e-6 * (1.0 + np.abs(rho))
            near = np.zeros(rho.size, dtype=bool)
            for b in bounds:
                near |= np.abs(rho - b) <= tol
            clean &= bool(near.all())
    elapsed = time.perf_counter() - start
    spans_all = all(cases[c] > 0 for c in SetCase)
    _verdict(
        2,
        clean and spans_all and elapsed < 30.0,
        f"cases {[cases[c] for c in SetCase]}, {elapsed:.2f}s",
    )


def test_criterion_3_geometry_equivalence():
    start = time.perf_counter()
    gen = _random_instances(np.random.default_rng(77))
    bounded = 0
    unbounded = 0
    ok = True
    while bounded < 1000:
        stats, spec = next(gen)
        cset = fieller_set(stats, spec).confidence_set
        wedge = construct_wedge(stats, spec)
        if cset.case is SetCase.BOUNDED:
            bounded += 1
            lo, hi = wedge.tangent_slopes
            ok &= abs(lo - cset.lower) <= 1e-9 * abs(cset.lower)
            ok &= abs(hi - cset.upper) <= 1e-9 * abs(cset.upper)
        else:
            unbounded += 1
            ok &= wedge.touches_y_axis
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        ok and elapsed < 10.0,
        f"1000 bounded, {unbounded} unbounded, {elapsed:.2f}s",
    )


def test_criterion_4_fieller_and_hwang_coverage():
    axes = (0.3, 1.0, 3.0)
    start = time.perf_counter()
    fieller_covs = []
    for n in (20, 500):
        grid = run_grid(
            GridSpec(axes, axes, n=n), (Method.FIELLER,), 2000, master_seed=0
        )
        fieller_covs += [r.methods[Method.FIELLER].coverage for r in grid.results]
    fieller_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    boot = BootstrapConfig(replications=2000)
    hwang_grid = run_grid(
        GridSpec(axes, axes, n=500),
        (Method.HWANG_BOOTSTRAP,),
        500,
        master_seed=0,
        boot_config=boot,
    )
    hwang_covs = [
        r.methods[Method.HWANG_BOOTSTRAP].coverage for r in hwang_grid.results
    ]
    hwang_elapsed = time.perf_counter() - start

    fieller_ok = all(0.935 <= c <= 0.965 for c in fieller_covs)
    hwang_ok = all(0.92 <= c <= 0.975 for c in hwang_covs)
    _verdict(
        4,
        fieller_ok
        and hwang_ok
        and fieller_elapsed < 120.0
        and hwang_elapsed < 15 * 60.0,
        f"fieller [{min(fieller_covs):.3f}, {max(fieller_covs):.3f}] "
        f"{fieller_elapsed:.1f}s; hwang [{min(hwang_covs):.3f}, "
        f"{max(hwang_covs):.3f}] {hwang_elapsed:.1f}s",
    )


def test_criterion_5_method_failure_classes():
    start = time.perf_counter()
    point_a = SimCell(0.15, 0.10, 500)
    point_c = SimCell(3.0, 0.1, 500)

    # (a) zero-variance collapses once the denominator dominates the noise.
    res_a = run_cell(SimCell(3.0, 0.1, 20), (Method.ZERO_VARIANCE,), 2000, seed=1)
    zero_var_cov = res_a.methods[Method.ZERO_VARIANCE].coverage

    # (b) index fails on both sides of its validity band, with opposite bias.
    res_idx_a = run_cell(point_a, (Method.INDEX,), 2000, seed=1)
    res_c = run_cell(
        point_c, (Method.INDEX, Method.TRIMMED_INDEX), 2000, seed=1
    )
    idx_a = res_idx_a.methods[Method.INDEX]
    idx_c = res_c.methods[Method.INDEX]
    trim_c = res_c.methods[Method.TRIMMED_INDEX]

    # (c) Taylor and the standard bootstrap hold their level where the
    # denominator mean is clearly nonzero (cv of mean(x) < 1/3); the
    # bootstrap pair is checked at n=500 where its large-sample rule of
    # thumb applies comfortably.
    taylor_cells = [
        SimCell(0.3, 0.3, 20),
        SimCell(1.0, 1.0, 20),
        point_a,
        point_c,
    ]
    assert all(c.cv_x / c.n**0.5 < 1.0 / 3.0 for c in taylor_cells)
    taylor_covs = [
        run_cell(c, (Method.TAYLOR,), 2000, seed=1).methods[Method.TAYLOR].coverage
        for c in taylor_cells
    ]
    boot = BootstrapConfig(replications=2000)
    boot_covs = []
    for cell in (point_a, point_c):
        res = run_cell(
            cell,
            (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA),
            2000,
            seed=1,
            boot_config=boot,
        )
        boot_covs += [
            res.methods[Method.BOOTSTRAP_PERCENTILE].coverage,
            res.methods[Method.BOOTSTRAP_BCA].coverage,
        ]
    elapsed = time.perf_counter() - start

    checks = [
        zero_var_cov < 0.90,
        idx_a.coverage < 0.90 and idx_c.coverage < 0.90,
        idx_a.estimate_mean > 1.0 and idx_c.estimate_mean < 1.0,
        all(0.93 <= c <= 0.97 for c in taylor_covs),
        all(0.93 <= c <= 0.97 for c in boot_covs),
        trim_c.estimate_variance < idx_c.estimate_variance,
        trim_c.coverage < 0.90,
        elapsed < 600.0,
    ]
    _verdict(
        5,
        all(checks),
        f"zero-var {zero_var_cov:.3f}; index cov A/C "
        f"{idx_a.coverage:.3f}/{idx_c.coverage:.3f} mean "
        f"{idx_a.estimate_mean:.3f}/{idx_c.estimate_mean:.3f}; taylor "
        f"[{min(taylor_covs):.3f}, {max(taylor_covs):.3f}]; boot "
        f"[{min(boot_covs):.3f}, {max(boot_covs):.3f}]; {elapsed:.1f}s",
    )


def test_criterion_6_error_bar_experiment():
    start = time.perf_counter()
    counts = {}
    for label, cell in [
        ("A", SimCell(0.15, 0.10, 500)),
        ("B", SimCell(0.75, 0.10, 500)),
        ("C", SimCell(3.0, 0.1, 500)),
    ]:
        exp = error_bar_experiment(cell, runs=40, seed=0)
        counts[label] = (
            exp.significant_deviations(Method.FIELLER),
            exp.significant_deviations(Method.INDEX),
        )
    elapsed = time.perf_counter() - start
    fieller_ok = all(0 <= f <= 7 for f, _ in counts.values())
    index_ok = counts["A"][1] > 7 and counts["C"][1] > 7
    _verdict(
        6,
        fieller_ok and index_ok and elapsed < 60.0,
        f"fieller/index per point {counts}, {elapsed:.2f}s",
    )


def test_criterion_7_stork_demonstration():
    start = time.perf_counter()
    table = stork_demo_table()
    report = spurious_demo(table["women"], table["babies"], table["storks"])
    women = np.asarray(table["women"])
    babies = np.asarray(table["babies"])
    dev = women - women.mean()
    slope = float(dev @ (babies - babies.mean())) / float(dev @ dev)
    oracle_intercept = float(babies.mean() - slope * women.mean())
    fitted = report.partial.restricted.coefficients["intercept"]
    elapsed = time.perf_counter() - start
    checks = [
        report.partial.p_value > 0.05,
        report.rate_based.p_value < 0.05,
        abs(fitted - oracle_intercept) <= 0.01,
        abs(fitted - 10.85) <= 0.01,
        elapsed < 1.0,
    ]
    _verdict(
        7,
        all(checks),
        f"partial p={report.partial.p_value:.4f}, rate "
        f"p={report.rate_based.p_value:.4f}, intercept {fitted:.4f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_8_cli_determinism(capsys, tmp_path, monkeypatch, forced_pool):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(
        "\n".join(["x,y"] + [f"{x},{y}" for x, y in zip(WORKED_X, WORKED_Y)]) + "\n"
    )
    rng = np.random.default_rng(5)
    xs = rng.uniform(1.0, 10.0, 16)
    ys = 2.0 + 3.0 * xs + rng.normal(0.0, 0.5, 16)
    line = tmp_path / "line.csv"
    line.write_text("\n".join(["x,y"] + [f"{a},{b}" for a, b in zip(xs, ys)]) + "\n")
    groups = tmp_path / "groups.csv"
    lines = ["x,y,group"]
    for x in (1.0, 2.0, 3.0, 4.0):
        lines += [f"{x},{2.0 * x},a", f"{x},{2.4 * x},b"]
    groups.write_text("\n".join(lines) + "\n")

    commands = [
        [
            "ci",
            "--input",
            str(pairs),
            "--methods",
            "fieller,taylor,index,trimmed_index,zero_variance,"
            "bootstrap_percentile,bootstrap_bca,hwang_bootstrap",
            "--replications",
            "1000",
            "--seed",
            "3",
        ],
        ["ci", "--input", str(pairs), "--format", "csv"],
        [
            "simulate",
            "--cv-x",
            "0.3,1.0",
            "--cv-y",
            "0.5",
            "--n",
            "10",
            "--runs",
            "100",
            "--methods",
            "fieller,taylor,index",
            "--seed",
            "4",
        ],
        [
            "errorbars",
            "--cv-x",
            "0.5",
            "--cv-y",
            "0.3",
            "--n",
            "40",
            "--runs",
            "10",
            "--seed",
            "6",
        ],
        ["ellipse", "--input", str(pairs), "--format", "svg"],
        ["ellipse", "--input", str(pairs), "--format", "csv", "--points", "64"],
        [
            "regress",
            "--input",
            str(line),
            "--model",
            "ols",
            "--response",
            "y",
            "--regressors",
            "x",
        ],
        ["regress", "--input", str(groups), "--model", "ancova"],
        ["regress", "--input", str(line), "--model", "deflated", "--format", "text"],
        ["regress", "--input", str(line), "--model", "allometric"],
        ["demo", "stork"],
    ]

    start = time.perf_counter()
    identical = True
    for argv in commands:
        outputs = []
        for cap in ("1", "4"):
            # The thread cap must only change the schedule, never the bytes.
            monkeypatch.setenv("RATIO_CI_THREADS", cap)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        identical &= outputs[0] == outputs[1] and len(outputs[0]) > 0
    elapsed = time.perf_counter() - start
    # At cap 4, simulate's two cells ran as two jobs in forked workers.
    workers = len(forced_pool())
    _verdict(
        8,
        identical and workers > 0 and elapsed < 120.0,
        f"{len(commands)} commands x2, thread caps 1 and 4, {workers} workers, {elapsed:.1f}s",
    )
