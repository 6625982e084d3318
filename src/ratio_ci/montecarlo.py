"""Coverage simulations for the ratio methods over a (cv_x, cv_y, n) grid.

Cells are described by the individual-level coefficients of variation of the
two measurements. Population means default to 1, so the true ratio is 1 and
the CVs double as the standard deviations; every method under study is
scale equivariant, so this loses no generality.

Unbounded confidence sets count as covering when the true ratio is not in
the excluded interval (the whole line always covers); they are also tallied
separately so their frequency stays visible in the output.

Determinism: each run draws from default_rng([seed, run, attempt]), and each
grid cell gets its seed from SeedSequence([master_seed, cell_index]), so
results are identical regardless of thread count or which method subset is
requested. The bootstrap seed for a run is drawn from the run's stream even
when no bootstrap method is active, for the same reason.

Batched closed-form path: run_cell still draws every run from its own
generator as above, one run at a time, but stacks the runs of a block into
(rows, n) arrays and evaluates each closed-form method once per block: one
row-wise summary (core._summarize_rows) and one kernel per method
(methods._fieller_rows and its siblings), each bit-equal per row to the
method applied to that run alone. The per-run generators are unchanged, so
the determinism above holds and batching changes no number. The bootstrap
methods still run per run through evaluate_methods.
"""

from __future__ import annotations

import copy
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .bootstrap import (
    _RATIO_BOOT_METHODS,
    BootstrapConfig,
    BootstrapMethod,
    hwang_set,
    ratio_bootstrap_results,
)
from .core import (
    BivariateNormalParams,
    ConfidenceSpec,
    PairedSample,
    _draw_pairs,
    _summarize_rows,
    summarize,
)
from .errors import DomainError, RatioCiError
from .methods import (
    Method,
    MethodResult,
    SetCase,
    _BOUNDED,
    _fieller_rows,
    _index_rows,
    _RowResults,
    _taylor_rows,
    _trimmed_index_rows,
    _zero_variance_rows,
    fieller_set,
    index_limits,
    taylor_limits,
    trimmed_index_limits,
    zero_variance_limits,
)

__all__ = [
    "SimCell",
    "MethodCoverage",
    "CoverageResult",
    "GridSpec",
    "CoverageGrid",
    "ErrorBarRun",
    "ErrorBarExperiment",
    "evaluate_methods",
    "run_cell",
    "run_grid",
    "error_bar_experiment",
    "grid_csv_rows",
    "errorbar_csv_rows",
    "thread_cap",
]


@dataclass(frozen=True)
class SimCell:
    """One simulation condition: CVs at the individual-measurement level."""

    cv_x: float
    cv_y: float
    n: int
    corr: float = 0.0
    mean_x: float = 1.0
    mean_y: float = 1.0

    def __post_init__(self):
        for name in ("cv_x", "cv_y", "corr", "mean_x", "mean_y"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "n", int(self.n))
        if not (self.cv_x > 0.0 and self.cv_y > 0.0):
            raise DomainError("coefficients of variation must be positive")
        if not abs(self.corr) <= 1.0:
            raise DomainError("correlation must lie in [-1, 1]")
        if self.n < 2:
            raise DomainError("need at least two pairs per sample")
        if self.mean_x == 0.0 or not math.isfinite(self.mean_y / self.mean_x):
            raise DomainError("true ratio must be finite")

    @property
    def true_rho(self) -> float:
        return self.mean_y / self.mean_x

    def params(self) -> BivariateNormalParams:
        return BivariateNormalParams(
            mean_x=self.mean_x,
            mean_y=self.mean_y,
            sd_x=self.cv_x * abs(self.mean_x),
            sd_y=self.cv_y * abs(self.mean_y),
            corr=self.corr,
        )


@dataclass(frozen=True)
class MethodCoverage:
    """Coverage tally for one method in one cell.

    Estimate moments are taken over the runs in which the method produced a
    finite estimate. Runs where it failed count as non-coverage, and
    failures maps the class name of each error to the number of such runs.
    """

    runs: int
    covered: int
    unbounded_sets: int
    estimate_mean: float
    estimate_variance: float
    failures: dict[str, int] = field(default_factory=dict, hash=False)

    @property
    def coverage(self) -> float:
        return self.covered / self.runs


@dataclass(frozen=True)
class CoverageResult:
    cell: SimCell
    seed: int
    methods: dict[Method, MethodCoverage]
    redraws: int


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of cells: the cross product of the two CV axes."""

    cv_x_values: tuple[float, ...]
    cv_y_values: tuple[float, ...]
    n: int
    corr: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cv_x_values", tuple(float(v) for v in self.cv_x_values))
        object.__setattr__(self, "cv_y_values", tuple(float(v) for v in self.cv_y_values))
        if not self.cv_x_values or not self.cv_y_values:
            raise DomainError("both grid axes need at least one value")

    @classmethod
    def log_spaced(
        cls,
        n: int,
        count: int = 7,
        low: float = 0.01,
        high: float = 10.0,
        corr: float = 0.0,
    ) -> "GridSpec":
        axis = tuple(float(v) for v in np.geomspace(low, high, count))
        return cls(cv_x_values=axis, cv_y_values=axis, n=n, corr=corr)

    def cells(self) -> list[SimCell]:
        # cv_x varies slowest; the cell index fixes each cell's seed.
        return [
            SimCell(cv_x=cx, cv_y=cy, n=self.n, corr=self.corr)
            for cx in self.cv_x_values
            for cy in self.cv_y_values
        ]


@dataclass(frozen=True)
class CoverageGrid:
    spec: GridSpec
    runs: int
    master_seed: int
    results: tuple[CoverageResult, ...]

    @property
    def reference_cv_x(self) -> float:
        """cv_x above which the denominator mean is typically not
        significantly nonzero (cv of the mean = 0.5)."""
        return 0.5 * math.sqrt(self.spec.n)


@dataclass(frozen=True)
class ErrorBarRun:
    method: Method
    run: int
    estimate: float
    confidence_set: object
    covers_true: bool


@dataclass(frozen=True)
class ErrorBarExperiment:
    cell: SimCell
    seed: int
    level: float
    rows: tuple[ErrorBarRun, ...]

    def significant_deviations(self, method: Method) -> int:
        return sum(1 for r in self.rows if r.method is method and not r.covers_true)


def thread_cap(requested: int | None = None) -> int:
    """Worker count: explicit argument, else RATIO_CI_THREADS, else all cores."""
    if requested is None:
        env = os.environ.get("RATIO_CI_THREADS")
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise DomainError(f"RATIO_CI_THREADS must be an integer, got {env!r}")
    if requested is None:
        return os.cpu_count() or 1
    if requested < 1:
        raise DomainError("thread cap must be at least 1")
    return requested


def _draw_run(
    cell: SimCell, seed: int, run: int
) -> tuple[PairedSample, int, int]:
    """Sample for one run plus its bootstrap seed and the redraw count.

    Exactly-zero x draws (possible only by floating-point chance) invalidate
    the per-pair ratio methods, so the whole run is redrawn from the next
    attempt substream and tallied.
    """
    params = cell.params()
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, run, attempt])
        sample = _draw_pairs(params, cell.n, rng)
        if not (sample.xs == 0.0).any():
            break
        attempt += 1
    boot_seed = int(rng.integers(0, 2**63))
    return sample, boot_seed, attempt


def _normalized_methods(methods: Iterable[Method]) -> tuple[Method, ...]:
    requested = {Method(m) for m in methods}
    if not requested:
        raise DomainError("need at least one method")
    return tuple(m for m in Method if m in requested)


def evaluate_methods(
    sample: PairedSample,
    methods: Iterable[Method],
    spec: ConfidenceSpec,
    boot_config: BootstrapConfig | None = None,
    trim: float = 0.25,
) -> Iterator[tuple[Method, MethodResult | RatioCiError]]:
    """Yield (method, result) for each method, lazily and in the given order.

    A method whose precondition fails on this sample yields its RatioCiError
    in place of the result; what that means is left to the caller. The two
    ratio-bootstrap methods share one resampling, drawn when the first of
    them is reached, and both yield its error if it fails. boot_config is read only by the bootstrap methods.
    Method functions are looked up in this module's namespace at call time.
    """
    methods = tuple(methods)
    ratio_boot_wanted = tuple(m for m in methods if m in _RATIO_BOOT_METHODS)
    stats = summarize(sample)
    ratio_boot: dict[Method, MethodResult] | None = None
    for method in methods:
        try:
            if method is Method.FIELLER:
                result = fieller_set(stats, spec)
            elif method is Method.TAYLOR:
                result = taylor_limits(stats, spec)
            elif method is Method.INDEX:
                result = index_limits(sample, spec)
            elif method is Method.TRIMMED_INDEX:
                result = trimmed_index_limits(sample, spec, trim)
            elif method is Method.ZERO_VARIANCE:
                result = zero_variance_limits(sample, spec)
            elif method is Method.HWANG_BOOTSTRAP:
                result = hwang_set(sample, boot_config, spec)
            else:
                if ratio_boot is None:
                    try:
                        ratio_boot = ratio_bootstrap_results(
                            sample, boot_config, spec, ratio_boot_wanted
                        )
                    except RatioCiError as exc:
                        ratio_boot = dict.fromkeys(ratio_boot_wanted, exc)
                result = ratio_boot[method]
        except RatioCiError as exc:
            result = exc
        yield method, result


# The closed-form methods, each a kernel over the stacked runs of a block:
# (xs, ys, summaries, spec, trim) -> _RowResults.
_ROW_KERNELS = {
    Method.FIELLER: lambda xs, ys, m, spec, trim: _fieller_rows(m, spec.quantile),
    Method.TAYLOR: lambda xs, ys, m, spec, trim: _taylor_rows(m, spec.quantile),
    Method.INDEX: lambda xs, ys, m, spec, trim: _index_rows(xs, ys, spec),
    Method.TRIMMED_INDEX: lambda xs, ys, m, spec, trim: _trimmed_index_rows(xs, ys, spec, trim),
    Method.ZERO_VARIANCE: lambda xs, ys, m, spec, trim: _zero_variance_rows(m, spec.quantile),
}

# Runs stacked per block: (rows, n) arrays of at most this many elements, so
# a cell's memory stays bounded for any n and number of runs.
_BLOCK_ELEMENTS = 1 << 14


class _Tally:
    """One method's running tally over the runs of a cell, in run order."""

    def __init__(self):
        self.covered = 0
        self.unbounded = 0
        self.estimates: list[float] = []
        self.failures: Counter[str] = Counter()

    def add(self, result: MethodResult | RatioCiError, rho: float) -> None:
        if isinstance(result, RatioCiError):
            self.failures[type(result).__name__] += 1
            return
        cset = result.confidence_set
        self.covered += cset.contains(rho)
        self.unbounded += cset.case is not SetCase.BOUNDED
        if math.isfinite(result.estimate):
            self.estimates.append(result.estimate)

    def add_rows(self, rows: _RowResults, rho: float) -> None:
        ok = ~rows.failed
        self.failures.update(type(error).__name__ for error in rows.errors.values())
        self.covered += int(np.count_nonzero(rows.contains(rho)))
        self.unbounded += int(np.count_nonzero(ok & (rows.case != _BOUNDED)))
        self.estimates += rows.estimate[ok & np.isfinite(rows.estimate)].tolist()

    def coverage(self, runs: int) -> MethodCoverage:
        est = self.estimates
        return MethodCoverage(
            runs=runs,
            covered=self.covered,
            unbounded_sets=self.unbounded,
            estimate_mean=float(np.mean(est)) if est else math.nan,
            estimate_variance=float(np.var(est, ddof=1)) if len(est) >= 2 else math.nan,
            failures=dict(sorted(self.failures.items())),
        )


def run_cell(
    cell: SimCell,
    methods: Iterable[Method],
    runs: int,
    seed: int,
    boot_config: BootstrapConfig | None = None,
    level: float = 0.95,
    trim: float = 0.25,
) -> CoverageResult:
    """Simulate one cell and tally coverage per method.

    Method errors on a particular draw (a degenerate resample set, say)
    count as non-coverage for that run and are tallied by error class; they
    never abort the cell. The closed-form methods run once per block of
    stacked runs; the bootstrap methods run per run through
    evaluate_methods.
    """
    if runs < 100:
        raise DomainError("need at least 100 runs per cell")
    method_order = _normalized_methods(methods)
    batched = tuple(m for m in method_order if m in _ROW_KERNELS)
    per_run = tuple(m for m in method_order if m not in _ROW_KERNELS)
    if boot_config is None:
        boot_config = BootstrapConfig(method=BootstrapMethod.BCA)
    spec = ConfidenceSpec.two_sided(level, df=cell.n - 1)
    rho = cell.true_rho

    tallies = {m: _Tally() for m in method_order}
    redraws = 0
    block = max(1, _BLOCK_ELEMENTS // cell.n)
    for start in range(0, runs, block):
        stop = min(start + block, runs)
        if batched:
            xs = np.empty((stop - start, cell.n))
            ys = np.empty_like(xs)
        for run in range(start, stop):
            sample, boot_seed, attempts = _draw_run(cell, seed, run)
            redraws += attempts
            if batched:
                xs[run - start] = sample.xs
                ys[run - start] = sample.ys
            if per_run:
                # A copy with the run's seed; dataclasses.replace would rerun
                # the validation and repeat its warning once per run.
                run_config = copy.copy(boot_config)
                object.__setattr__(run_config, "seed", boot_seed)
                for method, result in evaluate_methods(sample, per_run, spec, run_config, trim):
                    tallies[method].add(result, rho)
        if batched:
            summaries = _summarize_rows(xs, ys)
            for method in batched:
                tallies[method].add_rows(_ROW_KERNELS[method](xs, ys, summaries, spec, trim), rho)

    tallies = {m: tallies[m].coverage(runs) for m in method_order}
    return CoverageResult(cell=cell, seed=seed, methods=tallies, redraws=redraws)


def _cell_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def run_grid(
    gridspec: GridSpec,
    methods: Iterable[Method],
    runs: int,
    master_seed: int,
    boot_config: BootstrapConfig | None = None,
    level: float = 0.95,
    trim: float = 0.25,
    threads: int | None = None,
) -> CoverageGrid:
    """Run every cell of the grid, in parallel, in deterministic order.

    Cell seeds derive from (master_seed, cell index) alone, and results are
    collected in cell order, so the grid is a pure function of its arguments
    no matter how many workers execute it.
    """
    method_order = _normalized_methods(methods)
    cells = gridspec.cells()
    seeds = [_cell_seed(master_seed, i) for i in range(len(cells))]

    def job(args: tuple[SimCell, int]) -> CoverageResult:
        cell, seed = args
        return run_cell(cell, method_order, runs, seed, boot_config, level, trim)

    with ThreadPoolExecutor(max_workers=thread_cap(threads)) as pool:
        results = tuple(pool.map(job, zip(cells, seeds)))
    return CoverageGrid(spec=gridspec, runs=runs, master_seed=master_seed, results=results)


def error_bar_experiment(
    cell: SimCell, runs: int = 40, seed: int = 0, level: float = 0.95
) -> ErrorBarExperiment:
    """Per-run exact and per-pair-ratio intervals, ordered by estimate.

    At a 95% level roughly 2 of 40 intervals should miss the true ratio for
    a method whose coverage holds; a systematically biased method misses far
    more often. Rows are sorted by estimate within each method, the exact
    method's rows first.
    """
    if runs < 1:
        raise DomainError("need at least one run")
    spec = ConfidenceSpec.two_sided(level, df=cell.n - 1)
    rho = cell.true_rho
    methods = (Method.FIELLER, Method.INDEX)
    per_method: dict[Method, list[ErrorBarRun]] = {m: [] for m in methods}
    for run in range(runs):
        sample, _, _ = _draw_run(cell, seed, run)
        for method, result in evaluate_methods(sample, methods, spec):
            if isinstance(result, RatioCiError):
                raise result
            per_method[method].append(
                ErrorBarRun(
                    method=method,
                    run=run,
                    estimate=result.estimate,
                    confidence_set=result.confidence_set,
                    covers_true=result.confidence_set.contains(rho),
                )
            )
    rows: list[ErrorBarRun] = []
    for method in methods:
        rows.extend(sorted(per_method[method], key=lambda r: r.estimate))
    return ErrorBarExperiment(cell=cell, seed=seed, level=level, rows=tuple(rows))


def _fmt(value: float) -> str:
    return repr(float(value))


def grid_csv_rows(grid: CoverageGrid) -> list[list[str]]:
    """Plot-ready long-format rows, one per (cell, method), plus header."""
    rows = [
        [
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
    ]
    for result in grid.results:
        cell = result.cell
        for method, tally in result.methods.items():
            rows.append(
                [
                    _fmt(cell.cv_x),
                    _fmt(cell.cv_y),
                    str(cell.n),
                    _fmt(cell.corr),
                    method.value,
                    str(tally.runs),
                    str(tally.covered),
                    _fmt(tally.coverage),
                    str(tally.unbounded_sets),
                    str(result.redraws),
                ]
            )
    return rows


def errorbar_csv_rows(experiment: ErrorBarExperiment) -> list[list[str]]:
    """One row per (method, run); unbounded sets leave lower/upper empty."""
    rows = [["method", "run", "estimate", "lower", "upper", "case", "covers_true"]]
    for r in experiment.rows:
        cset = r.confidence_set
        bounded = cset.case is SetCase.BOUNDED
        rows.append(
            [
                r.method.value,
                str(r.run),
                _fmt(r.estimate),
                _fmt(cset.lower) if bounded else "",
                _fmt(cset.upper) if bounded else "",
                cset.case.value,
                "true" if r.covers_true else "false",
            ]
        )
    return rows
