"""Coverage simulations for the ratio methods over a (cv_x, cv_y, n) grid.

A cell is described by the individual-level coefficients of variation of
the two measurements, their correlation and the sample size. Population
means are 1, so the true ratio is 1 and the CVs are the standard
deviations. Every method under study is equivariant under rescaling x and
y, so this loses no generality: means (m_x, m_y) give the coverage of the
cell with correlation sign(m_x * m_y) * corr.

A confidence set covers when the true ratio lies in one of its closed
intervals (the whole line always covers). Sets with an infinite end are
also tallied separately, so their frequency stays visible in the output.

Determinism: each run draws from default_rng([seed, run, attempt]), and each
grid cell gets its seed from SeedSequence([master_seed, cell_index]), so
results are identical regardless of worker count or which method subset is
requested. _draw_run draws the runs of a block together, each with the bits
its own default_rng would give.

Records and jobs: what some runs of one cell gave is one _CellRecord: each
method's counts and finite estimates in run order, the redraws, and the
warnings a worker recorded. run_cell and run_grid share one scheduler,
_simulate, which decides from its arguments and the host alone. Its cells
share one n, methods and boot_config, so every run has the same estimated
single-core cost (_run_seconds). Work of at most _JOB_SECONDS (the
break-even of a forked pool), or any work under a cap of 1, is one job, run
in this process. Otherwise the runs of all cells, in cell and run order, are
cut into the fewest equal shares of at most _JOB_SECONDS that min(cap,
jobs) workers take evenly, each job ending at the first block end at or
past its share of the runs; a block longer than a share makes fewer jobs.
The cap is thread_cap(threads): the argument, else the CPUs this process
may run on. The jobs run on min(cap, jobs) forked workers, or in this
process when it is daemonic and cannot start one; a worker returns one
record per (cell, run range) piece and nothing else. Each cell's records
are merged in run order and summarized once.

Method registry: _KERNELS maps every method to one kernel over the rows of
a batch of samples, and is the only place that knows which methods exist.
run_cell and error_bar_experiment run each kernel once per block of runs;
evaluate_methods is the registry on a batch of one. The closed-form kernels
work on whole arrays, and the three bootstrap methods share one kernel,
bootstrap._bootstrap_rows, which resamples each row once for all of them.
Every row is bit-equal to the method applied to that sample alone.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bootstrap import BootstrapConfig, _bootstrap_rows
from .core import (
    ConfidenceSpec,
    PairedSample,
    _integer,
    _RowSummaries,
    _seed,
    _summarize_rows,
)
from .errors import DomainError, RatioCiError
from .methods import (
    ConfidenceSet,
    Method,
    MethodResult,
    _delta_rows,
    _fieller_rows,
    _index_rows,
    _known_x,
    _RowResults,
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
    """One simulation condition: CVs at the individual-measurement level,
    around unit means, so the true ratio is 1."""

    cv_x: float
    cv_y: float
    n: int
    corr: float = 0.0

    def __post_init__(self):
        for name in ("cv_x", "cv_y", "corr"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if not (0.0 < self.cv_x < math.inf and 0.0 < self.cv_y < math.inf):
            raise DomainError("coefficients of variation must be finite and positive")
        if not abs(self.corr) <= 1.0:
            raise DomainError("correlation must lie in [-1, 1]")
        if self.n < 2:
            raise DomainError("need at least two pairs per sample")


@dataclass(frozen=True)
class MethodCoverage:
    """Coverage tally for one method in one cell.

    Estimate moments are taken over the runs in which the method produced a
    finite estimate. Runs where it failed count as non-coverage, and
    failures maps the class name of each error to the number of such runs.
    For the bootstrap methods, fallbacks maps the reason a BCa step fell
    back to percentiles to the number of such runs, and dropped_replicates
    sums the non-finite replicates dropped, both over the runs with a set.
    """

    runs: int
    covered: int
    unbounded_sets: int
    estimate_mean: float
    estimate_variance: float
    failures: dict[str, int] = field(default_factory=dict, hash=False)
    fallbacks: dict[str, int] = field(default_factory=dict, hash=False)
    dropped_replicates: int = field(default=0, hash=False)

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
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if not self.cv_x_values or not self.cv_y_values:
            raise DomainError("both grid axes need at least one value")
        self.cells()  # raises the first invalid cell's error

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
    confidence_set: ConfidenceSet
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
    """The cap on a simulation's worker processes: requested, else the CPUs
    this process may run on (see the module docstring for the jobs)."""
    if requested is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    requested = _integer(requested, "thread cap")
    if requested < 1:
        raise DomainError("thread cap must be at least 1")
    return requested


# SeedSequence's hash (O'Neill's seed_seq_fe) and PCG64's seeding constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value) -> list[int]:
    """SeedSequence's uint32 words of a non-negative integer, least
    significant first; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, wrapping like C. The
    running constant advances once per call whatever the values, so one
    hasher serves a whole vector of entropies."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def _run_streams(seed: int, runs: np.ndarray, attempt: int) -> list[tuple[int, int]]:
    """PCG64's (state, inc) as seeded by SeedSequence([seed, run, attempt]),
    for each run in the uint64 array runs: the SeedSequence hash of every
    run at once, then pcg_setseq_128_srandom_r on Python ints. An entropy
    longer than the pool (a seed of 2^64 or more, or a run of 2^32 or more
    beside a seed of 2^32 or more) is folded in by mix_entropy's extra loop."""
    seed_words, attempt_words = _words(seed), _words(attempt)
    k = len(seed_words)
    high = (runs >> np.uint64(32)).astype(np.uint32)
    wide = high != 0  # runs of two words
    lengths = k + 1 + wide + len(attempt_words)
    width = max(_POOL, int(lengths.max()))
    entropy = np.zeros((runs.size, width), np.uint32)
    entropy[:, :k] = seed_words
    entropy[:, k] = runs.astype(np.uint32)
    entropy[wide, k + 1] = high[wide]
    for j, word in enumerate(attempt_words):
        entropy[np.arange(runs.size), k + 1 + wide + j] = word

    # mix_entropy: the first words (zeros past the entropy) into the pool,
    # every pool word into every other, then any words beyond the pool.
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        longer = lengths > src
        for dst in range(_POOL):
            pool[dst] = np.where(longer, _mix(pool[dst], hashmix(entropy[:, src])), pool[dst])

    # generate_state(4, uint64): eight words cycling over the pool, paired
    # little-endian into seed_hi, seed_lo, inc_hi, inc_lo.
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    state = [(out[2 * i] | out[2 * i + 1] << np.uint64(32)).tolist() for i in range(4)]

    streams = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*state):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        streams.append((((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return streams


def _draw_normals(
    seed: int, runs: np.ndarray, attempt: int, n: int, boot: bool
) -> tuple[np.ndarray, list[int]]:
    """The (len(runs), 2, n) standard normals of the runs at this attempt,
    each from its own stream, and, if boot, each stream's next draw as the
    run's bootstrap seed. One generator is set to each stream in turn."""
    z = np.empty((runs.size, 2, n))
    boot_seeds = []
    gen = np.random.Generator(np.random.PCG64(0))
    bits = gen.bit_generator
    for row, (state, inc) in enumerate(_run_streams(seed, runs, attempt)):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=z[row])
        if boot:
            boot_seeds.append(int(gen.integers(0, 2**63)))
    return z, boot_seeds


def _draw_run(
    cell: SimCell, seed: int, start: int, rows: int, boot: bool
) -> tuple[np.ndarray, np.ndarray, int, list[int]]:
    """Runs start, ..., start + rows - 1 of the cell: their (rows, n) xs and
    ys, the block's redraw count and, if boot, each run's bootstrap seed.

    Each run is the sample default_rng([seed, run, 0]) gives: x from its
    first n standard normals and y from the Cholesky mix of those and the
    next n, each around a mean of 1 with the cell's CV as its SD. Exactly-zero
    x draws (possible only by floating-point chance) invalidate the per-pair
    ratio methods, so such a run is redrawn from the next attempt's stream,
    and tallied. The bootstrap seed is the last draw of the stream kept, so
    skipping it changes no other number. A run with a non-finite value
    raises NonFiniteInput, as its PairedSample would.
    """
    runs = np.arange(start, start + rows, dtype=np.uint64)
    root = math.sqrt(1.0 - cell.corr * cell.corr)

    def draw(todo: np.ndarray, attempt: int):
        z, boot_seeds = _draw_normals(seed, todo, attempt, cell.n, boot)
        z0, z1 = z[:, 0], z[:, 1]
        with np.errstate(over="ignore"):  # a draw past the double range is inf
            xs = 1.0 + cell.cv_x * z0
            ys = 1.0 + cell.cv_y * (cell.corr * z0 + root * z1)
        finite = np.isfinite(xs).all(axis=1) & np.isfinite(ys).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            PairedSample(xs[row], ys[row])  # raises the first such run's error
        return xs, ys, boot_seeds

    xs, ys, boot_seeds = draw(runs, 0)
    redraws = attempt = 0
    redo = np.flatnonzero((xs == 0.0).any(axis=1))
    while redo.size:
        attempt += 1
        redraws += redo.size
        xs[redo], ys[redo], seeds = draw(runs[redo], attempt)
        for row, boot_seed in zip(redo.tolist(), seeds):
            boot_seeds[row] = boot_seed
        redo = redo[(xs[redo] == 0.0).any(axis=1)]
    return xs, ys, redraws, boot_seeds


def _normalized_methods(methods: Iterable[Method]) -> tuple[Method, ...]:
    requested = {Method(m) for m in methods}
    if not requested:
        raise DomainError("need at least one method")
    return tuple(m for m in Method if m in requested)


@dataclass(frozen=True, eq=False)
class _Batch:
    """Samples stacked as the rows of (rows, n) arrays, with what the method
    kernels read besides them. boot_seeds holds each row's bootstrap seed
    and is read, like boot_config, only by the bootstrap kernel."""

    xs: np.ndarray
    ys: np.ndarray
    spec: ConfidenceSpec
    trim: float = 0.25
    boot_config: BootstrapConfig | None = None
    boot_seeds: Sequence[int] = ()

    @cached_property
    def summaries(self) -> _RowSummaries:
        """The row summaries, computed once, when a kernel first reads them."""
        return _summarize_rows(self.xs, self.ys)


def _bootstrap_kernel(b: _Batch, methods: tuple[Method, ...]) -> tuple[_RowResults, ...]:
    return _bootstrap_rows(b.xs, b.ys, b.summaries, b.boot_seeds, b.boot_config, b.spec, methods)


# The one method registry: each method's kernel over the rows of a batch,
# (batch, methods) -> one _RowResults per method in `methods`, which holds
# the requested methods the kernel serves.
_KERNELS = {
    Method.FIELLER: lambda b, methods: (_fieller_rows(b.summaries, b.spec.quantile),),
    Method.TAYLOR: lambda b, methods: (_delta_rows(b.summaries, b.spec.quantile),),
    Method.INDEX: lambda b, methods: (_index_rows(b.xs, b.ys, b.spec, 0.0),),
    Method.TRIMMED_INDEX: lambda b, methods: (_index_rows(b.xs, b.ys, b.spec, b.trim),),
    Method.ZERO_VARIANCE: lambda b, methods: (_delta_rows(_known_x(b.summaries), b.spec.quantile),),
    Method.HWANG_BOOTSTRAP: _bootstrap_kernel,
    Method.BOOTSTRAP_PERCENTILE: _bootstrap_kernel,
    Method.BOOTSTRAP_BCA: _bootstrap_kernel,
}


def _kernel_rows(
    batch: _Batch, methods: tuple[Method, ...]
) -> Iterator[tuple[Method, _RowResults]]:
    """Yield (method, _RowResults) for each method, lazily and in order. A
    kernel serving several of the methods runs once for all of them, when
    the first is reached."""
    done: dict[Method, _RowResults] = {}
    for method in methods:
        if method not in done:
            kernel = _KERNELS[method]
            served = tuple(m for m in methods if _KERNELS[m] is kernel)
            done.update(zip(served, kernel(batch, served)))
        yield method, done[method]


def evaluate_methods(
    sample: PairedSample,
    methods: Iterable[Method | str],
    spec: ConfidenceSpec,
    boot_config: BootstrapConfig | None = None,
    trim: float = 0.25,
) -> Iterator[tuple[Method, MethodResult | RatioCiError]]:
    """Yield (method, result) for each method, lazily and in the given order:
    the method registry on a batch of one, and the one way to run any
    method on a sample.

    A method whose precondition fails on this sample yields its RatioCiError
    in place of the result; what that means is left to the caller. The
    sample is summarized once, first, so a sample that cannot be summarized
    (fewer than two pairs, say) raises before any method runs. The three
    bootstrap methods share one resampling, drawn when the first of them is
    reached; the two ratio-bootstrap methods both yield its error if their
    distribution fails. boot_config (BootstrapConfig() if None) is read only
    by the bootstrap methods, and trim only by trimmed_index. A method may
    be given by its name; it is yielded as its Method.
    """
    methods = tuple(Method(m) for m in methods)
    boot_config = boot_config or BootstrapConfig()
    batch = _Batch(sample.xs[None], sample.ys[None], spec, trim, boot_config, (boot_config.seed,))
    batch.summaries  # a summary that fails is no method's error
    for method, rows in _kernel_rows(batch, methods):
        try:
            yield method, rows.result(method)
        except RatioCiError as exc:
            yield method, exc


# Runs stacked per block: (rows, n) arrays of at most this many elements, so
# a cell's memory stays bounded for any n and number of runs.
_BLOCK_ELEMENTS = 1 << 14


def _block_runs(n: int) -> int:
    """Runs per block at n pairs."""
    return max(1, _BLOCK_ELEMENTS // n)


def _blocks(
    cell: SimCell,
    seed: int,
    runs: int,
    spec: ConfidenceSpec,
    trim: float = 0.25,
    boot_config: BootstrapConfig | None = None,
    first: int = 0,
) -> Iterator[tuple[int, _Batch, int]]:
    """(first run, batch, redraws) for each block of runs first, ..., runs - 1,
    in run order: the runs drawn by _draw_run as the batch's rows, with their
    bootstrap seeds if the batch carries a boot_config."""
    block = _block_runs(cell.n)
    for start in range(first, runs, block):
        rows = min(block, runs - start)
        xs, ys, redraws, seeds = _draw_run(cell, seed, start, rows, boot_config is not None)
        yield start, _Batch(xs, ys, spec, trim, boot_config, seeds), redraws


@dataclass
class _CellRecord:
    """What some runs of one cell gave; it pickles, so a forked job returns
    it whole. counts is keyed (method, "covered"), (method, "unbounded"),
    (method, "dropped") for dropped replicates, (method, "failures", error
    class) and (method, "fallbacks", reason). estimates holds, per method in
    request order, the finite estimates in run order. warnings are those a
    worker recorded, as (message, category, filename, lineno)."""

    counts: Counter[tuple]
    estimates: dict[Method, np.ndarray]
    runs: int
    redraws: int
    warnings: list[tuple] = field(default_factory=list)

    @classmethod
    def merge(cls, records: Sequence[_CellRecord]) -> _CellRecord:
        """One record of these, given in run order: counts summed, estimates concatenated."""
        return cls(
            sum((r.counts for r in records), Counter()),
            {m: np.concatenate([r.estimates[m] for r in records]) for m in records[0].estimates},
            sum(r.runs for r in records),
            sum(r.redraws for r in records),
            [w for r in records for w in r.warnings],
        )

    def result(self, cell: SimCell, seed: int) -> CoverageResult:
        """The cell's CoverageResult, when the record holds all its runs."""
        def by(key: tuple[Method, str]) -> dict[str, int]:
            return dict(sorted((k[2], v) for k, v in self.counts.items() if k[:2] == key))

        methods = {
            m: MethodCoverage(
                runs=self.runs,
                covered=self.counts[m, "covered"],
                unbounded_sets=self.counts[m, "unbounded"],
                estimate_mean=float(np.mean(est)) if est.size else math.nan,
                estimate_variance=float(np.var(est, ddof=1)) if est.size >= 2 else math.nan,
                failures=by((m, "failures")),
                fallbacks=by((m, "fallbacks")),
                dropped_replicates=self.counts[m, "dropped"],
            )
            for m, est in self.estimates.items()
        }
        return CoverageResult(cell=cell, seed=seed, methods=methods, redraws=self.redraws)


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
    never abort the cell. Every method runs once per block of stacked runs.
    Only boot_config.replications is read (2000 if None): each run is
    resampled from the last draw of its own stream, not boot_config.seed.
    Hwang's band is the BCa band, or the percentile band as a fallback.
    The runs are scheduled as the module docstring says, at the default cap.
    """
    return _simulate([cell], [_seed(seed)], methods, runs, boot_config, level, trim, None)[0]


def _piece_record(methods, boot_config, level, trim, cell, seed, first, stop) -> _CellRecord:
    """The record of runs first, ..., stop - 1 of the cell: one per block, merged in run order."""
    spec = ConfidenceSpec.two_sided(level, df=cell.n - 1)
    records = []
    for _, batch, redraws in _blocks(cell, seed, stop, spec, trim, boot_config, first):
        record = _CellRecord(Counter(), {}, len(batch.xs), redraws)
        for m, rows in _kernel_rows(batch, methods):
            ok = ~rows.failed
            infinite = np.isinf(rows.lower).any(axis=1) | np.isinf(rows.upper).any(axis=1)
            record.counts[m, "covered"] = int(np.count_nonzero(rows.contains(1.0)))
            record.counts[m, "unbounded"] = int(np.count_nonzero(ok & infinite))
            record.counts[m, "dropped"] = rows.dropped_replicates
            record.counts.update((m, "failures", type(e).__name__) for e in rows.errors.values())
            record.counts.update({(m, "fallbacks", r): k for r, k in rows.fallbacks.items()})
            record.estimates[m] = rows.estimate[ok & np.isfinite(rows.estimate)]
        records.append(record)
    return _CellRecord.merge(records)


def _run_seconds(n: int, methods: tuple[Method, ...], boot_config: BootstrapConfig | None) -> float:
    """Estimated single-core seconds of one run at n pairs: its draw, each
    closed-form method and, with a boot_config, the bootstrap kernel, whose B
    resamples draw n indices and, per pair, gather once for Hwang's pivot and
    twice for the ratio replicates. Fitted to cells timed on 2 vCPUs (Python
    3.11.7, numpy 2.4.6): within 20% at n = 4 to 5000 and B = 100 to 2000."""
    closed = [m for m in methods if _KERNELS[m] is not _bootstrap_kernel]
    seconds = 4e-6 + 6e-8 * n + len(closed) * (3.5e-7 + 6e-9 * n)
    if boot_config is not None:
        booted = len(methods) - len(closed)
        pivot = Method.HWANG_BOOTSTRAP in methods
        ratios = booted > pivot  # a ratio bootstrap method runs
        per_pair = 3.6e-9 + 1.6e-9 * pivot + 1.9e-9 * ratios
        per_replicate = 8e-8 + 5e-8 * booted + per_pair * n
        seconds += 8e-5 * booted + boot_config.replications * per_replicate
    return seconds


# A job's estimated single-core seconds: the break-even of two forked workers.
# On 2 vCPUs (Python 3.11.7, numpy 2.4.6; medians of 7 alternating runs of
# simulate --threads 2) the default grid at --runs 1000 (0.37 s by
# _run_seconds) took 0.47 s in process against 0.53 s as two jobs, and at
# --runs 1250 (0.46 s) 0.53 s against 0.48 s.
_JOB_SECONDS = 0.4


def _jobs(
    cells: Sequence[SimCell], runs: int, methods, boot_config, cap: int
) -> list[list[tuple[int, int, int]]]:
    """The jobs of the module docstring, each a list of (cell index, first
    run, stop) pieces. The cells share one n, so every run costs the same and
    job k ends at the first block end where the runs done reach share k + 1."""
    total = runs * len(cells)
    seconds = total * _run_seconds(cells[0].n, methods, boot_config)
    workers = min(cap, math.ceil(seconds / _JOB_SECONDS))
    if workers <= 1:
        return [[(i, 0, runs) for i in range(len(cells))]]
    count = workers * math.ceil(seconds / (_JOB_SECONDS * workers))
    block = _block_runs(cells[0].n)
    jobs, job, done = [], [], 0
    for i in range(len(cells)):
        for first in range(0, runs, block):
            stop = min(first + block, runs)
            if job and job[-1][0] == i:
                job[-1] = (i, job[-1][1], stop)
            else:
                job.append((i, first, stop))
            done += stop - first
            if done * count >= total * (len(jobs) + 1):
                jobs.append(job)
                job = []
    return jobs + [job] if job else jobs


def _cell_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def _pieces(settings: tuple, cells, seeds, job) -> Iterator[_CellRecord]:
    """The record of each (cell index, first run, stop) piece of the job, in
    order; settings are _piece_record's (methods, boot_config, level, trim)."""
    for i, first, stop in job:
        yield _piece_record(*settings, cells[i], seeds[i], first, stop)


def _recorded(settings: tuple, cells, seeds, job) -> list[_CellRecord]:
    """The job's records, each with the warnings this process's filters let
    through while it was made."""
    records = []
    for i, first, stop in job:
        with warnings.catch_warnings(record=True) as caught:
            record = _piece_record(*settings, cells[i], seeds[i], first, stop)
        record.warnings += [(w.message, w.category, w.filename, w.lineno) for w in caught]
        records.append(record)
    return records


def _daemonic() -> bool:
    """Whether this process is daemonic, and so cannot start processes."""
    from multiprocessing import current_process  # imported here, as the pool is

    return current_process().daemon


def _reissue(caught: list[tuple]) -> None:
    """Issue warnings a worker recorded again here, each from its own line and
    module, so this process's filters and registries decide which are shown."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            registry = vars(module).setdefault("__warningregistry__", {})
            warnings.warn_explicit(
                message, category, filename, lineno, module.__name__, registry, vars(module)
            )


def _simulate(
    cells: Sequence[SimCell],
    seeds: Sequence[int],
    methods: Iterable[Method],
    runs: int,
    boot_config: BootstrapConfig | None,
    level: float,
    trim: float,
    threads: int | None,
) -> list[CoverageResult]:
    """Each cell's CoverageResult, in cell order: the one scheduler of
    run_cell and run_grid.

    The jobs (_jobs) run as the module docstring says. The records come
    back in job order: each one's warnings are issued again here, through
    this process's filters, and each cell's records are merged in run order
    and summarized once its last piece arrives. Any split gives the same
    numbers, since every run is drawn from its own stream and every row is
    bit-equal alone or in a block.
    """
    methods = _normalized_methods(methods)
    runs = _integer(runs, "runs")
    if runs < 100:
        raise DomainError("need at least 100 runs per cell")
    if not any(_KERNELS[m] is _bootstrap_kernel for m in methods):
        boot_config = None
    elif boot_config is None:
        boot_config = BootstrapConfig()
    settings = (methods, boot_config, level, trim)
    cap = thread_cap(threads)
    jobs = _jobs(cells, runs, methods, boot_config, cap)
    parts: dict[int, list[_CellRecord]] = {}
    results = []

    def collect(outcomes: Iterable[Iterable[_CellRecord]]) -> None:
        for job, records in zip(jobs, outcomes):
            for (i, _, stop), record in zip(job, records):
                _reissue(record.warnings)
                parts.setdefault(i, []).append(record)
                if stop == runs:
                    results.append(_CellRecord.merge(parts.pop(i)).result(cells[i], seeds[i]))

    if len(jobs) > 1 and not _daemonic():
        # Imported here: the pool's modules would cost every CLI start otherwise.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(min(cap, len(jobs)), mp_context=get_context("fork")) as pool:
            collect(pool.map(partial(_recorded, settings, cells, seeds), jobs))
    else:
        collect(_pieces(settings, cells, seeds, job) for job in jobs)
    return results


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
    no matter how many workers execute it. threads caps the worker
    processes (thread_cap; the jobs are in the module docstring).
    boot_config is read as in run_cell: only its replications.
    """
    master_seed = _seed(master_seed, "master_seed")
    cells = gridspec.cells()
    seeds = [_cell_seed(master_seed, i) for i in range(len(cells))]
    results = _simulate(cells, seeds, methods, runs, boot_config, level, trim, threads)
    return CoverageGrid(spec=gridspec, runs=runs, master_seed=master_seed, results=tuple(results))


def error_bar_experiment(
    cell: SimCell, runs: int = 40, seed: int = 0, level: float = 0.95
) -> ErrorBarExperiment:
    """Per-run exact and per-pair-ratio intervals, ordered by estimate.

    At a 95% level roughly 2 of 40 intervals should miss the true ratio for
    a method whose coverage holds; a systematically biased method misses far
    more often. Rows are sorted by estimate within each method, the exact
    method's rows first.
    """
    runs, seed = _integer(runs, "runs"), _seed(seed)
    if runs < 1:
        raise DomainError("need at least one run")
    spec = ConfidenceSpec.two_sided(level, df=cell.n - 1)
    methods = (Method.FIELLER, Method.INDEX)
    per_method: dict[Method, list[ErrorBarRun]] = {m: [] for m in methods}
    for start, batch, _ in _blocks(cell, seed, runs, spec):
        kernels = dict(_kernel_rows(batch, methods))
        for i in range(len(batch.xs)):
            for method in methods:
                # Raises the row's error: the first failing run's, Fieller first.
                result = kernels[method].result(method, i)
                cset = result.confidence_set
                run = ErrorBarRun(method, start + i, result.estimate, cset, cset.contains(1.0))
                per_method[method].append(run)
    rows = tuple(r for m in methods for r in sorted(per_method[m], key=lambda r: r.estimate))
    return ErrorBarExperiment(cell=cell, seed=seed, level=level, rows=rows)


def _fmt(value: float) -> str:
    return repr(float(value))


def _cell(value: str | int | float | tuple) -> str:
    """One CSV cell: a string as it is, an integer in decimal, intervals
    as lo:hi pairs joined by ;, and a number empty where it is not finite."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, tuple):
        return ";".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in value)
    return _fmt(value) if math.isfinite(value) else ""


def _csv_rows(records: Sequence[dict]) -> list[list[str]]:
    """The header, the first record's keys, then each record's values
    under it, each written by _cell."""
    header = list(records[0])
    return [header] + [[_cell(record[name]) for name in header] for record in records]


def _set_record(cset: ConfidenceSet) -> dict:
    """The printed fields of a confidence set, as ci and errorbars write them."""
    return {
        "case": cset.case.value,
        "lower": cset.lower,
        "upper": cset.upper,
        "intervals": cset.intervals,
    }


def grid_csv_rows(grid: CoverageGrid) -> list[list[str]]:
    """Plot-ready long-format rows, one per (cell, method), plus header."""
    return _csv_rows(
        [
            {
                "cv_x": result.cell.cv_x,
                "cv_y": result.cell.cv_y,
                "n": result.cell.n,
                "corr": result.cell.corr,
                "method": method.value,
                "runs": tally.runs,
                "covered": tally.covered,
                "coverage": tally.coverage,
                "unbounded_sets": tally.unbounded_sets,
                "redraws": result.redraws,
            }
            for result in grid.results
            for method, tally in result.methods.items()
        ]
    )


def errorbar_csv_rows(experiment: ErrorBarExperiment) -> list[list[str]]:
    """One row per (method, run), its set in the cells of ci's CSV; the
    estimate is written by _fmt, so a non-finite one prints as repr."""
    return _csv_rows(
        [
            {
                "method": r.method.value,
                "run": r.run,
                "estimate": _fmt(r.estimate),
                **_set_record(r.confidence_set),
                "covers_true": "true" if r.covers_true else "false",
            }
            for r in experiment.rows
        ]
    )
