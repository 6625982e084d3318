"""The four benchmark workloads: the CLI argv each one runs, the inputs it
generates from the workload seed, and the checks its output must pass.

The checks are meant to survive deliberate changes to the random-number
layout: they test statistical properties and closed-form answers, never a
pinned digest of the output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import stdtrit

LEVEL = 0.95
# Coverage must lie within this many binomial standard errors of LEVEL.
COVERAGE_SES = 5.0
LIMIT_RTOL = 1e-9
MIN_REPS = 3
NPROC = len(os.sched_getaffinity(0))

CLOSED_FORM = ("fieller", "taylor", "index", "trimmed_index", "zero_variance")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    flags: tuple[str, ...]
    methods: tuple[str, ...]
    # simulate: grid cells, runs per cell and pairs per run;
    # ci: one "cell" of one "run" over `pairs` generated rows.
    cells: int
    runs: int
    pairs: int
    checked_method: str
    # About the wall time of one invocation at the seed commit on 2 Xeon
    # cores. It only sizes the run: a run repeats the invocation as often as
    # fits in --seconds at that speed, so every commit times the same number
    # of repetitions.
    nominal_s: float

    def reps(self, seconds: float) -> int:
        return max(MIN_REPS, int(seconds // self.nominal_s))

    @property
    def method_runs(self) -> int:
        return self.cells * self.runs * len(self.methods)

    @property
    def total_pairs(self) -> int:
        return self.cells * self.runs * self.pairs

    @property
    def threads(self) -> int | None:
        return NPROC if self.subcommand == "simulate" else None

    def argv(self, seed: int, input_path: Path | None) -> list[str]:
        out = [self.subcommand]
        if input_path is not None:
            out += ["--input", str(input_path)]
        out += [*self.flags, "--seed", str(seed)]
        if self.threads is not None:
            out += ["--threads", str(self.threads)]
        return out

    def help_argv(self) -> list[str]:
        return [self.subcommand, "--help"]

    def check(self, stdout: str, data: tuple[np.ndarray, np.ndarray] | None) -> list[str]:
        if self.subcommand == "simulate":
            return check_grid(self, stdout)
        return check_ci(self, stdout, data)


WORKLOADS = {
    w.name: w
    for w in (
        # The default grid users run: montecarlo, core and methods, no bootstrap.
        Workload("sim-closed", "simulate", (), CLOSED_FORM, 49, 500, 20, "fieller", 6.25),
        # Many small resamplings (n=500, B=2000 per run): the bootstrap layer.
        Workload(
            "sim-boot",
            "simulate",
            (
                "--cv-x", "0.3,3.0", "--cv-y", "0.1,1.0", "--n", "500", "--runs", "100",
                "--methods", "hwang_bootstrap,bootstrap_percentile,bootstrap_bca",
            ),
            ("hwang_bootstrap", "bootstrap_percentile", "bootstrap_bca"),
            4, 100, 500, "hwang_bootstrap", 8.5,
        ),
        # A large CSV with trivial methods: parsing and serialization in cli.
        Workload("ci-large", "ci", (), CLOSED_FORM, 1, 1, 500_000, "fieller", 2.5),
        # One resampling at large n, whose memory grows as O(B*n).
        Workload(
            "ci-boot",
            "ci",
            ("--methods", "fieller,hwang_bootstrap,bootstrap_percentile,bootstrap_bca"),
            ("fieller", "hwang_bootstrap", "bootstrap_percentile", "bootstrap_bca"),
            1, 1, 20_000, "fieller", 2.3,
        ),
    )
}


# ------------------------------------------------------------------- inputs


def generate_pairs(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlated normal pairs with the denominator mean far from zero, so
    every method succeeds and the exact set is a bounded interval."""
    rng = np.random.default_rng([seed, n])
    z = rng.standard_normal((2, n))
    xs = 10.0 + 2.0 * z[0]
    ys = 15.0 + 3.0 * (0.6 * z[0] + 0.8 * z[1])
    return xs, ys


def write_pairs(path: Path, xs: np.ndarray, ys: np.ndarray) -> None:
    # tolist() yields Python floats, whose repr is the shortest round-trip
    # form. The repr of a NumPy scalar reads np.float64(...), which the CLI
    # rightly rejects as malformed input.
    lines = ["x,y"]
    lines += [f"{x!r},{y!r}" for x, y in zip(xs.tolist(), ys.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------------- checks


def check_grid(wl: Workload, stdout: str) -> list[str]:
    """Row and method counts, and coverage of the checked method within
    COVERAGE_SES binomial standard errors of LEVEL in every cell."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    problems = []
    if len(rows) != wl.cells * len(wl.methods):
        problems.append(f"{len(rows)} rows, expected {wl.cells * len(wl.methods)}")
    per_cell: dict[tuple[str, str], list[str]] = {}
    for row in rows:
        per_cell.setdefault((row["cv_x"], row["cv_y"]), []).append(row["method"])
    if len(per_cell) != wl.cells:
        problems.append(f"{len(per_cell)} cells, expected {wl.cells}")
    for cell, methods in per_cell.items():
        if sorted(methods) != sorted(wl.methods):
            problems.append(f"cell {cell}: methods {methods}")
    se = math.sqrt(LEVEL * (1.0 - LEVEL) / wl.runs)
    for row in rows:
        if row["method"] != wl.checked_method:
            continue
        runs, covered = int(row["runs"]), int(row["covered"])
        if runs != wl.runs:
            problems.append(f"cell ({row['cv_x']}, {row['cv_y']}): {runs} runs")
        elif abs(covered / runs - LEVEL) > COVERAGE_SES * se:
            problems.append(
                f"cell ({row['cv_x']}, {row['cv_y']}): {wl.checked_method} "
                f"coverage {covered}/{runs} is more than {COVERAGE_SES:g} SE from {LEVEL}"
            )
    return problems


def fieller_reference(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Estimate and limits of the exact set, from the textbook quadratic
    (mx^2 - q^2 vx) r^2 - 2 (mx my - q^2 cxy) r + (my^2 - q^2 vy) = 0."""
    n = xs.size
    mx, my = float(xs.mean()), float(ys.mean())
    dx, dy = xs - mx, ys - my
    scale = 1.0 / (n * (n - 1))
    vx, vy, cxy = float(dx @ dx) * scale, float(dy @ dy) * scale, float(dx @ dy) * scale
    q2 = float(stdtrit(n - 1, 0.5 * (1.0 + LEVEL))) ** 2
    a = mx * mx - q2 * vx
    half_b = mx * my - q2 * cxy
    c = my * my - q2 * vy
    disc = half_b * half_b - a * c
    if not (a > 0.0 and disc > 0.0):
        raise ValueError("generated data should give a bounded exact set")
    big = half_b + math.copysign(math.sqrt(disc), half_b)
    r1, r2 = big / a, c / big
    return my / mx, min(r1, r2), max(r1, r2)


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= LIMIT_RTOL * abs(b)


def check_ci(wl: Workload, stdout: str, data) -> list[str]:
    """Method count and names, and the exact limits against fieller_reference."""
    try:
        records = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    names = [r.get("method") for r in records]
    if sorted(names) != sorted(wl.methods):
        return [f"methods {names}, expected {list(wl.methods)}"]
    record = records[names.index(wl.checked_method)]
    estimate, lower, upper = fieller_reference(*data)
    limits = record.get("lower"), record.get("upper")
    problems = []
    if not _close(record.get("estimate"), estimate):
        problems.append(f"estimate {record.get('estimate')!r}, expected {estimate!r}")
    if not (_close(limits[0], lower) and _close(limits[1], upper)):
        problems.append(f"limits {limits!r}, expected {(lower, upper)!r}")
    return problems
