"""Digests of the CLI's stdout and exit code for a fixed list of argvs.

Run: python3 scripts/stdout_digests.py > digests.txt

Each argv runs as `python -m ratio_ci.cli ...` from this checkout's src/,
one at a time, and prints one line: the sha256 of its stdout, its exit code
and the argv, with input files by name. Run it in two checkouts and diff
the two outputs to check that a change leaves the CLI's bytes alone.

The argvs, in list order:

- the four perfbench workloads at seeds 1 and 2, the default `simulate`,
  and the argvs of acceptance criterion 8 (tests/test_acceptance.py);
- `ci` with all eight methods in both orders on the three-pair worked
  example, on 200 generated pairs (from perfbench/workloads.py) and on
  samples where some methods fail;
- the three bootstrap methods in two orders under `ci` on two such
  samples and under a small `simulate`;
- four that reach the rare branches of the band inversion: `simulate` and
  `errorbars` at cv_x = 3, where Fieller's and Hwang's sets are often
  unbounded and some Hwang sets are a half-line or a half-line beside a
  bounded interval, and `ellipse` on a pure-noise sample (no tangent slope:
  the origin is inside the ellipse) and on a zero-mean-x sample (the
  ellipse straddles the y-axis);
- two that mix failing and working rows: `simulate` at n = 4 with Hwang
  and BCa, where each cell is one block in which Hwang keeps too few
  replicates on 84 and 83 of the 100 rows and returns sets on the others
  (7 and 16 of them unbounded), and `ci` with both ratio bootstraps on a
  sample with x = (-1, 1, -1, 1, 2), where 13 of 100 resamples have a
  zero mean of x, so both fail with too few replicates (exit 3);
- two that pin the runs' streams, default_rng([seed, run, attempt]):
  `errorbars --seed 18446744073709551621` (2^64 + 5), whose five-word
  entropy reaches SeedSequence's extra mixing loop, and `errorbars --n 500
  --runs 60`, which spans two blocks of runs, the second ragged;
- three that fail a precondition in the subcommand itself, so `main`
  prints `error: <subcommand>: ...` and exits 3: `ellipse` on three equal
  pairs (both mean variances are zero), and `errorbars` and `simulate` at
  cv_x = 1e308, where every draw of x overflows;
- three that run `ci` on the worked example with each bootstrap method
  alone (`--methods hwang_bootstrap`, `bootstrap_percentile` and
  `bootstrap_bca`, each `--replications 1000 --seed 3`), so each method's
  path is pinned apart from the others;
- four that run `ci --format csv` on the worked example written four other
  ways: with quoted fields, with a whitespace-only row, with `6.3_4` and
  Arabic-Indic spellings, and with the columns in the order y,x. The first
  three are read by the csv module's path, the last by NumPy's reader; all
  four should print the bytes of criterion 8's `ci --format csv` line;
- two that run `ci --methods hwang_bootstrap --seed 1` on 20 pairs drawn
  as in the simulation cell (cv_x, cv_y, n) = (3.0, 0.1, 20), from
  default_rng(9) and default_rng(39): the first set is a half-line
  [a, inf), the second (-inf, b] joined with a bounded [c, d];
- two that run `ci` on three pairs at the boundedness threshold, x = (1 - d,
  1 + d, 1) and y = (0.5, 0.9, 0.4) with d = sqrt(3)/t (1 -+ 1e-10) and t
  the 0.975 t quantile at df 2, so that mean_x^2/var_mean_x is t^2 (1 +-
  2e-10): Fieller's set is [-0.3488, 1.0317e9] on the first and
  (-inf, -1.0317e9] joined with [-0.3488, inf) on the second, segments
  beside a huge cut;
- three that pin the closed-form taxonomy and the regression sums: `ci
  --methods taylor` on x = (1, 2, 3), y = (-1, 0, 1), where mean_y = 0 and
  Taylor's interval is still defined; `ci --methods index,trimmed_index
  --trim 0` on the noise sample, whose two records have the same numbers;
  and `regress --model ancova` on three groups of 20 pairs with x in [1e5,
  2e5] and y = (2 + 0.001 g) x + N(0, 1e-3^2), a fit so tight that the
  sums of squares must come from the residuals;
- two that run `ci` on the worked example at levels where 0.5*(1 + level)
  rounds, so the t quantile must come from the tail 0.5*(1 - level):
  `--level 0.9999999999999999` (1 - 2^-53, where the sum rounds to 1) and
  `--level 0.999`;
- the two Hwang samples above again with `--format csv`, so that the CSV
  cells of a half-line, `lower` set and `upper` empty, and of a half-line
  beside a bounded interval are pinned as well as their JSON;
- three regression views: `regress --model deflated` in JSON, which pins
  the relabelled fit at full precision (criterion 8 pins only its 6-digit
  text), `regress --model ancova --format text`, and `regress --model ols
  --regressors x,x`, which names a column twice and exits 2;
- `regress --model ols --regressors "x, "`, whose names are stripped and
  whose empty name is skipped: it should print the bytes of criterion 8's
  `--regressors x` line;
- two on files that start with a UTF-8 byte-order mark, as Excel's "CSV
  UTF-8" writes them: `ci --format csv` on the worked example and `regress
  --model ancova` on the groups file. The mark is skipped, so they should
  print the bytes of criterion 8's lines on the unmarked files;
- two that append `--threads 1` to the `sim-closed` seed-1 argv and to the
  n = 4 `simulate` argv with failing and working rows: each should print
  the bytes of its twin above. Both grids are one job of the scheduler, so
  each twin runs in this process too;
- `ci --methods hwang_bootstrap --seed 1` on the 20 000-pair `ci-boot`
  input of seed 1, which runs the pivot alone over many resampling blocks;
- a twin, at `--threads 1` and `--threads 2`, of one bootstrap cell at
  n = 500 with the three bootstrap methods and 100 runs: about 0.8 s of
  estimated work, so on a host with two or more CPUs its runs are two
  jobs, runs 0-63 and 64-99, on two forked workers. Both should print the
  same bytes;
- `ci` with Fieller and the three bootstrap methods, `--replications 2001
  --seed 1`, on 20 001 generated pairs: each block of three resamples
  draws 60 003 indices, an odd number of 32-bit words, so every other
  block starts on the half-word left by the one before, and about 117 of
  the 40 million words are rejected by the bounded draw.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, generate_pairs, write_pairs  # noqa: E402

WORKED_X = (6.34, 4.02, 2.88)
WORKED_Y = (4.87, 8.30, 11.66)
ALL_METHODS = (
    "fieller,taylor,index,trimmed_index,zero_variance,"
    "bootstrap_percentile,bootstrap_bca,hwang_bootstrap"
)
BOOTSTRAP = ("hwang_bootstrap", "bootstrap_percentile", "bootstrap_bca")


def _write_csv(path: Path, header: str, rows) -> Path:
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")
    return path


def inputs(tmp: Path) -> dict[str, Path]:
    """The input CSVs, by name."""
    rng = np.random.default_rng(5)
    xs = rng.uniform(1.0, 10.0, 16)
    ys = 2.0 + 3.0 * xs + rng.normal(0.0, 0.5, 16)
    groups = []
    for x in (1.0, 2.0, 3.0, 4.0):
        groups += [(x, 2.0 * x, "a"), (x, 2.4 * x, "b")]
    noise = np.random.default_rng(9).normal(0.0, 1.0, (2, 30))
    files = {
        "worked.csv": _write_csv(tmp / "worked.csv", "x,y", zip(WORKED_X, WORKED_Y)),
        "line.csv": _write_csv(tmp / "line.csv", "x,y", zip(xs, ys)),
        "groups.csv": _write_csv(tmp / "groups.csv", "x,y,group", groups),
        # Every resample of a constant sample is the same: Hwang fails and
        # the ratio BCa falls back to percentiles.
        "constant.csv": _write_csv(tmp / "constant.csv", "x,y", [(1.0, 2.0)] * 5),
        "equal.csv": _write_csv(tmp / "equal.csv", "x,y", [(1.0, 2.0)] * 3),
        "noise.csv": _write_csv(tmp / "noise.csv", "x,y", zip(*noise.tolist())),
        # mean(x) == 0: Hwang fails, the ratio bootstrap drops resamples.
        "zero-mean.csv": _write_csv(
            tmp / "zero-mean.csv", "x,y", zip((-2.0, -1.0, 0.5, 1.0, 1.5), range(1, 6))
        ),
        # Some resamples have mean(x) == 0: the ratio bootstraps drop them.
        "plus-minus-one.csv": _write_csv(
            tmp / "plus-minus-one.csv", "x,y", zip((-1.0, 1.0, -1.0, 1.0, 2.0), range(1, 6))
        ),
        "zero-mean-y.csv": _write_csv(tmp / "zero-mean-y.csv", "x,y", zip((1, 2, 3), (-1, 0, 1))),
    }
    for name, plain in (("worked-bom.csv", "worked.csv"), ("groups-bom.csv", "groups.csv")):
        files[name] = tmp / name
        files[name].write_bytes(b"\xef\xbb\xbf" + files[plain].read_bytes())
    tight = np.random.default_rng(3)
    rows = []
    for g in range(3):
        x = tight.uniform(1e5, 2e5, 20)
        rows += zip(x, (2.0 + 1e-3 * g) * x + tight.normal(0.0, 1e-3, 20), [g] * 20)
    files["tight-groups.csv"] = _write_csv(tmp / "tight-groups.csv", "x,y,group", rows)
    rows = list(zip(WORKED_X, WORKED_Y))
    spelled = (("\u0666.\u0663\u0664", "4.8_7"), ("4.02", "8.3_0"), ("\u0662.88", "1_1.66"))
    for name, text in {
        "worked-quoted.csv": '"x","y"\n' + "".join(f'"{x}","{y}"\n' for x, y in rows),
        "worked-blank-row.csv": "x,y\n \t \n" + "".join(f"{x},{y}\n" for x, y in rows),
        "worked-spelled.csv": "x,y\n" + "".join(f"{x},{y}\n" for x, y in spelled),
        "worked-yx.csv": "y,x\n" + "".join(f"{y},{x}\n" for x, y in rows),
    }.items():
        files[name] = tmp / name
        files[name].write_text(text, encoding="utf-8")
    t = 0.95 / math.sqrt(0.04875)  # the 0.975 t quantile at df 2, in closed form
    for name, sign in (("threshold-bounded.csv", -1.0), ("threshold-unbounded.csv", 1.0)):
        d = math.sqrt(3.0) / t * (1.0 + sign * 1e-10)
        files[name] = _write_csv(tmp / name, "x,y", zip((1.0 - d, 1.0 + d, 1.0), (0.5, 0.9, 0.4)))
    for name, seed in (("cell-half-line.csv", 9), ("cell-union.csv", 39)):
        z = np.random.default_rng(seed).standard_normal((2, 20))
        files[name] = _write_csv(tmp / name, "x,y", zip(1.0 + 3.0 * z[0], 1.0 + 0.1 * z[1]))
    for pairs, seed in ((200, 3), (20_001, 1)):
        files[f"pairs{pairs}.csv"] = tmp / f"pairs{pairs}.csv"
        write_pairs(files[f"pairs{pairs}.csv"], *generate_pairs(seed, pairs))
    for name in ("ci-large", "ci-boot"):
        for seed in (1, 2):
            path = tmp / f"{name}-{seed}.csv"
            write_pairs(path, *generate_pairs(seed, WORKLOADS[name].pairs))
            files[path.name] = path
    return files


def argvs(files: dict[str, Path]) -> list[list[str]]:
    out = []
    for name, wl in WORKLOADS.items():
        for seed in (1, 2):
            path = files.get(f"{name}-{seed}.csv")
            out.append(wl.argv(seed, path))
    worked, line, groups = (str(files[k]) for k in ("worked.csv", "line.csv", "groups.csv"))
    out.append(["simulate"])
    out += [  # acceptance criterion 8
        ["ci", "--input", worked, "--methods", ALL_METHODS, "--replications", "1000",
         "--seed", "3"],
        ["ci", "--input", worked, "--format", "csv"],
        ["simulate", "--cv-x", "0.3,1.0", "--cv-y", "0.5", "--n", "10", "--runs", "100",
         "--methods", "fieller,taylor,index", "--seed", "4"],
        ["errorbars", "--cv-x", "0.5", "--cv-y", "0.3", "--n", "40", "--runs", "10",
         "--seed", "6"],
        ["ellipse", "--input", worked, "--format", "svg"],
        ["ellipse", "--input", worked, "--format", "csv", "--points", "64"],
        ["regress", "--input", line, "--model", "ols", "--response", "y",
         "--regressors", "x"],
        ["regress", "--input", groups, "--model", "ancova"],
        ["regress", "--input", line, "--model", "deflated", "--format", "text"],
        ["regress", "--input", line, "--model", "allometric"],
        ["demo", "stork"],
    ]
    reversed_methods = ",".join(ALL_METHODS.split(",")[::-1])
    for name in ("worked.csv", "pairs200.csv", "constant.csv", "noise.csv"):
        for fmt in ("json", "csv"):
            out.append(["ci", "--input", str(files[name]), "--methods", ALL_METHODS,
                        "--format", fmt, "--seed", "2"])
        out.append(["ci", "--input", str(files[name]), "--methods", reversed_methods,
                    "--replications", "500", "--seed", "7"])
    for order in (BOOTSTRAP, BOOTSTRAP[::-1]):
        for name in ("constant.csv", "zero-mean.csv"):
            out.append(["ci", "--input", str(files[name]), "--methods", ",".join(order),
                        "--seed", "2"])
        for n in ("3", "10"):
            out.append(["simulate", "--n", n, "--runs", "100", "--replications", "200",
                        "--cv-x", "0.3,3.0", "--cv-y", "0.5", "--methods", ",".join(order),
                        "--seed", "5"])
    out += [  # the band inversion's rare branches
        ["simulate", "--cv-x", "3.0", "--cv-y", "0.1", "--n", "20", "--runs", "300",
         "--methods", "fieller,hwang_bootstrap", "--seed", "1"],
        ["errorbars", "--cv-x", "3.0", "--cv-y", "0.1", "--n", "20", "--runs", "40",
         "--seed", "1"],
    ]
    for name in ("noise.csv", "zero-mean.csv"):
        out.append(["ellipse", "--input", str(files[name]), "--format", "csv"])
    mixed_rows = ["simulate", "--n", "4", "--runs", "100", "--replications", "100", "--cv-x",
                  "0.3,3.0", "--cv-y", "0.5", "--methods", "hwang_bootstrap,bootstrap_bca",
                  "--seed", "5"]
    out += [  # failing and working rows side by side
        mixed_rows,
        ["ci", "--input", str(files["plus-minus-one.csv"]), "--methods",
         "bootstrap_percentile,bootstrap_bca", "--replications", "100", "--seed", "3"],
    ]
    out += [  # the runs' streams: a long entropy, and a ragged second block
        ["errorbars", "--cv-x", "3", "--cv-y", "0.1", "--seed", "18446744073709551621"],
        ["errorbars", "--cv-x", "3", "--cv-y", "0.1", "--n", "500", "--runs", "60",
         "--seed", "2"],
    ]
    out += [  # preconditions that fail in the subcommand: exit 3
        ["ellipse", "--input", str(files["equal.csv"])],
        ["errorbars", "--cv-x", "1e308", "--cv-y", "1", "--n", "20", "--runs", "5"],
        ["simulate", "--cv-x", "1e308", "--cv-y", "1", "--n", "5", "--runs", "100",
         "--methods", "fieller"],
    ]
    for method in BOOTSTRAP:  # each bootstrap method's path alone
        out.append(["ci", "--input", worked, "--methods", method, "--replications", "1000",
                    "--seed", "3"])
    for name in ("worked-quoted.csv", "worked-blank-row.csv", "worked-spelled.csv",
                 "worked-yx.csv"):  # the worked example, spelled four other ways
        out.append(["ci", "--input", str(files[name]), "--format", "csv"])
    for name in ("cell-half-line.csv", "cell-union.csv"):  # Hwang's other unbounded shapes
        out.append(["ci", "--input", str(files[name]), "--methods", "hwang_bootstrap",
                    "--seed", "1"])
    for name in ("threshold-bounded.csv", "threshold-unbounded.csv"):  # beside a huge cut
        out.append(["ci", "--input", str(files[name])])
    out += [  # Taylor at mean_y = 0, index as trimmed-index at 0, a tight ANCOVA
        ["ci", "--input", str(files["zero-mean-y.csv"]), "--methods", "taylor"],
        ["ci", "--input", str(files["noise.csv"]), "--methods", "index,trimmed_index",
         "--trim", "0"],
        ["regress", "--input", str(files["tight-groups.csv"]), "--model", "ancova"],
    ]
    for level in ("0.9999999999999999", "0.999"):  # the quantile from the tail
        out.append(["ci", "--input", worked, "--level", level])
    for name in ("cell-half-line.csv", "cell-union.csv"):  # their set cells in CSV
        out.append(["ci", "--input", str(files[name]), "--methods", "hwang_bootstrap",
                    "--seed", "1", "--format", "csv"])
    out += [  # the relabelled fits at full precision, and a repeated regressor
        ["regress", "--input", line, "--model", "deflated"],
        ["regress", "--input", groups, "--model", "ancova", "--format", "text"],
        ["regress", "--input", line, "--model", "ols", "--response", "y",
         "--regressors", "x,x"],
        ["regress", "--input", line, "--model", "ols", "--response", "y",
         "--regressors", "x, "],
    ]
    out += [  # a leading byte-order mark
        ["ci", "--input", str(files["worked-bom.csv"]), "--format", "csv"],
        ["regress", "--input", str(files["groups-bom.csv"]), "--model", "ancova"],
    ]
    for argv in (WORKLOADS["sim-closed"].argv(1, None), mixed_rows):  # one worker, no fork
        out.append([*argv, "--threads", "1"])
    out.append(["ci", "--input", str(files["ci-boot-1.csv"]), "--methods", "hwang_bootstrap",
                "--seed", "1"])  # the pivot alone, over many blocks
    for threads in ("1", "2"):  # one cell, in this process and split across workers
        out.append(["simulate", "--cv-x", "3.0", "--cv-y", "0.1", "--n", "500", "--runs", "100",
                    "--methods", ",".join(BOOTSTRAP), "--seed", "1", "--threads", threads])
    out.append(["ci", "--input", str(files["pairs20001.csv"]), "--methods",
                "fieller," + ",".join(BOOTSTRAP), "--replications", "2001", "--seed", "1"])
    return out


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory(prefix="stdout-digests-") as tmp_name:
        tmp = Path(tmp_name)
        files = inputs(tmp)
        for argv in argvs(files):
            child = subprocess.run(
                [sys.executable, "-m", "ratio_ci.cli", *argv],
                capture_output=True, env=env, cwd=ROOT, check=False,
            )
            shown = " ".join(Path(a).name if a.startswith(tmp_name) else a for a in argv)
            digest = hashlib.sha256(child.stdout).hexdigest()
            print(f"{digest}  {child.returncode}  {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
