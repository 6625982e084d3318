"""Digests of the CLI's stdout and exit code for a fixed list of argvs.

Run: python3 scripts/stdout_digests.py > digests.txt

Each argv runs as `python -m ratio_ci.cli ...` from this checkout's src/,
one at a time, and prints one line: the sha256 of its stdout, its exit code
and the argv, with input files by name. Run it in two checkouts and diff
the two outputs to check that a change leaves the CLI's bytes alone.

The argvs are the four perfbench workloads at seeds 1 and 2, the default
`simulate`, the argvs of acceptance criterion 8 (tests/test_acceptance.py),
`ci` with all eight methods in both orders on the three-pair worked
example, on 200 generated pairs and on samples where some methods fail,
and the three bootstrap methods in two orders under `ci` on two such
samples and under a small `simulate`. The generated inputs come from perfbench/workloads.py.

Four more reach the rare branches of the band inversion: `simulate`
and `errorbars` at cv_x = 3, where Fieller's and Hwang's sets are often
unbounded and some Hwang bands leave a half-line, and `ellipse` on a
pure-noise sample (no tangent slope: the origin is inside the ellipse) and
on a zero-mean-x sample (the ellipse straddles the y-axis).

The last two mix failing and working rows: `simulate` at n = 4 with Hwang
and BCa, where each cell is one block in which Hwang keeps too few
replicates on 84 and 83 of the 100 rows and returns sets on the others (6
and 16 of them unbounded), and `ci` with both ratio bootstraps on a
sample with x = (-1, 1, -1, 1, 2), where 13 of 100 resamples have a zero
mean of x, so both fail with too few replicates (exit 3).
"""

from __future__ import annotations

import hashlib
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
        "noise.csv": _write_csv(tmp / "noise.csv", "x,y", zip(*noise.tolist())),
        # mean(x) == 0: Hwang fails, the ratio bootstrap drops resamples.
        "zero-mean.csv": _write_csv(
            tmp / "zero-mean.csv", "x,y", zip((-2.0, -1.0, 0.5, 1.0, 1.5), range(1, 6))
        ),
        # Some resamples have mean(x) == 0: the ratio bootstraps drop them.
        "plus-minus-one.csv": _write_csv(
            tmp / "plus-minus-one.csv", "x,y", zip((-1.0, 1.0, -1.0, 1.0, 2.0), range(1, 6))
        ),
    }
    write_pairs(tmp / "pairs200.csv", *generate_pairs(3, 200))
    files["pairs200.csv"] = tmp / "pairs200.csv"
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
    out += [  # failing and working rows side by side
        ["simulate", "--n", "4", "--runs", "100", "--replications", "100", "--cv-x", "0.3,3.0",
         "--cv-y", "0.5", "--methods", "hwang_bootstrap,bootstrap_bca", "--seed", "5"],
        ["ci", "--input", str(files["plus-minus-one.csv"]), "--methods",
         "bootstrap_percentile,bootstrap_bca", "--replications", "100", "--seed", "3"],
    ]
    return out


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "RATIO_CI_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
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
