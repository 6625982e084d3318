"""Command-line front end.

Subcommands: ci (confidence sets for one dataset), simulate (coverage
grid), errorbars (per-run interval experiment), ellipse (geometric
construction export), regress (regression views), demo (worked examples).

Exit codes: 0 success, 2 malformed input or usage, 3 a precondition failed
on valid input. `main` maps every RatioCiError to `error: <subcommand>: ...`
and exit 3; only ci and regress name the method or the model instead. ci
runs every method, prints the records of those that returned a set, then
one `error: <method>: ...` line per failed method in request order, and
exits 3 if any failed.
All output is deterministic given the flags; nothing reads the clock or
ambient entropy, and --threads only changes the schedule, never the
numbers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .bootstrap import BootstrapConfig
from .core import ConfidenceSpec, PairedSample, summarize
from .errors import RatioCiError
from .geometry import construct_wedge, wedge_csv_rows, wedge_svg
from .linear_models import (
    RATIO_SLOPE_NOTE,
    RegressionFit,
    allometric_fit,
    ancova_ratio_compare,
    deflated_fit,
    ols_fit,
    spurious_demo,
    stork_demo_table,
)
from .methods import ConfidenceSet, Method, MethodResult
from .montecarlo import (
    CoverageGrid,
    ErrorBarExperiment,
    GridSpec,
    SimCell,
    error_bar_experiment,
    evaluate_methods,
    run_grid,
)

CLOSED_FORM = "fieller,taylor,index,trimmed_index,zero_variance"


class _InputError(Exception):
    """Malformed input file or value; maps to exit code 2."""


# ---------------------------------------------------------------- arg types


def _float_arg(accept, message: str):
    """A float for which accept(value) holds; else message, formatted with text."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(message.format(text=text))
        return value

    return parse


_level_arg = _float_arg(lambda v: 0.0 < v < 1.0, "level must lie strictly between 0 and 1")
_trim_arg = _float_arg(lambda v: 0.0 <= v < 0.5, "trim must lie in [0, 0.5)")
_corr_arg = _float_arg(lambda v: abs(v) <= 1.0, "correlation must lie in [-1, 1]")
# One coefficient of variation: a finite positive number.
_cv_arg = _float_arg(lambda v: 0.0 < v < math.inf, "not a finite positive number: {text!r}")


def _positive_int(minimum: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}")
        return value

    return parse


def _names_arg(text: str) -> list[str]:
    """A comma list of names, each stripped, with the empty ones skipped."""
    return [name for name in (part.strip() for part in text.split(",")) if name]


def _methods_arg(text: str) -> tuple[Method, ...]:
    out: list[Method] = []
    for name in _names_arg(text):
        try:
            method = Method(name)
        except ValueError:
            known = ", ".join(m.value for m in Method)
            raise argparse.ArgumentTypeError(f"unknown method {name!r} (known: {known})")
        if method not in out:
            out.append(method)
    if not out:
        raise argparse.ArgumentTypeError("need at least one method")
    return tuple(out)


def _axis_arg(text: str) -> tuple[float, ...]:
    """Either an explicit comma list '0.3,1,3' or a log range 'lo:hi:count'."""
    try:
        if ":" in text:
            lo_s, hi_s, count_s = text.split(":")
            lo, hi, count = _cv_arg(lo_s), _cv_arg(hi_s), int(count_s)
            if lo > hi or count < 1:
                raise ValueError
            values = tuple(float(v) for v in np.geomspace(lo, hi, count))
        else:
            values = tuple(_cv_arg(v) for v in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"bad axis {text!r}: use 'v1,v2,...' or 'low:high:count', all finite and positive"
        )
    return values


# ------------------------------------------------------------------- output


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _fmt(value: float) -> str:
    return repr(float(value))


def _cell(value: str | int | float | tuple) -> str:
    """One CSV cell: a string as it is, an integer in decimal, intervals
    as lo:hi pairs joined by ;, and a number empty where it is not finite."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        return ";".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in value)
    return _fmt(value) if math.isfinite(value) else ""


def _csv_text(records: Sequence[dict]) -> str:
    """The first record's keys as the header, then each record's values
    under it, each written by _cell."""
    header = list(records[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(record[name]) for name in header] for record in records)
    return buf.getvalue()


def _jsonable(obj):
    """Dataclasses to dicts, enums to strings, non-finite floats to null."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _set_record(cset: ConfidenceSet) -> dict:
    """The printed fields of a confidence set, as ci and errorbars write them."""
    return {
        "case": cset.case.value,
        "lower": cset.lower,
        "upper": cset.upper,
        "intervals": cset.intervals,
    }


def _result_record(result: MethodResult) -> dict:
    return {
        "method": result.method.value,
        "estimate": result.estimate,
        **_set_record(result.confidence_set),
        "diagnostics": result.diagnostics,
    }


def _grid_records(grid: CoverageGrid) -> list[dict]:
    """simulate's plot-ready long format: one record per (cell, method)."""
    return [
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


def _errorbar_records(experiment: ErrorBarExperiment) -> list[dict]:
    """errorbars' records, one per (method, run), its set as ci writes it;
    the estimate is written by _fmt, so a non-finite one prints as repr."""
    return [
        {
            "method": r.method.value,
            "run": r.run,
            "estimate": _fmt(r.estimate),
            **_set_record(r.confidence_set),
            "covers_true": "true" if r.covers_true else "false",
        }
        for r in experiment.rows
    ]


# -------------------------------------------------------------------- input


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}")


def _parse_table(path: str) -> dict[str, list[str]]:
    """The raw fields of each column, by stripped header name; blank rows skipped."""
    reader = csv.reader(io.StringIO(_read_text(path)))
    # Lazy, so reader.line_num names the physical line of the current row.
    rows = (row for row in reader if "".join(row).strip())
    try:
        header = [name.strip() for name in next(rows, ())]
        if not header:
            raise _InputError(f"{path} is empty")
        if len(set(header)) != len(header) or any(not h for h in header):
            raise _InputError(f"{path}: header must be unique non-empty column names")
        columns: list[list[str]] = [[] for _ in header]
        for row in rows:
            if len(row) != len(header):
                raise _InputError(f"{path}:{reader.line_num}: expected {len(header)} fields")
            for column, field in zip(columns, row):
                column.append(field)
    except csv.Error as exc:
        raise _InputError(f"{path}:{reader.line_num}: {exc}")
    return dict(zip(header, columns))


def _numeric_column(table: dict, name: str, path: str) -> np.ndarray:
    if name not in table:
        raise _InputError(f"{path}: missing column {name!r}")
    column = table[name]
    try:
        return np.fromiter(map(float, map(str.strip, column)), dtype=float, count=len(column))
    except ValueError as exc:
        raise _InputError(f"{path}: column {name!r}: {exc}")


def _plain_columns(path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The x and y columns by NumPy's C reader, or None if it does not apply.

    It applies to a regular file whose first line is a csv row x,y (either
    order, names quoted or not) and whose other lines are two plain numbers.
    The csv path stays the rule: NumPy's reader rejects every spelling that
    path reads differently (quotes, empty fields, whitespace-only rows,
    underscores, non-ASCII digits) and gives the same doubles where it
    accepts. On None the input goes to the csv path, which names the error;
    a pipe is left to it unread, as it can be read only once.
    """
    if not os.path.isfile(path):
        return None
    try:
        with open(path, encoding="utf-8-sig") as f:
            header = [name.strip() for name in next(csv.reader([f.readline()], strict=True))]
            if sorted(header) != ["x", "y"]:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (OSError, ValueError, Warning, csv.Error):
        return None
    if data.shape[0] < 2 or data.shape[1] != 2:
        return None
    xs, ys = (np.ascontiguousarray(data[:, header.index(name)]) for name in ("x", "y"))
    return xs, ys


def _load_pairs(path: str) -> PairedSample:
    columns = _plain_columns(path)
    if columns is not None:
        return _paired(*columns, path)
    table = _parse_table(path)
    if set(table) != {"x", "y"}:
        raise _InputError(f"{path}: expected exactly the columns x,y")
    return _table_pairs(table, path)


def _table_pairs(table: dict, path: str) -> PairedSample:
    return _paired(_numeric_column(table, "x", path), _numeric_column(table, "y", path), path)


def _paired(xs: np.ndarray, ys: np.ndarray, path: str) -> PairedSample:
    if xs.size < 2:
        raise _InputError(f"{path}: need at least 2 data rows")
    try:
        return PairedSample(xs, ys)
    except RatioCiError as exc:
        raise _InputError(f"{path}: {exc}")


# ----------------------------------------------------------------- handlers


def _boot_config(args: argparse.Namespace, seed: int = 0) -> BootstrapConfig:
    """The bootstrap config; warns when a requested method reads the BCa
    adjustment from fewer than 1000 replications."""
    config = BootstrapConfig(replications=args.replications, seed=seed)
    bca = Method.BOOTSTRAP_BCA in args.methods or Method.HWANG_BOOTSTRAP in args.methods
    if bca and config.replications < 1000:
        warnings.warn(
            "fewer than 1000 replications makes BCa quantile adjustment noisy",
            RuntimeWarning,
            stacklevel=2,
        )
    return config


def _cmd_ci(args: argparse.Namespace) -> int:
    sample = _load_pairs(args.input)
    spec = ConfidenceSpec.two_sided(args.level, df=sample.n - 1)
    config = _boot_config(args, seed=args.seed)
    records, failures = [], []
    for method, result in evaluate_methods(sample, args.methods, spec, config, args.trim):
        if isinstance(result, RatioCiError):
            failures.append((method, result))
        else:
            records.append(_result_record(result))
    if args.format == "csv":  # the JSON records' fields but the diagnostics
        records = [{k: v for k, v in record.items() if k != "diagnostics"} for record in records]
    if records:  # none when every method failed
        _write(_json_text(records) if args.format == "json" else _csv_text(records), args.output)
    for method, exc in failures:
        print(f"error: {method.value}: {exc}", file=sys.stderr)
    return 3 if failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    gridspec = GridSpec(
        cv_x_values=args.cv_x, cv_y_values=args.cv_y, n=args.n, corr=args.corr
    )
    grid = run_grid(
        gridspec,
        args.methods,
        runs=args.runs,
        master_seed=args.seed,
        boot_config=_boot_config(args),
        level=args.level,
        trim=args.trim,
        threads=args.threads,
    )
    # Above this cv_x the mean of x is typically not significantly nonzero.
    print(
        f"reference: cv of the mean of x reaches 0.5 at cv_x = "
        f"{0.5 * math.sqrt(gridspec.n):.4g} for n = {gridspec.n}",
        file=sys.stderr,
    )
    _write(_csv_text(_grid_records(grid)), args.output)
    return 0


def _cmd_errorbars(args: argparse.Namespace) -> int:
    cell = SimCell(cv_x=args.cv_x, cv_y=args.cv_y, n=args.n, corr=args.corr)
    experiment = error_bar_experiment(cell, runs=args.runs, seed=args.seed, level=args.level)
    _write(_csv_text(_errorbar_records(experiment)), args.output)
    return 0


def _cmd_ellipse(args: argparse.Namespace) -> int:
    sample = _load_pairs(args.input)
    spec = ConfidenceSpec.two_sided(args.level, df=sample.n - 1)
    wedge = construct_wedge(summarize(sample), spec)
    if args.format == "svg":
        text = wedge_svg(wedge, k=args.points)
    else:
        points = wedge_csv_rows(wedge, k=args.points)
        rows = [{"element": el, "x": _fmt(x), "y": _fmt(y)} for el, x, y in points]
        text = _csv_text(rows)
    _write(text, args.output)
    return 0


def _fit_text(fit: RegressionFit, title: str) -> str:
    lines = [title]
    for name, value in fit.coefficients.items():
        se = fit.standard_errors.get(name)
        se_part = f" (se {se:.6g})" if se is not None else ""
        lines.append(f"  {name} = {value:.6g}{se_part}")
    lines.append(
        f"  residual variance {fit.residual_variance:.6g}, df {fit.df}, "
        f"r^2 {fit.r_squared:.6g}"
    )
    return "\n".join(lines)


def _cmd_regress(args: argparse.Namespace) -> int:
    table = _parse_table(args.input)
    path = args.input
    try:
        if args.model == "ols":
            if not args.response or not args.regressors:
                raise _InputError("ols needs --response and --regressors")
            y = _numeric_column(table, args.response, path)
            names = args.regressors
            repeated = [name for name in names if names.count(name) > 1]
            if repeated:
                raise _InputError(f"regressor {repeated[0]!r} is named more than once")
            regs = {name: _numeric_column(table, name, path) for name in names}
            fit = ols_fit(y, regs, intercept=args.intercept)
            payload, text = fit, _fit_text(fit, "least-squares fit")
        elif args.model == "deflated":
            fit = deflated_fit(_table_pairs(table, path))
            payload, text = fit, _fit_text(fit, "deflated fit of y = alpha + beta*x")
        elif args.model == "allometric":
            fit = allometric_fit(_table_pairs(table, path))
            payload, text = fit, _fit_text(fit, "power-law fit y = beta * x^gamma")
        else:  # ancova
            comparison = ancova_ratio_compare(_table_groups(table, path))
            payload = {**asdict(comparison), "note": RATIO_SLOPE_NOTE}
            text = "\n".join(
                [
                    _fit_text(comparison.restricted, "restricted: one common slope"),
                    _fit_text(comparison.full, "full: one slope per group"),
                    f"F = {comparison.f_statistic:.6g}, p = {comparison.p_value:.6g}",
                    RATIO_SLOPE_NOTE,
                ]
            )
    except RatioCiError as exc:
        print(f"error: {args.model}: {exc}", file=sys.stderr)
        return 3
    _write(_json_text(payload) if args.format == "json" else text + "\n", args.output)
    return 0


def _table_groups(table: dict, path: str) -> list[PairedSample]:
    if "group" not in table:
        raise _InputError(f"{path}: ancova needs columns x,y,group")
    xs = _numeric_column(table, "x", path)
    ys = _numeric_column(table, "y", path)
    labels = [v.strip() for v in table["group"]]
    names = sorted(set(labels))
    index = {name: i for i, name in enumerate(names)}
    codes = np.array([index[v] for v in labels])
    groups = []
    for i, label in enumerate(names):
        mask = codes == i
        try:
            groups.append(PairedSample(xs[mask], ys[mask]))
        except RatioCiError as exc:
            raise _InputError(f"{path}: group {label!r}: {exc}")
    return groups


def _cmd_demo(args: argparse.Namespace) -> int:
    table = stork_demo_table()
    report = spurious_demo(table["women"], table["babies"], table["storks"])
    lines = ["county  women  babies  storks  birth-rate  stork-rate"]
    for i in range(len(table["women"])):
        w, b, s = table["women"][i], table["babies"][i], table["storks"][i]
        lines.append(
            f"{i + 1:>6}  {w:>5g}  {b:>6g}  {s:>6g}  {b / w:>10.1f}  {s / w:>10.1f}"
        )
    lines.append("")
    lines.append(report.summary())
    _write("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratio-ci",
        description="Confidence sets and diagnostics for ratios of paired means.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, *, level: bool = True, seed: bool = True) -> None:
        if level:
            p.add_argument("--level", type=_level_arg, default=0.95)
        if seed:
            p.add_argument("--seed", type=_positive_int(0, "seed"), default=0)
        p.add_argument("--output", default=None, help="write here instead of stdout")

    ci = sub.add_parser("ci", help="confidence sets for one x,y dataset")
    ci.add_argument("--input", required=True, help="CSV with header x,y")
    ci.add_argument("--methods", type=_methods_arg, default=_methods_arg(CLOSED_FORM))
    ci.add_argument(
        "--replications", type=_positive_int(100, "replications"), default=2000
    )
    ci.add_argument("--trim", type=_trim_arg, default=0.25)
    ci.add_argument("--format", choices=("json", "csv"), default="json")
    common(ci)
    ci.set_defaults(handler=_cmd_ci)

    sim = sub.add_parser("simulate", help="coverage grid over cv_x, cv_y cells")
    sim.add_argument("--cv-x", type=_axis_arg, default=_axis_arg("0.01:10:7"))
    sim.add_argument("--cv-y", type=_axis_arg, default=_axis_arg("0.01:10:7"))
    sim.add_argument("--n", type=_positive_int(2, "n"), default=20)
    sim.add_argument("--corr", type=_corr_arg, default=0.0)
    sim.add_argument("--runs", type=_positive_int(100, "runs"), default=500)
    sim.add_argument("--methods", type=_methods_arg, default=_methods_arg(CLOSED_FORM))
    sim.add_argument(
        "--replications", type=_positive_int(100, "replications"), default=2000
    )
    sim.add_argument("--trim", type=_trim_arg, default=0.25)
    sim.add_argument(
        "--threads",
        type=_positive_int(1, "threads"),
        default=None,
        help="cap on worker processes (default: the CPUs this process may use; "
        "README \"Determinism\" describes the jobs)",
    )
    common(sim)
    sim.set_defaults(handler=_cmd_simulate)

    bars = sub.add_parser("errorbars", help="per-run intervals at one cell")
    bars.add_argument("--cv-x", type=_cv_arg, required=True)
    bars.add_argument("--cv-y", type=_cv_arg, required=True)
    bars.add_argument("--n", type=_positive_int(2, "n"), default=500)
    bars.add_argument("--corr", type=_corr_arg, default=0.0)
    bars.add_argument("--runs", type=_positive_int(1, "runs"), default=40)
    common(bars)
    bars.set_defaults(handler=_cmd_errorbars)

    ell = sub.add_parser("ellipse", help="export the ellipse-and-wedge construction")
    ell.add_argument("--input", required=True, help="CSV with header x,y")
    ell.add_argument("--points", type=_positive_int(3, "points"), default=256)
    ell.add_argument("--format", choices=("svg", "csv"), default="svg")
    common(ell, seed=False)
    ell.set_defaults(handler=_cmd_ellipse)

    reg = sub.add_parser("regress", help="regression views of ratio data")
    reg.add_argument("--input", required=True, help="CSV with named columns")
    reg.add_argument(
        "--model", choices=("ols", "ancova", "deflated", "allometric"), required=True
    )
    reg.add_argument("--response", default=None)
    reg.add_argument("--regressors", type=_names_arg, help="comma-separated column names")
    reg.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=True)
    reg.add_argument("--format", choices=("json", "text"), default="json")
    common(reg, level=False, seed=False)
    reg.set_defaults(handler=_cmd_regress)

    demo = sub.add_parser("demo", help="worked examples")
    demo.add_argument("topic", choices=("stork",))
    demo.add_argument("--output", default=None)
    demo.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RatioCiError as exc:
        print(f"error: {args.subcommand}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
