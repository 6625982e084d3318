import csv
import importlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ratio_ci import (
    BootstrapConfig,
    ConfidenceSpec,
    Method,
    PairedSample,
    SimCell,
    error_bar_experiment,
    fieller_set,
    summarize,
    taylor_limits,
)
from ratio_ci import cli
from ratio_ci.cli import main

import scalar_reference as ref
from test_methods import WORKED_X, WORKED_Y


@pytest.fixture()
def worked_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    lines = ["x,y"] + [f"{x},{y}" for x, y in zip(WORKED_X, WORKED_Y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ------------------------------------------------------------------- ci


def test_ci_json_matches_library(capsys, worked_csv):
    code, out, err = _run(capsys, ["ci", "--input", worked_csv])
    assert code == 0 and err == ""
    records = json.loads(out)
    assert [r["method"] for r in records] == [
        "fieller",
        "taylor",
        "index",
        "trimmed_index",
        "zero_variance",
    ]
    sample = PairedSample(np.array(WORKED_X), np.array(WORKED_Y))
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    fieller = fieller_set(summarize(sample), spec)
    taylor = taylor_limits(summarize(sample), spec)
    by_method = {r["method"]: r for r in records}
    assert by_method["fieller"]["lower"] == fieller.confidence_set.lower
    assert by_method["fieller"]["upper"] == fieller.confidence_set.upper
    assert by_method["fieller"]["estimate"] == fieller.estimate
    assert by_method["fieller"]["case"] == "bounded"
    assert by_method["taylor"]["lower"] == taylor.confidence_set.lower
    assert by_method["taylor"]["upper"] == taylor.confidence_set.upper


def test_ci_csv_layout(capsys, worked_csv):
    code, out, _ = _run(capsys, ["ci", "--input", worked_csv, "--format", "csv"])
    assert code == 0
    rows = _parse_csv(out)
    assert rows[0] == [
        "method",
        "estimate",
        "case",
        "lower",
        "upper",
        "intervals",
    ]
    assert len(rows) == 6
    fieller = rows[1]
    assert fieller[0] == "fieller" and fieller[2] == "bounded"
    # Cells hold repr() of the float: parsing them back is lossless.
    assert float(fieller[3]) < 0.0 < float(fieller[4])
    assert fieller[5] == f"{fieller[3]}:{fieller[4]}"


@pytest.mark.filterwarnings("ignore:fewer than 1000 replications")
def test_ci_bootstrap_methods_match_library(capsys, worked_csv):
    code, out, _ = _run(
        capsys,
        [
            "ci",
            "--input",
            worked_csv,
            "--methods",
            "bootstrap_percentile,bootstrap_bca",
            "--replications",
            "500",
            "--seed",
            "11",
        ],
    )
    assert code == 0
    records = {r["method"]: r for r in json.loads(out)}
    sample = PairedSample(np.array(WORKED_X), np.array(WORKED_Y))
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=500, seed=11)
    expected = ref.ratio_bootstrap_results(
        sample, config, spec, (Method.BOOTSTRAP_PERCENTILE, Method.BOOTSTRAP_BCA)
    )
    for method in ("bootstrap_percentile", "bootstrap_bca"):
        wanted = expected[Method(method)][0].confidence_set
        assert records[method]["lower"] == wanted.lower
        assert records[method]["upper"] == wanted.upper


def test_ci_evaluates_mixed_methods_in_request_order(capsys, tmp_path):
    rng = np.random.default_rng(12)
    xs = rng.normal(2.0, 0.4, 30).tolist()
    ys = rng.normal(3.0, 0.6, 30).tolist()
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    order = ["bootstrap_bca", "fieller", "hwang_bootstrap", "bootstrap_percentile"]
    argv = ["ci", "--input", str(path), "--methods", ",".join(order)]
    code, out, _ = _run(capsys, argv + ["--replications", "1000", "--seed", "9"])
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == order

    sample = PairedSample(xs, ys)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    config = BootstrapConfig(replications=1000, seed=9)
    ratio = ref.ratio_bootstrap_results(
        sample, config, spec, (Method.BOOTSTRAP_BCA, Method.BOOTSTRAP_PERCENTILE)
    )
    expected = [
        ratio[Method.BOOTSTRAP_BCA][0],
        fieller_set(summarize(sample), spec),
        ref.hwang_set(sample, config, spec)[0],
        ratio[Method.BOOTSTRAP_PERCENTILE][0],
    ]
    for record, want in zip(records, expected):
        cset = want.confidence_set
        assert record["method"] == want.method.value
        assert record["estimate"] == want.estimate
        assert record["case"] == cset.case.value
        assert (record["lower"], record["upper"]) == (cset.lower, cset.upper)
        assert record["intervals"] == [
            [None if math.isinf(end) else end for end in interval] for interval in cset.intervals
        ]
    hwang = records[2]["diagnostics"]
    assert hwang["t_lower"] == expected[2].diagnostics.t_lower
    assert hwang["t_upper"] == expected[2].diagnostics.t_upper
    assert hwang["bias_correction"] == expected[2].diagnostics.bias_correction
    assert hwang["acceleration"] == expected[2].diagnostics.acceleration


def test_ci_hwang_record_is_the_library_band(capsys, monkeypatch, tmp_path):
    # The pivot bootstrap has one band, read at the BCa levels, so the
    # reference's hwang_set with a plain BootstrapConfig gives ci's record
    # bit for bit.
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    workloads = importlib.import_module("workloads")
    xs, ys = workloads.generate_pairs(5, 200)
    path = tmp_path / "pairs.csv"
    workloads.write_pairs(path, xs, ys)
    argv = ["ci", "--input", str(path), "--methods", "hwang_bootstrap"]
    code, out, _ = _run(capsys, argv + ["--replications", "1000", "--seed", "3"])
    assert code == 0
    (record,) = json.loads(out)

    sample = PairedSample(xs, ys)
    spec = ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    want, _, _ = ref.hwang_set(sample, BootstrapConfig(replications=1000, seed=3), spec)
    cset, diag = want.confidence_set, want.diagnostics
    assert (record["lower"], record["upper"]) == (cset.lower, cset.upper)
    assert (record["lower"], record["upper"]) == pytest.approx((1.466506, 1.538462), abs=1e-6)
    assert record["intervals"] == [list(interval) for interval in cset.intervals]
    assert record["diagnostics"] == {
        "t_lower": diag.t_lower,
        "t_upper": diag.t_upper,
        "dropped_replicates": diag.dropped_replicates,
        "bias_correction": diag.bias_correction,
        "acceleration": diag.acceleration,
    }


def test_ci_output_file(capsys, worked_csv, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = _run(
        capsys, ["ci", "--input", worked_csv, "--output", str(target)]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[0]["method"] == "fieller"


def test_ci_whole_line_case_serializes_null_bounds(capsys, tmp_path):
    # Pure noise around zero: the exact set is the whole line.
    rng = np.random.default_rng(3)
    path = tmp_path / "noise.csv"
    rows = ["x,y"] + [f"{x},{y}" for x, y in rng.normal(0.0, 1.0, (10, 2))]
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = _run(
        capsys, ["ci", "--input", str(path), "--methods", "fieller"]
    )
    assert code == 0
    (record,) = json.loads(out)
    assert record["case"] == "whole_line"
    assert record["lower"] is None and record["upper"] is None


def _write_pairs(path, xs, ys):
    path.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in zip(xs, ys)))
    return str(path)


def test_ci_csv_leaves_unbounded_cells_empty(capsys, tmp_path):
    # Pure noise gives Fieller's whole line; a mean of x within noise of zero
    # against a precise y gives the line minus an interval.
    noise = np.random.default_rng(3).normal(0.0, 1.0, (10, 2))
    rng = np.random.default_rng(5)
    xs = 0.6 + rng.normal(0.0, 1.0, 12)
    ys = 3.0 + rng.normal(0.0, 0.3, 12)
    samples = {
        "whole_line": _write_pairs(tmp_path / "noise.csv", *noise.T),
        "unbounded_exclusive": _write_pairs(tmp_path / "exclusive.csv", xs, ys),
    }
    for case, path in samples.items():
        code, out, _ = _run(capsys, ["ci", "--input", path, "--format", "csv"])
        assert code == 0
        header, *rows = _parse_csv(out)
        code, out, _ = _run(capsys, ["ci", "--input", path])
        assert code == 0
        records = json.loads(out)
        fieller = dict(zip(header, rows[0]))
        assert fieller["method"] == "fieller" and fieller["case"] == case
        assert fieller["lower"] == fieller["upper"] == ""
        if case == "whole_line":
            assert fieller["intervals"] == "-inf:inf"
        else:
            (lo, a), (b, hi) = (map(float, p.split(":")) for p in fieller["intervals"].split(";"))
            assert lo == -math.inf and a < b and hi == math.inf
        for row, record in zip(rows, records, strict=True):
            for name, cell in zip(header, row, strict=True):
                value = record[name]
                if value is None:
                    assert cell == ""
                elif isinstance(value, str):
                    assert cell == value
                elif name == "intervals":
                    # JSON null is an infinite end; the cell spells it out.
                    pairs = [pair.split(":") for pair in cell.split(";")]
                    assert [len(pair) for pair in pairs] == [2] * len(value)
                    for pair, interval in zip(pairs, value):
                        for end, want, infinite in zip(map(float, pair), interval, (-1, 1)):
                            assert end == (infinite * math.inf if want is None else want)
                else:
                    assert float(cell) == value


def test_ci_numeric_fields_parse_like_python_float(capsys, tmp_path):
    # Fields are stripped, then read by float(): underscores and any Unicode
    # decimal digits are numbers, and a bad value is named without padding.
    plain = _write_pairs(tmp_path / "plain.csv", (1.5, 1000, 12, 4), (2, 3, 5, 7))
    spellings = (" 1.5 ", "1_000", "\u0661\u0662", "4")  # 12 in Arabic-Indic digits
    odd = _write_pairs(tmp_path / "odd.csv", spellings, (2, 3, 5, 7))
    code, expected, _ = _run(capsys, ["ci", "--input", plain])
    assert code == 0
    assert _run(capsys, ["ci", "--input", odd]) == (0, expected, "")

    bad = _write_pairs(tmp_path / "bad.csv", ("1", " foo ", "3"), (2, 4, 6))
    code, out, err = _run(capsys, ["ci", "--input", bad])
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: column 'x': could not convert string to float: 'foo'\n"



def test_a_leading_byte_order_mark_is_skipped(capsys, worked_csv, tmp_path):
    # Excel's "CSV UTF-8" starts a file with U+FEFF. It stuck to the first
    # header name: ci exited 2 for want of the columns x,y, and ancova for
    # want of a column x. Each reader now skips it: NumPy's (the worked
    # example), the csv module's (an underscore in a number) and regress's.
    underscored = _write_pairs(tmp_path / "odd.csv", ("1.5", "1_000", "12", "4"), (2, 3, 5, 7))
    groups = tmp_path / "groups.csv"
    rows = [f"{x},{k * x},{g}" for x in (1.0, 2.0, 3.0, 4.0) for k, g in ((2.0, "a"), (2.5, "b"))]
    groups.write_text("\n".join(["x,y,group", *rows]) + "\n")
    marked = tmp_path / "marked.csv"
    for command, path in (
        (["ci"], worked_csv),
        (["ci"], underscored),
        (["regress", "--model", "ancova"], str(groups)),
    ):
        plain = _run(capsys, [*command, "--input", path])
        assert plain[0] == 0 and plain[2] == ""
        marked.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        assert _run(capsys, [*command, "--input", str(marked)]) == plain

# ------------------------------------------------------ the two readers


def _csv_columns(path):
    """The columns as the csv path reads them, or its _InputError."""
    table = cli._parse_table(path)
    if set(table) != {"x", "y"}:
        raise cli._InputError("expected exactly the columns x,y")
    return cli._numeric_column(table, "x", path), cli._numeric_column(table, "y", path)


_TOKENS = (
    list("0123456789+-.e_ \t,\"\x00")
    + ["\xa0", "nan", "inf", "\u0661\u0662", "\uff11", "\x85", "\x0c"]
)
_padding = st.sampled_from(["", " ", "\t", "\xa0", "\x0c", "\x85", "\u3000"])
_number = st.tuples(
    _padding, st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str)), _padding
).map("".join)
_field = st.one_of(_number, st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join))
_row = st.one_of(
    st.tuples(_number, _number).map(",".join),
    st.tuples(_field, _field).map(",".join),
    st.lists(_field, max_size=3).map(",".join),
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=300)
@given(
    header=st.sampled_from(["x,y", " x , y ", "y,x", '"x",y', '"x","y"', '"y","x"', "x,y,z"]),
    rows=st.lists(_row, min_size=2, max_size=6),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=7, max_size=7),
)
def test_numpy_reader_returns_the_csv_paths_bytes_or_nothing(tmp_path, header, rows, ends):
    lines = [header, *rows]
    path = tmp_path / "data.csv"
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
    fast = cli._plain_columns(str(path))
    try:
        slow = _csv_columns(str(path))
    except cli._InputError:
        assert fast is None
        return
    if fast is not None:
        assert [c.tobytes() for c in fast] == [c.tobytes() for c in slow]
        assert all(c.dtype == np.float64 and c.flags.c_contiguous for c in fast)


def _load_benchmark_pairs(monkeypatch, tmp_path, header=None):
    """Load a perfbench pairs file, its header replaced by header if given,
    with the csv path patched to fail; the library's and the file's pairs."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    workloads = importlib.import_module("workloads")
    xs, ys = workloads.generate_pairs(1, 1000)
    path = tmp_path / "pairs.csv"
    workloads.write_pairs(path, xs, ys)
    if header is not None:
        text = path.read_text()
        path.write_text(header + text[text.index("\n"):])

    def no_csv(path):
        raise AssertionError("the csv path was taken")

    monkeypatch.setattr(cli, "_parse_table", no_csv)
    return cli._load_pairs(str(path)), xs, ys


def test_benchmark_pairs_file_takes_the_numpy_reader(monkeypatch, tmp_path):
    # Guards the speed-up: a file as perfbench writes it never reaches csv.
    sample, xs, ys = _load_benchmark_pairs(monkeypatch, tmp_path)
    assert sample.xs.tobytes() == xs.tobytes() and sample.ys.tobytes() == ys.tobytes()


def test_quoted_header_pairs_file_takes_the_numpy_reader(monkeypatch, tmp_path):
    # The same file with its header quoted, as R's write.csv writes it.
    sample, xs, ys = _load_benchmark_pairs(monkeypatch, tmp_path, '"x","y"')
    assert sample.xs.tobytes() == xs.tobytes() and sample.ys.tobytes() == ys.tobytes()


def test_ci_reads_a_piped_input_once(tmp_path):
    # A pipe can be read only once, so it goes to the csv path unread.
    text = '"x","y"\n' + "".join(f'"{x}","{y}"\n' for x, y in zip(WORKED_X, WORKED_Y))
    path = tmp_path / "quoted.csv"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "ratio_ci.cli", "ci", "--input"]
    piped = subprocess.run(
        argv + ["/dev/stdin"], input=text.encode(), capture_output=True, env=env, timeout=60
    )
    from_file = subprocess.run(argv + [str(path)], capture_output=True, env=env, timeout=60)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == from_file.stdout


# -------------------------------------------------------- ci error paths


_NOT_UTF8 = b"x,y\n1,2\n\xff,4\n"
# One non-numeric field longer than the csv module's default field limit.
_OVERSIZED = b"x,y\n" + b"a" * 200_000 + b",2\n3,4\n"


@pytest.mark.parametrize(
    "mutation",
    [
        "missing",
        "empty",
        "wrong_columns",
        "one_row",
        "non_numeric",
        "ragged_after_blank_lines",
        "not_utf8",
        "oversized_field",
    ],
)
def test_ci_malformed_inputs_exit_2(capsys, tmp_path, mutation):
    path = tmp_path / "bad.csv"
    if mutation == "missing":
        pass  # never created
    elif mutation == "empty":
        path.write_text("")
    elif mutation == "wrong_columns":
        path.write_text("a,b\n1,2\n3,4\n")
    elif mutation == "one_row":
        path.write_text("x,y\n1,2\n")
    elif mutation == "non_numeric":
        path.write_text("x,y\n1,2\nfoo,4\n")
    elif mutation == "ragged_after_blank_lines":
        path.write_text("x,y\n\n1,2\n\n3,4,5\n")
    elif mutation == "not_utf8":
        path.write_bytes(_NOT_UTF8)
    elif mutation == "oversized_field":
        path.write_bytes(_OVERSIZED)
    code, out, err = _run(capsys, ["ci", "--input", str(path)])
    assert code == 2
    assert out == "" and err.startswith("error:")
    if mutation == "ragged_after_blank_lines":
        # Blank lines are skipped but still counted: the bad row is line 5.
        assert f"{path}:5: expected 2 fields" in err
    elif mutation == "not_utf8":
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    elif mutation == "oversized_field":
        assert err == f"error: {path}:2: field larger than field limit (131072)\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (_NOT_UTF8, "cannot read {path}: 'utf-8' codec can't decode"),
        (_OVERSIZED, "{path}:2: field larger than field limit"),
    ],
)
def test_regress_unreadable_input_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    code, out, err = _run(capsys, ["regress", "--input", str(path), "--model", "deflated"])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=path))


def test_ci_bad_level_and_bad_method_exit_2(capsys, worked_csv):
    code, _, _ = _run(capsys, ["ci", "--input", worked_csv, "--level", "1.5"])
    assert code == 2
    code, _, _ = _run(capsys, ["ci", "--input", worked_csv, "--methods", "magic"])
    assert code == 2


def test_ci_level_next_to_one_exits_0(capsys, worked_csv):
    # 0.5*(1 + level) rounds to 1 here; the quantile is read from the tail.
    code, out, err = _run(capsys, ["ci", "--input", worked_csv, "--level", "0.9999999999999999"])
    assert code == 0 and err == ""
    assert [r["method"] for r in json.loads(out)][0] == "fieller"


def test_ci_level_too_small_for_a_quantile_exits_3(capsys, worked_csv):
    code, out, err = _run(capsys, ["ci", "--input", worked_csv, "--level", "1e-300"])
    assert (code, out) == (3, "")
    assert err.startswith("error: ci: level 1e-300 is too small")


def test_ci_method_precondition_failures_exit_3(capsys, tmp_path):
    zero_x = tmp_path / "zero.csv"
    zero_x.write_text("x,y\n1.0,2.0\n0.0,3.0\n2.0,4.0\n")
    code, out, err = _run(
        capsys, ["ci", "--input", str(zero_x), "--methods", "index"]
    )
    assert code == 3 and out == ""
    assert err.startswith("error: index:")

    code, _, err = _run(
        capsys,
        ["ci", "--input", str(zero_x), "--methods", "trimmed_index", "--trim", "0.34"],
    )
    assert code == 3
    assert err.startswith("error: trimmed_index:")

    balanced = tmp_path / "balanced.csv"
    balanced.write_text("x,y\n-1.0,2.0\n1.0,3.0\n")
    code, _, err = _run(
        capsys, ["ci", "--input", str(balanced), "--methods", "taylor"]
    )
    assert code == 3
    assert err.startswith("error: taylor:")


def test_unwritable_output_exits_2(capsys, worked_csv, tmp_path):
    code, _, err = _run(
        capsys,
        ["ci", "--input", worked_csv, "--output", str(tmp_path / "no_dir" / "x.json")],
    )
    assert code == 2 and err.startswith("error:")


# -------------------------------------------------------------- simulate


def test_simulate_deterministic_and_thread_invariant(capsys):
    argv = [
        "simulate",
        "--cv-x",
        "0.3,1.0",
        "--cv-y",
        "0.5",
        "--n",
        "10",
        "--runs",
        "150",
        "--methods",
        "fieller,taylor",
        "--seed",
        "4",
    ]
    code1, out1, err1 = _run(capsys, argv + ["--threads", "1"])
    code2, out2, err2 = _run(capsys, argv + ["--threads", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "reference: cv of the mean of x reaches 0.5 at cv_x = 1.581" in err1
    rows = _parse_csv(out1)
    assert rows[0][:5] == ["cv_x", "cv_y", "n", "corr", "method"]
    assert len(rows) == 1 + 2 * 2


def test_simulate_precondition_failure_exits_3(capsys):
    # cv_x = 1e308 overflows the draws of x: no run can be made.
    argv = ["simulate", "--cv-x", "1e308", "--cv-y", "1", "--n", "5", "--runs", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv + ["--methods", "fieller"])
    assert (code, out) == (3, "")
    assert err == "error: simulate: xs contains non-finite values\n"


def test_simulate_precondition_failure_in_a_worker_exits_3(capsys):
    # Two cells on two worker processes: the error crosses the pool.
    argv = ["simulate", "--cv-x", "1e308,1e308", "--cv-y", "1", "--n", "5", "--runs", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv + ["--methods", "fieller", "--threads", "2"])
    assert (code, out) == (3, "")
    assert err == "error: simulate: xs contains non-finite values\n"
    assert multiprocessing.active_children() == []


def test_simulate_prints_the_same_warnings_at_any_worker_count():
    # At n = 4 BCa falls back on three runs of this grid; the default filters
    # print that warning once, whichever process issued it.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "ratio_ci.cli", "simulate", "--cv-x", "0.3,3.0", "--cv-y",
            "0.1,1.0", "--n", "4", "--runs", "100", "--replications", "100", "--methods",
            "hwang_bootstrap,bootstrap_bca", "--seed", "5", "--threads"]
    one, two = (
        subprocess.run(argv + [t], capture_output=True, env=env, timeout=120) for t in "12"
    )
    assert one.returncode == two.returncode == 0
    assert (one.stdout, one.stderr) == (two.stdout, two.stderr)
    assert one.stderr.count(b"falling back to percentiles") == 1


def test_simulate_axis_syntax_and_guards(capsys):
    code, out, _ = _run(
        capsys,
        [
            "simulate",
            "--cv-x",
            "0.1:10:3",
            "--cv-y",
            "1.0",
            "--n",
            "8",
            "--runs",
            "100",
            "--methods",
            "taylor",
        ],
    )
    assert code == 0
    rows = _parse_csv(out)
    assert [r[0] for r in rows[1:]] == ["0.1", "1.0", "10.0"]

    code, _, _ = _run(capsys, ["simulate", "--cv-x", "0.5", "--runs", "99"])
    assert code == 2
    code, _, _ = _run(capsys, ["simulate", "--cv-x", "-1,2"])
    assert code == 2
    code, _, _ = _run(capsys, ["simulate", "--cv-x", "junk:1:3"])
    assert code == 2
    # Non-finite CVs are malformed input, caught before any cell is built.
    for axis in ("inf", "0.01:inf:3", "nan", "1,inf"):
        code, out, err = _run(capsys, ["simulate", "--cv-x", axis])
        assert code == 2 and out == "" and "bad axis" in err


def test_simulate_warns_about_few_replications_only_for_bca_methods(capsys):
    argv = ["simulate", "--cv-x", "0.3", "--cv-y", "0.5", "--n", "10"]
    argv += ["--runs", "100", "--replications", "500"]

    def replication_warnings(methods):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = _run(capsys, argv + ["--methods", methods])
        assert code == 0
        return [w for w in caught if "1000 replications" in str(w.message)]

    assert replication_warnings("fieller,taylor") == []
    assert replication_warnings("fieller,hwang_bootstrap") != []


def test_simulate_warns_about_few_replications_once(capsys):
    argv = ["simulate", "--cv-x", "0.3,1.0", "--cv-y", "0.5", "--n", "10", "--runs", "100"]
    argv += ["--replications", "500", "--methods", "fieller,hwang_bootstrap"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = _run(capsys, argv)
    assert code == 0
    assert len([w for w in caught if "1000 replications" in str(w.message)]) == 1


# ------------------------------------------------------------- errorbars


def test_errorbars_csv(capsys):
    argv = [
        "errorbars",
        "--cv-x",
        "0.15",
        "--cv-y",
        "0.1",
        "--n",
        "60",
        "--runs",
        "12",
        "--seed",
        "2",
    ]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    rows = _parse_csv(out)
    assert rows[0] == [
        "method", "run", "estimate", "case", "lower", "upper", "intervals", "covers_true"
    ]
    assert len(rows) == 25
    assert {r[0] for r in rows[1:]} == {"fieller", "index"}
    code2, out2, _ = _run(capsys, argv)
    assert out2 == out


def test_errorbars_csv_intervals_are_the_sets(capsys):
    # At cv_x = 3 many of Fieller's sets are the line minus an interval;
    # the intervals cell, parsed back, is each run's set exactly.
    argv = ["errorbars", "--cv-x", "3", "--cv-y", "0.1", "--n", "20", "--runs", "40",
            "--seed", "1"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    header, *rows = _parse_csv(out)
    experiment = error_bar_experiment(SimCell(cv_x=3.0, cv_y=0.1, n=20), runs=40, seed=1)
    for row, run in zip(rows, experiment.rows, strict=True):
        cells = dict(zip(header, row, strict=True))
        assert (cells["method"], int(cells["run"])) == (run.method.value, run.run)
        parsed = tuple(
            tuple(map(float, pair.split(":"))) for pair in cells["intervals"].split(";")
        )
        assert parsed == run.confidence_set.intervals
    assert any(len(run.confidence_set.intervals) == 2 for run in experiment.rows)


def test_errorbars_precondition_failure_exits_3(capsys):
    argv = ["errorbars", "--cv-x", "1e308", "--cv-y", "1", "--n", "20", "--runs", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "error: errorbars: xs contains non-finite values\n"


def test_errorbars_requires_cell_flags(capsys):
    code, _, _ = _run(capsys, ["errorbars", "--cv-y", "0.1"])
    assert code == 2


def test_errorbars_rejects_non_finite_or_non_positive_cvs(capsys):
    for value in ("-1", "0", "nan", "inf", "junk"):
        for flag, other in (("--cv-x", "--cv-y"), ("--cv-y", "--cv-x")):
            code, out, err = _run(capsys, ["errorbars", flag, value, other, "0.1"])
            assert code == 2 and out == "" and flag in err


# --------------------------------------------------------------- ellipse


def test_ellipse_svg_and_csv(capsys, worked_csv):
    code, svg, _ = _run(capsys, ["ellipse", "--input", worked_csv])
    assert code == 0
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert 'class="tangent"' in svg

    code, out, _ = _run(
        capsys, ["ellipse", "--input", worked_csv, "--format", "csv", "--points", "64"]
    )
    assert code == 0
    rows = _parse_csv(out)
    assert rows[0] == ["element", "x", "y"]
    elements = {r[0] for r in rows[1:]}
    assert {"ellipse", "tangent_1", "tangent_2", "vertical_reference"} <= elements
    assert sum(r[0] == "ellipse" for r in rows[1:]) == 64


def test_ellipse_point_guard(capsys, worked_csv):
    code, _, _ = _run(capsys, ["ellipse", "--input", worked_csv, "--points", "2"])
    assert code == 2


def test_ellipse_on_equal_pairs_exits_3(capsys, tmp_path):
    path = _write_pairs(tmp_path / "equal.csv", (1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    code, out, err = _run(capsys, ["ellipse", "--input", path])
    assert (code, out) == (3, "")
    assert err == "error: ellipse: both mean variances are zero\n"


def test_ellipse_and_regress_take_no_unused_flags(capsys, worked_csv):
    # ellipse draws nothing at random and regress builds no interval.
    assert _run(capsys, ["ellipse", "--input", worked_csv, "--seed", "3"])[0] == 2
    argv = ["regress", "--input", worked_csv, "--model", "deflated"]
    assert _run(capsys, argv)[0] == 0
    assert _run(capsys, argv + ["--level", "0.9"])[0] == 2
    assert _run(capsys, argv + ["--seed", "3"])[0] == 2


# --------------------------------------------------------------- regress


@pytest.fixture()
def line_csv(tmp_path):
    rng = np.random.default_rng(5)
    xs = rng.uniform(1.0, 10.0, 20)
    ys = 2.0 + 3.0 * xs + rng.normal(0.0, 0.5, 20)
    path = tmp_path / "line.csv"
    rows = ["x,y"] + [f"{x},{y}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_regress_ols_json(capsys, line_csv):
    code, out, _ = _run(
        capsys,
        [
            "regress",
            "--input",
            line_csv,
            "--model",
            "ols",
            "--response",
            "y",
            "--regressors",
            "x",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["x"] == pytest.approx(3.0, abs=0.2)
    assert payload["coefficients"]["intercept"] == pytest.approx(2.0, abs=1.0)
    assert payload["df"] == 18


def test_regress_ols_requires_response(capsys, line_csv):
    code, _, err = _run(capsys, ["regress", "--input", line_csv, "--model", "ols"])
    assert code == 2 and "response" in err


def test_regress_ols_regressor_named_intercept_exits_3(capsys, tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("intercept,y\n1,2.1\n2,3.9\n3,6.2\n4,7.8\n5,10.1\n")
    argv = ["regress", "--input", str(path), "--model", "ols", "--response", "y"]
    code, out, err = _run(capsys, argv + ["--regressors", "intercept"])
    assert code == 3 and out == "" and err.startswith("error: ols:") and "intercept" in err


def test_regress_ols_repeated_regressor_exits_2(capsys, tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("x,y\n1,2.1\n2,3.9\n3,6.2\n4,7.8\n5,10.1\n")
    argv = ["regress", "--input", str(path), "--model", "ols", "--response", "y"]
    code, out, err = _run(capsys, argv + ["--regressors", "x,x"])
    assert code == 2 and out == "" and "'x'" in err and "more than once" in err


def test_regress_regressors_are_stripped_and_empty_names_skipped(capsys, tmp_path):
    path = tmp_path / "plane.csv"
    path.write_text("x,z,y\n1,2,3.1\n2,1,3.9\n3,5,8.2\n4,3,7.8\n5,4,9.1\n")
    argv = ["regress", "--input", str(path), "--model", "ols", "--response", "y"]
    code, plain, _ = _run(capsys, argv + ["--regressors", "x,z"])
    assert code == 0 and set(json.loads(plain)["coefficients"]) == {"intercept", "x", "z"}
    for regressors in ("x, z", "x,z,"):
        assert _run(capsys, argv + ["--regressors", regressors]) == (0, plain, "")
    code, out, err = _run(capsys, argv + ["--regressors", " x , x"])
    assert code == 2 and out == "" and "'x'" in err and "more than once" in err
    code, out, err = _run(capsys, argv + ["--regressors", ","])
    assert code == 2 and out == "" and "ols needs --response and --regressors" in err


def test_regress_deflated_and_allometric(capsys, line_csv, tmp_path):
    code, out, _ = _run(
        capsys, ["regress", "--input", line_csv, "--model", "deflated"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["coefficients"]) == {"alpha", "beta"}

    power = tmp_path / "power.csv"
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    rows = ["x,y"] + [f"{x},{5.0 * x ** 2}" for x in xs]
    power.write_text("\n".join(rows) + "\n")
    code, out, _ = _run(
        capsys, ["regress", "--input", str(power), "--model", "allometric"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["gamma_x"] == pytest.approx(2.0, rel=1e-10)
    assert payload["coefficients"]["beta"] == pytest.approx(5.0, rel=1e-10)


def test_regress_ancova_text_carries_note(capsys, tmp_path):
    path = tmp_path / "groups.csv"
    lines = ["x,y,group"]
    for x in (1.0, 2.0, 3.0, 4.0):
        lines.append(f"{x},{2.0 * x},a")
        lines.append(f"{x},{2.5 * x},b")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = _run(
        capsys,
        ["regress", "--input", str(path), "--model", "ancova", "--format", "text"],
    )
    assert code == 0
    assert "one common slope" in out and "one slope per group" in out
    assert "zero-intercept slope treats the denominator as error-free" in out

    code, out, _ = _run(capsys, ["regress", "--input", str(path), "--model", "ancova"])
    assert code == 0
    payload = json.loads(out)
    assert "note" in payload and "slope_2" in payload["full"]["coefficients"]


def test_regress_ancova_without_group_column_exits_2(capsys, line_csv):
    code, _, err = _run(capsys, ["regress", "--input", line_csv, "--model", "ancova"])
    assert code == 2 and "group" in err


def test_regress_allometric_negative_data_exits_3(capsys, tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("x,y\n1.0,2.0\n-2.0,3.0\n4.0,5.0\n")
    code, _, err = _run(capsys, ["regress", "--input", str(path), "--model", "allometric"])
    assert code == 3 and err.startswith("error: allometric:")


# ------------------------------------------------------------------ demo


def test_demo_stork(capsys):
    code, out, err = _run(capsys, ["demo", "stork"])
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("county")
    assert "Partial regression" in out
    assert "Rate regression" in out
    code2, out2, _ = _run(capsys, ["demo", "stork"])
    assert out2 == out


def test_unknown_subcommand_and_topic_exit_2(capsys):
    assert _run(capsys, ["frobnicate"])[0] == 2
    assert _run(capsys, ["demo", "unicorn"])[0] == 2
    assert _run(capsys, [])[0] == 2
