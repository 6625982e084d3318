"""Traced run: the same CLI argv in-process through ratio_ci.cli.main, with
timers wrapped around each layer's calls.

Usage: python3 perfbench/tracer.py <ratio-ci argv...>

Runs the argv once untraced and once traced, and prints one JSON object:
both wall times, whether the two stdouts are byte-identical, the traced
stdout, and the per-layer metrics. Nothing in the package is edited; each
function is replaced, for the traced call only, in the namespace of the
module that calls it, because the package imports names with
`from .core import ...` and patching the defining module alone would time
nothing.

A span's self time is its wall time minus the part of it that its child
spans cover; cpu_s is the same for the calling thread's CPU time
(time.thread_time), and wait_s is self wall minus self CPU: time the thread
was runnable but not running, such as waiting for the GIL. Spans nest per
thread; a span opened on a pool worker with nothing open on that thread is
a child of the span open on the main thread (run_grid).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np

# span -> (module, attribute) pairs, each wrapped where the caller looks it up.
SPANS = {
    "cli.parse": [("cli", "_load_pairs")],
    "cli.serialize": [("cli", "_json_text"), ("cli", "_csv_text"), ("cli", "grid_csv_rows")],
    "core.draw": [("montecarlo", "_draw_run")],
    "core.summarize": [
        ("cli", "summarize"),
        ("montecarlo", "summarize"),
        ("bootstrap", "summarize"),
        ("methods", "summarize"),
    ],
    "methods.fieller": [("cli", "fieller_set"), ("montecarlo", "fieller_set")],
    "methods.taylor": [("cli", "taylor_limits"), ("montecarlo", "taylor_limits")],
    "methods.index": [("cli", "index_limits"), ("montecarlo", "index_limits")],
    "methods.trimmed_index": [
        ("cli", "trimmed_index_limits"),
        ("montecarlo", "trimmed_index_limits"),
    ],
    "methods.zero_variance": [
        ("cli", "zero_variance_limits"),
        ("montecarlo", "zero_variance_limits"),
    ],
    "methods.invert_t0_band": [("methods", "invert_t0_band"), ("bootstrap", "invert_t0_band")],
    "bootstrap.hwang": [("cli", "hwang_set"), ("montecarlo", "hwang_set")],
    "bootstrap.ratio_boot": [
        ("cli", "ratio_bootstrap_results"),
        ("montecarlo", "ratio_bootstrap_results"),
    ],
    "bootstrap.index_draw": [("bootstrap", "_resample_indices")],
    "bootstrap.resample_t0": [("bootstrap", "_resample_t0")],
    "bootstrap.resample_ratio": [("bootstrap", "_ratio_distribution")],
    "bootstrap.jackknife": [("bootstrap", "_jackknife_t0"), ("bootstrap", "_ratio_jackknife")],
    "bootstrap.bca_adjust": [("bootstrap", "_bca_from_distribution"), ("bootstrap", "_bca_levels")],
    "montecarlo.run_grid": [("cli", "run_grid")],
    "montecarlo.run_cell": [("montecarlo", "run_cell")],
}
LAYERS = ("cli", "core", "methods", "bootstrap", "montecarlo")
# Method entry points: the calls whose RatioCiErrors run_cell swallows.
METHOD_SPANS = (
    "methods.fieller",
    "methods.taylor",
    "methods.index",
    "methods.trimmed_index",
    "methods.zero_variance",
    "bootstrap.hwang",
    "bootstrap.ratio_boot",
)
ERROR_CLASSES = (
    "DomainError",
    "NonFiniteInput",
    "TooFewObservations",
    "ZeroMean",
    "ZeroDenominator",
    "ZeroNumerator",
    "ZeroIndividualDenominator",
    "DegenerateVariance",
    "NonFiniteResult",
    "TooFewAfterTrim",
    "TooFewReplicates",
    "AllResamplesDegenerate",
)
COUNTERS = (
    "cli.rows_parsed",
    "core.redraws",
    "methods.errors",
    *(f"methods.errors.{name}" for name in ERROR_CLASSES),
    "methods.errors.other",
    "methods.unbounded_sets",
    "bootstrap.replicates",
    "bootstrap.dropped_replicates",
    "bootstrap.fallbacks",
)


class _Frame:
    __slots__ = ("name", "parent", "same_thread", "start", "cpu0", "children", "child_cpu")

    def __init__(self, name, parent, same_thread):
        self.name = name
        self.parent = parent
        self.same_thread = same_thread
        self.children: list[tuple[float, float]] = []
        self.child_cpu = 0.0
        self.start = time.perf_counter()
        self.cpu0 = time.thread_time()


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        # span -> [self wall, self cpu, wait, calls, inclusive wall, inclusive cpu]
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals (cross-thread children overlap)."""
    if len(intervals) < 2:
        return sum(end - start for start, end in intervals)
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Per-thread span stacks and counters, merged when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.top_level_wall = 0.0

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._states.append(state)
            return state

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    def _open(self, state: _ThreadState, name: str) -> _Frame:
        if state.stack:
            frame = _Frame(name, state.stack[-1], True)
        else:
            main_stack = self._main.stack
            parent = main_stack[-1] if main_stack and state is not self._main else None
            frame = _Frame(name, parent, False)
        state.stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: _Frame) -> None:
        end = time.perf_counter()
        cpu = time.thread_time() - frame.cpu0
        state.stack.pop()
        wall = end - frame.start
        self_wall = wall - _covered(frame.children)
        self_cpu = cpu - frame.child_cpu
        tot = state.totals.get(frame.name)
        if tot is None:
            tot = state.totals[frame.name] = [0.0, 0.0, 0.0, 0, 0.0, 0.0]
        tot[0] += self_wall
        tot[1] += self_cpu
        # A cross-thread child can overlap the parent's own CPU time.
        tot[2] += max(self_wall - self_cpu, 0.0)
        tot[3] += 1
        tot[4] += wall
        tot[5] += cpu
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))
            if frame.same_thread:
                frame.parent.child_cpu += cpu
        elif state is self._main:
            self.top_level_wall += wall

    def wrap(self, module, attr: str, span: str | None, on_result=None, errors=None):
        """Replace module.attr with a timed call; False if it does not exist.

        A call made while the same span is innermost on this thread (one
        wrapped helper calling another under the same span name) is not a
        new span. on_result(tracer, args, result) runs after every call,
        with result None when the call raised; `errors` is the exception
        class whose instances are counted by class name.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            state = tracer._state()
            frame = None
            if span is not None and not (state.stack and state.stack[-1].name == span):
                frame = tracer._open(state, span)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                if errors is not None and isinstance(exc, errors):
                    tracer.count_error(exc)
                raise
            finally:
                if frame is not None:
                    tracer._close(state, frame)
                if on_result is not None:
                    on_result(tracer, args, result)

        setattr(module, attr, timed)
        self._patches.append((module, attr, original))
        return True

    def count_error(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.count("methods.errors")
        self.count(f"methods.errors.{name if name in ERROR_CLASSES else 'other'}")

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span's targets for the duration of the block."""
        self._main = self._state()
        modules = {}
        for name in (*LAYERS, "errors"):
            try:
                modules[name] = importlib.import_module(f"ratio_ci.{name}")
            except ImportError:
                pass
        error_base = getattr(modules.get("errors"), "RatioCiError", None)
        for span, targets in SPANS.items():
            hook = _HOOKS.get(span)
            errs = error_base if span in METHOD_SPANS else None
            wrapped = [
                self.wrap(modules[mod], attr, span, hook, errs)
                for mod, attr in targets
                if mod in modules
            ]
            if not any(wrapped):
                self.missing.append(span)
        if "bootstrap" not in modules or not self.wrap(
            modules["bootstrap"], "_collect", None, _on_collect
        ):
            self.missing += ["bootstrap.replicates", "bootstrap.dropped_replicates"]
        try:
            yield self
        finally:
            self.unpatch()

    def merged(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        totals: dict[str, list[float]] = {}
        counters: dict[str, float] = {}
        for state in self._states:
            for name, tot in state.totals.items():
                acc = totals.setdefault(name, [0.0] * len(tot))
                for i, v in enumerate(tot):
                    acc[i] += v
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0) + value
        return totals, counters


# ----------------------------------------------------------- counter hooks


def _on_load_pairs(tracer, args, sample):
    if sample is not None:
        tracer.count("cli.rows_parsed", sample.n)


def _on_draw(tracer, args, result):
    if result is not None:
        tracer.count("core.redraws", result[2])


def _on_method(tracer, args, result):
    results = result.values() if isinstance(result, dict) else (result,)
    for r in results:
        case = getattr(getattr(r, "confidence_set", None), "case", None)
        if case is not None and getattr(case, "value", case) != "bounded":
            tracer.count("methods.unbounded_sets")


def _on_collect(tracer, args, result):
    """_collect(values, replications) keeps the finite values. Counted from
    the arguments, so a call that raises for too many drops still counts."""
    values, replications = args[0], int(args[1])
    tracer.count("bootstrap.replicates", replications)
    tracer.count("bootstrap.dropped_replicates", replications - int(np.isfinite(values).sum()))


_HOOKS = {
    "cli.parse": _on_load_pairs,
    "core.draw": _on_draw,
    **{span: _on_method for span in METHOD_SPANS},
}


# -------------------------------------------------------------------- run


def _call_main(main, argv) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), time.perf_counter() - start


def _threads(argv) -> int:
    if "--threads" in argv:
        return int(argv[argv.index("--threads") + 1])
    return 1


def _is_fallback(record: warnings.WarningMessage) -> bool:
    return "falling back" in str(record.message)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, argv) -> dict:
    totals, counters = tracer.merged()
    metrics: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in SPANS:
        self_wall, self_cpu, wait, calls, _, _ = totals.get(span, [0.0, 0.0, 0.0, 0, 0.0, 0.0])
        metrics[f"{span}.self_s"] = self_wall
        metrics[f"{span}.cpu_s"] = self_cpu
        metrics[f"{span}.wait_s"] = wait
        metrics[f"{span}.calls"] = calls
        layer_self[span.split(".")[0]] += self_wall
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    replicates = metrics["bootstrap.replicates"]
    metrics["bootstrap.retained_ratio"] = (
        (replicates - metrics["bootstrap.dropped_replicates"]) / replicates if replicates else 0.0
    )
    grid_wall = totals.get("montecarlo.run_grid", [0.0] * 6)[4]
    cell_cpu = totals.get("montecarlo.run_cell", [0.0] * 6)[5]
    metrics["montecarlo.pool_utilization"] = (
        cell_cpu / (grid_wall * _threads(argv)) if grid_wall else 0.0
    )
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    metrics["trace.unattributed_s"] = traced_wall - tracer.top_level_wall
    return metrics


def main(argv: list[str]) -> int:
    from ratio_ci import cli

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: ratio_ci was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    untraced_code, untraced_out, untraced_wall = _call_main(cli.main, argv)
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.installed():
            traced_code, traced_out, traced_wall = _call_main(cli.main, argv)
    tracer.count("bootstrap.fallbacks", sum(1 for w in caught if _is_fallback(w)))
    metrics = layer_metrics(tracer, traced_wall, untraced_wall, argv)
    report = {
        "untraced_code": untraced_code,
        "traced_code": traced_code,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "stdout_equal": traced_out == untraced_out,
        "stdout_sha256": hashlib.sha256(traced_out.encode("utf-8")).hexdigest(),
        "stdout": traced_out,
        "missing": tracer.missing,
        "dominant_layer": max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"]),
        "metrics": metrics,
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
