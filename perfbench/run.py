"""End-to-end benchmark of the ratio-ci CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is run from its `src/`.
With --trace 0, each timed invocation is `python -m ratio_ci.cli ...` in a
child process, one at a time, repeated as often as fit in S seconds at
the seed commit (Workload.reps); the metrics are medians over the
repetitions. With --trace 1, perfbench/tracer.py repeats the same argv
in-process, once untraced and once traced, and the metrics are per-layer.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with
the environment, every timing, the output digest and any problems found.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from workloads import NPROC, WORKLOADS, Workload, generate_pairs, write_pairs

ROOT = Path(__file__).resolve().parents[1]
HELP_REPS = 5
# Address-space cap for every child: ci-boot peaks near 1.6 GB, and a run
# that needs far more fails fast instead of exhausting a shared machine.
AS_LIMIT = 3 * 1024**3
# Everything, including the traced run, ends this long after start.
DEADLINE_S = 160.0


@dataclass(frozen=True)
class Child:
    code: int  # negative: killed by that signal (timeouts are SIGKILLed)
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    # Share of the machine's CPU time the hypervisor gave to other guests
    # while the child ran; high values explain slow repetitions.
    steal_share: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def run_child(argv: list[str], env: dict, tmp: Path, timeout: float) -> Child:
    """Run one child to completion and read its own rusage with wait4.

    RUSAGE_CHILDREN would report the largest ru_maxrss of every child so
    far, so one memory-heavy workload would leak into the next.
    """
    out_path, err_path = tmp / "child.out", tmp / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        steal0, total0 = _cpu_ticks()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=env, cwd=ROOT, preexec_fn=_cap_memory,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    steal1, total1 = _cpu_ticks()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        steal_share=(steal1 - steal0) / max(total1 - total0, 1),
    )


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RATIO_CI_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(wl: Workload) -> dict:
    with open("/proc/cpuinfo") as f:
        cpu_model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    with open("/proc/meminfo") as f:
        mem_kib = next((int(ln.split()[1]) for ln in f if ln.startswith("MemTotal")), None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model,
        "mem_total_mb": mem_kib / 1024.0 if mem_kib else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cli_threads": wl.threads,
        # Never passed on: the children run with RATIO_CI_THREADS unset.
        "ratio_ci_threads_env": os.environ.get("RATIO_CI_THREADS"),
    }


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "ratio_ci.cli", *args]


class Runner:
    """Runs children before a shared deadline and tallies failures."""

    def __init__(self, env: dict, tmp: Path, deadline: float):
        self.env, self.tmp, self.deadline = env, tmp, deadline
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str], what: str) -> Child:
        child = run_child(argv, self.env, self.tmp, self.remaining())
        self.attempted += 1
        if child.code != 0:
            self.fail(f"{what}: exit {child.code}: {child.stderr.decode(errors='replace')[-300:]}")
        return child

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def measure(
    wl: Workload, argv: list[str], data, runner: Runner, seconds: float
) -> tuple[dict, dict]:
    """End-to-end metrics: medians over repeated child runs."""
    help_argv = cli_argv(wl.help_argv())
    # Untimed: the first import compiles bytecode, which users pay once.
    runner.run(help_argv, "help warm-up")
    helps = [runner.run(help_argv, "help") for _ in range(HELP_REPS)]
    for child in helps:
        if child.code == 0 and b"usage:" not in child.stdout:
            runner.fail("help: no usage text")

    reps: list[Child] = []
    while len(reps) < wl.reps(seconds) and runner.remaining() > 1.0:
        reps.append(runner.run(cli_argv(argv), f"rep {len(reps)}"))

    ok = [c for c in reps if c.code == 0]
    for i, child in enumerate(ok[1:], start=1):
        if child.digest != ok[0].digest:
            runner.fail(f"successful rep {i}: stdout differs from the first")
    problems = wl.check(ok[0].stdout.decode("utf-8"), data) if ok else []
    if problems:
        runner.problems += problems
        runner.failed += sum(c.digest == ok[0].digest for c in ok)

    metrics = {"setup_s": statistics.median(c.wall_s for c in helps)}
    if ok:
        wall = statistics.median(c.wall_s for c in ok)
        metrics |= {
            "wall_s": wall,
            "cpu_s": statistics.median(c.cpu_s for c in ok),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
            "sim_method_runs_per_s": wl.method_runs / wall,
            "ci_pairs_per_s": wl.total_pairs / wall,
        }
    details = {
        "rep_wall_s": [c.wall_s for c in reps],
        "rep_cpu_s": [c.cpu_s for c in reps],
        "rep_peak_rss_mb": [c.peak_rss_mb for c in reps],
        "rep_steal_share": [c.steal_share for c in reps],
        "help_wall_s": [c.wall_s for c in helps],
        "stdout_sha256": ok[0].digest if ok else None,
    }
    return metrics, details


def trace(wl: Workload, argv: list[str], data, runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics from one untraced and one traced in-process run."""
    child = runner.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), *argv], "tracer")
    if child.code != 0:
        return {}, {}
    report = json.loads(child.stdout)
    stdout = report.pop("stdout")
    if report["untraced_code"] != 0 or report["traced_code"] != 0:
        runner.fail(f"in-process exit codes {report['untraced_code']}, {report['traced_code']}")
    elif not report["stdout_equal"]:
        runner.fail("traced stdout differs from untraced stdout")
    else:
        problems = wl.check(stdout, data)
        runner.problems += problems
        runner.failed += bool(problems)
    return report.pop("metrics"), report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "ratio_ci" / "cli.py").is_file():
        print(f"error: no ratio_ci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        data = input_path = None
        if wl.subcommand == "ci":
            data = generate_pairs(args.seed, wl.pairs)
            input_path = tmp / "pairs.csv"
            write_pairs(input_path, *data)
        argv = wl.argv(args.seed, input_path)
        runner = Runner(child_env(), tmp, deadline)
        if args.trace:
            metrics, details = trace(wl, argv, data, runner)
        else:
            metrics, details = measure(wl, argv, data, runner, args.seconds)

    attempted = max(runner.attempted, 1)
    # Laplace's rule of succession: never 0, and any failure moves it.
    metrics["failed_share"] = (runner.failed + 1) / (attempted + 2)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        runner.problems.append(f"metrics not measured: {missing}")
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [a if a != str(input_path) else "<generated pairs.csv>" for a in argv],
        "environment": environment(wl),
        "problems": runner.problems,
        **details,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
