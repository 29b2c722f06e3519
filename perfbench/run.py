#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `bifree` command line.

    python3 perfbench/run.py --workload exact-clt --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is the package under
``src/``.  Each CLI call runs as a fresh process, one at a time (a closed
loop with one client), and is timed from process start to exit.  A run:

1. times the workload's subcommands with ``--help`` (set-up: interpreter
   start, ``import bifree.cli`` and parser build) several times;
2. repeats passes over the workload's calls until ``--seconds`` of passes
   have been timed;
3. checks the first pass's output against independent oracles, outside the
   timed region, and every later output byte for byte against it;
4. with ``--trace 1``, runs each call once more in-process under
   ``trace_call.py`` and reports per-layer metrics instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A call fails when it exits
non-zero, fails its output check, or differs from the first verified output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 5
CALL_TIMEOUT_S = 150


@dataclass(frozen=True)
class Call:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes


class Runner:
    """Runs processes one at a time and counts attempted calls."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0

    def run(self, argv: list[str]) -> Call:
        self.attempted += 1
        with tempfile.TemporaryFile(dir=WORK) as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT
            )
            killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # wait4, not wait: the child's own max RSS comes with it
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            return Call(wall, usage.ru_maxrss / 1024, proc.returncode, out.read())

    def cli(self, argv: list[str]) -> Call:
        return self.run([sys.executable, "-m", "bifree.cli", *argv])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine_record() -> dict:
    """Hardware and library versions the numbers were taken on."""
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def layer_metrics(
    summaries: list[dict], traced_wall: float, untraced_wall: float
) -> tuple[dict[str, float], bool]:
    """Per-layer metrics summed over the traced calls of one pass, and whether
    the spans nest and, with cli's own time, account for the traced wall."""
    names: dict[str, dict[str, float]] = {}
    layers: dict[str, float] = {}
    for s in summaries:
        for name, stats in s["names"].items():
            acc = names.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + stats["self_s"]

    def stat(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    wall = sum(s["wall_s"] for s in summaries)
    cli_self = wall - sum(s["top_level_s"] for s in summaries)
    nc_yielded = stat("partitions.enumerate_noncrossing", "items")
    # the recursive construction walks nothing it does not yield
    nc_walked = max(sum(s["nc_walked"] for s in summaries), nc_yielded)
    coloured = stat("cumulants.free_coloured_moment", "calls")
    values = {
        "partitions.self_s": layers.get("partitions", 0.0),
        "partitions.nc_yielded": nc_yielded,
        "partitions.nc_yield_ratio": nc_yielded / nc_walked if nc_walked else 0.0,
        "partitions.pairings_yielded": stat("partitions.enumerate_pairings", "items"),
        "cumulants.self_s": layers.get("cumulants", 0.0),
        "cumulants.coloured_calls": coloured,
        "cumulants.coloured_miss_ratio": (
            stat("partitions.enumerate_noncrossing", "calls") / coloured if coloured else 0.0
        ),
        "tensor_clt.self_s": layers.get("tensor_clt", 0.0),
        "tensor_clt.moment_calls": stat("tensor_clt.exact_moment_Sn", "calls")
        + stat("tensor_clt.convergence_table", "returned"),
        "limit_law.self_s": layers.get("limit_law", 0.0),
        "meanders.self_s": layers.get("meanders", 0.0),
        "meanders.systems_yielded": stat("meanders.enumerate_systems", "items"),
        "bichromatic.self_s": layers.get("bichromatic", 0.0),
        "matrix_model.self_s": layers.get("matrix_model", 0.0),
        "matrix_model.trace_s": stat("matrix_model.trial_traces", "self_s"),
        "matrix_model.trials": stat("matrix_model.trial_traces", "calls"),
        "matrix_model.sample_s": stat("matrix_model.sample_matrices", "total_s"),
        "matrix_model.matrices_sampled": stat("matrix_model.sample_matrices", "returned"),
        "cli.self_s": cli_self,
        "trace.wall_s": wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    accounted = sum(layers.values()) + cli_self
    consistent = all(s["nesting_ok"] for s in summaries) and abs(accounted - wall) <= 1e-6 * max(wall, 1.0)
    return values, consistent


def measure(wl, workdir: Path, seconds: float, trace: bool) -> dict:
    """Set-up reps, timed passes and output checks; with ``trace`` also one
    traced pass and its per-layer metrics."""
    runner = Runner()

    helps = wl.help_calls()
    warm_up = runner.cli(helps[0])  # the first import writes bytecode caches
    failed = int(warm_up.code != 0)
    # Set-up reps alternate with the passes, so both sample the same spells
    # of a shared machine's speed.
    setup: list[float] = []
    passes: list[list[Call]] = []

    def timed() -> float:
        return sum(c.wall_s for p in passes for c in p)

    while len(setup) < SETUP_REPS or timed() < seconds:
        if len(setup) < SETUP_REPS:
            calls = [runner.cli(argv) for argv in helps]
            failed += sum(c.code != 0 or b"usage:" not in c.stdout for c in calls)
            setup.append(sum(c.wall_s for c in calls))
        if timed() < seconds:
            passes.append([runner.cli(argv) for argv in wl.calls])

    first = passes[0]
    verdicts = wl.check([c.stdout for c in first])
    verified = []
    for argv, call, verdict in zip(wl.calls, first, verdicts):
        ok = call.code == 0 and verdict is None
        if not ok:
            reason = f"exit code {call.code}" if call.code else verdict
            print(f"perfbench: check failed: bifree {' '.join(argv)}: {reason}", file=sys.stderr)
        verified.append(call.stdout if ok else None)

    def failures(calls: list[Call]) -> int:
        count = 0
        for argv, call, ref in zip(wl.calls, calls, verified):
            if call.code != 0 or ref is None or call.stdout != ref:
                count += 1
                if ref is not None:
                    print(f"perfbench: output changed: bifree {' '.join(argv)}", file=sys.stderr)
        return count

    failed += sum(failures(p) for p in passes)
    walls = [sum(c.wall_s for c in p) for p in passes]
    result = {
        "attempted": runner.attempted,
        "failed": failed,
        "wall_s": quartiles(walls),
        "setup_s": quartiles(setup),
        "peak_rss_mb": quartiles([max(c.rss_mb for c in p) for p in passes]),
        "passes": len(passes),
    }
    if not trace:
        return result

    traced, summaries = [], []
    for run_id, argv in enumerate(wl.calls):
        summary_file = workdir / f"trace-{run_id}.json"
        summary_file.unlink(missing_ok=True)
        call = runner.run(
            [
                sys.executable,
                str(BENCH / "trace_call.py"),
                "--run-id", str(run_id),
                "--summary", str(summary_file),
                "--spans", str(workdir / f"spans-{run_id}.npz"),
                "--",
                *argv,
            ]
        )
        traced.append(call)
        if summary_file.exists():
            summaries.append(json.loads(summary_file.read_text()))
    failed += failures(traced)
    layers, consistent = layer_metrics(summaries, sum(c.wall_s for c in traced), result["wall_s"][1])
    if len(summaries) != len(wl.calls) or not consistent:
        print("perfbench: trace spans do not account for the traced wall", file=sys.stderr)
        failed += 1
    layers["matrix_model.max_abs_z"] = wl.max_abs_z([c.stdout for c in first]) if wl.max_abs_z else 0.0
    result.update(failed=failed, layers=layers)
    return result


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "z" if metric.endswith("_z") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of the bifree CLI")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bifree" / "cli.py").is_file():
        print(f"perfbench: no bifree sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bifree
    from workloads import WORKLOADS

    if Path(bifree.__file__).resolve().parent != SRC / "bifree":
        print(f"perfbench: imported bifree from {bifree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    result = measure(workload, workdir, args.seconds, bool(args.trace))
    print("machine: " + json.dumps(machine_record()))
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        q1, med, q3 = result[key]
        count = SETUP_REPS if key == "setup_s" else result["passes"]
        print(f"{args.workload} seed={args.seed} {key}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} (n={count})")
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in result["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"][1], "unit": "s"},
            "setup_s": {"value": result["setup_s"][1], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"][1], "unit": "MB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} failures: {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
