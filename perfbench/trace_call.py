"""Run one `bifree` CLI call in-process with a span at every layer boundary.

    python3 perfbench/trace_call.py --run-id N --summary FILE --spans FILE -- <argv>

A layer is a module of the package.  Every function a module imports from
another layer is rebound to a wrapper that records a span (name, start, end,
parent, run id); so are the stage entry points in ``STAGES``.  A generator
gets one span per ``next()``.  Nothing under ``src/`` changes.  The spans stay
in memory until the call ends, then go to the spans file (numpy ``.npz``) and
their per-layer totals to the summary file (JSON).  The CLI output goes to
stdout unchanged, so it can be compared byte for byte with an untraced run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "partitions",
    "bichromatic",
    "meanders",
    "cumulants",
    "limit_law",
    "tensor_clt",
    "matrix_model",
    "cli",
)
# Leaves called too often to wrap (blocks_cross: 3.0M calls at K = 14 made a
# 7 s call take 12.7 s), and text helpers whose time belongs to cli.
UNWRAPPED = frozenset({"blocks_cross", "format_rational", "parse_rational"})
# Entry points of stages that run inside their own module; for matrix_model
# also the names cli calls as ``matrix_model.<name>``.
STAGES = {
    "partitions": ("enumerate_partitions", "enumerate_pairings"),
    "meanders": ("enumerate_systems",),
    "matrix_model": (
        "empirical_moments",
        "exact_trace_predictions",
        "compare_to_prediction",
        "dump_spectrum",
        "trial_traces",
        "sample_matrices",
    ),
}


def _layer(fn) -> str | None:
    module = getattr(fn, "__module__", None) or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == "bifree" and layer in LAYERS else None


class Tracer:
    """Spans in flat arrays, with the open spans on a stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.returned: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.yielded = array("b")  # 1 when a generator's next() gave an item
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.returned.append(0)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.yielded.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn):
        nid = self._name_id(f"{_layer(fn)}.{fn.__name__}")
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.yielded[idx] = 1
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.calls[nid] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if isinstance(result, (list, tuple)):
                self.returned[nid] += len(result)
            return result

        return call

    def install(self) -> None:
        """Rebind every cross-layer import and every stage entry point."""
        modules = {layer: importlib.import_module(f"bifree.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                target = _layer(obj)
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and target not in (None, layer)
                    and name not in UNWRAPPED
                ):
                    setattr(module, name, self.wrap(obj))
        for layer, names in STAGES.items():
            for name in names:
                obj = getattr(modules[layer], name, None)
                if obj is not None:  # a later refactor may have removed it
                    setattr(modules[layer], name, self.wrap(obj))

    def summary(self, run_id: int, t0: float, t1: float) -> tuple[dict, dict]:
        """Per-name totals and the raw spans (times relative to t0)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        yielded = np.frombuffer(self.yielded, dtype=np.int8) > 0
        start = np.frombuffer(self.start, dtype=np.float64) - t0
        end = np.frombuffer(self.end, dtype=np.float64) - t0
        dur = end - start
        nested = parent >= 0
        up = parent[nested]
        children = np.bincount(up, weights=dur[nested], minlength=len(name))
        self_time = dur - children
        nesting_ok = bool(
            np.all(start[nested] >= start[up])
            and np.all(end[nested] <= end[up])
            and np.all(start[~nested] >= 0.0)
            and np.all(end[~nested] <= t1 - t0)
        )
        k = len(self.names)
        self_by = np.bincount(name, weights=self_time, minlength=k)
        total_by = np.bincount(name, weights=dur, minlength=k)
        items_by = np.bincount(name, weights=yielded, minlength=k)
        walked = 0
        if "partitions.enumerate_partitions" in self.names and "partitions.enumerate_noncrossing" in self.names:
            inner = nested & yielded & (name == self.names.index("partitions.enumerate_partitions"))
            nc = self.names.index("partitions.enumerate_noncrossing")
            walked = int(np.count_nonzero(name[parent[inner]] == nc))
        summary = {
            "run_id": run_id,
            "wall_s": t1 - t0,
            "spans": int(len(name)),
            "top_level_s": float(dur[~nested].sum()),
            "nesting_ok": nesting_ok,
            "nc_walked": walked,
            "names": {
                n: {
                    "calls": self.calls[i],
                    "items": int(items_by[i]),
                    "returned": self.returned[i],
                    "self_s": float(self_by[i]),
                    "total_s": float(total_by[i]),
                }
                for i, n in enumerate(self.names)
            },
        }
        spans = {
            "names": np.array(self.names),
            "run_id": np.int32(run_id),
            "name": name,
            "parent": parent,
            "yielded": yielded,
            "start": start,
            "end": end,
        }
        return summary, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    from bifree import cli

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.run(cli_argv, out=out)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    t1 = time.perf_counter()
    sys.stdout.write(out.getvalue())
    summary, spans = tracer.summary(args.run_id, t0, t1)
    np.savez(args.spans, **spans)
    args.summary.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
