"""The golden output corpus: the exact stdout, stderr and exit code of CLI calls.

    PYTHONPATH=src python tests/make_golden.py [NAME ...]

rewrites ``tests/golden/NAME.json`` for each named entry of ``ENTRIES``
(every entry when none is named) and ``tests/golden/numpy.json``, the numpy
version and BLAS build the corpus was recorded with; ``test_golden.py``
reruns every entry and compares the bytes.  A change that moves output on
purpose regenerates only the entries it moves.

Most calls run in-process through ``cli.run``.  The dense-letter ``simulate``
and the spectrum dump run in a fresh interpreter (``python -m bifree.cli``):
their sums go through BLAS, whose thread count the CLI pins to one only
before numpy loads, and a test process may have loaded it already.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).resolve().parent / "golden"
DUMP = "{dump}"  # an argument replaced by the path of a fresh spectrum file


def _moments(atoms, order: int) -> str:
    """JSON moments 1..order of the equal-weight law on ``atoms``."""
    return json.dumps(
        [str(sum(Fraction(x) ** k for x in atoms) / len(atoms)) for k in range(1, order + 1)]
    )


LEGS = _moments((-2, 0, 1), 7)  # mean -1/3: odd orders print p/q/sqrt(r/s)
MIRROR = ("4/3", "-2/3", "-5/3")  # 2 lam - x over the same atoms: same mean and variance
TWO_LEGS = json.dumps(
    {"ms_a": json.loads(_moments((-2, 0, 1), 5)), "ms_b": json.loads(_moments(MIRROR, 5)),
     "lambda": "-1/3"}
)
WRONG_LAMBDA = TWO_LEGS.replace('"-1/3"}', '"1/3"}')
# LEGS' law scaled by 10^-200: float(base) underflows, and floats of the
# normalised moments must not (they print LEGS' bytes)
TINY = _moments((Fraction(-2, 10**200), 0, Fraction(1, 10**200)), 5)
CLT = ["clt", "moments", "--input", "-"]
SIM = ["simulate", "--seed", "1"]

# name -> (argv, stdin, fresh interpreter)
ENTRIES: dict[str, tuple[list[str], str | None, bool]] = {
    "partitions-count": (["partitions", "count", "--n", "6"], None, False),
    "partitions-count-nc2-odd": (
        ["partitions", "count", "--n", "7", "--family", "nc2"], None, False
    ),
    "partitions-list-nc": (["partitions", "list", "--n", "4", "--family", "nc"], None, False),
    "partitions-list-csv": (["--output", "csv", "partitions", "list", "--n", "3"], None, False),
    "partitions-cap": (["partitions", "count", "--n", "11"], None, False),
    "partitions-negative": (["partitions", "list", "--n", "-1"], None, False),
    "bnc-list": (["bnc", "list", "--chi", "LRRL"], None, False),
    "bnc-list-csv": (["--output", "csv", "bnc", "list", "--chi", "LLRLR"], None, False),
    "bnc-check": (["bnc", "check", "--chi", "LRLR", "--partition", "1,3|2,4"], None, False),
    "bnc-check-csv": (
        ["--output", "csv", "bnc", "check", "--chi", "LLRR", "--partition", "1,4|2,3"], None, False
    ),
    "bnc-cap": (["bnc", "list", "--chi", "LRLRLRLRLRL"], None, False),
    "bnc-bad-partition": (["bnc", "check", "--chi", "LR", "--partition", "1,3"], None, False),
    "meander-dist": (["meander", "dist", "--size", "5"], None, False),
    "meander-dist-csv": (["--output", "csv", "meander", "dist", "--size", "4"], None, False),
    "meander-loops": (["meander", "loops", "--system", "top=1,2|3,4;bottom=1,4|2,3"], None, False),
    "meander-cap": (["meander", "dist", "--size", "13"], None, False),
    "cumulants-to-moments": (
        ["cumulants", "to-moments", "--input", "-"], '["0", "1", "0", "1/2"]', False
    ),
    "cumulants-from-moments": (
        ["cumulants", "from-moments", "--input", "-"], '["1/3", "2", "-5/7", "4"]', False
    ),
    "cumulants-float": (
        ["--numeric", "float", "cumulants", "from-moments", "--input", "-"],
        '["1/3", "2", "-5/7"]',
        False,
    ),
    "cumulants-csv": (
        ["--output", "csv", "cumulants", "to-moments", "--input", "-"], '["1", "1"]', False
    ),
    "cumulants-bad-json": (["cumulants", "to-moments", "--input", "-"], "[1, ", False),
    "cumulants-cap": (["cumulants", "to-moments", "--input", "-"], json.dumps(["1"] * 101), False),
    "clt-moments": ([*CLT, "--m", "1,2,3,4,5,6,7", "--n", "1,2,10"], LEGS, False),
    "clt-moments-float": (["--numeric", "float", *CLT, "--m", "3,4", "--n", "1,5"], LEGS, False),
    "clt-moments-csv": (["--output", "csv", *CLT, "--m", "2,3", "--n", "4"], LEGS, False),
    "clt-moments-two-legs": ([*CLT, "--m", "3,5", "--n", "2,100"], TWO_LEGS, False),
    "clt-moments-no-sizes": ([*CLT, "--m", "2", "--n", ""], LEGS, False),
    "clt-table": (
        ["clt", "table", "--input", "-", "--m", "2,3,4", "--n", "10,100"], TWO_LEGS, False
    ),
    "clt-table-csv": (
        ["--output", "csv", "clt", "table", "--input", "-", "--m", "2,5", "--n", "3"], LEGS, False
    ),
    "clt-table-float": (
        ["--numeric", "float", "clt", "table", "--input", "-", "--m", "3,4,5", "--n", "2,50"],
        LEGS, False,
    ),
    "clt-moments-tiny-scale-float": (
        ["--numeric", "float", *CLT, "--m", "3,5", "--n", "1,10"], TINY, False
    ),
    "clt-table-tiny-scale": (["clt", "table", "--input", "-", "--m", "3", "--n", "10"], TINY, False),
    "clt-order-cap": ([*CLT, "--m", "11", "--n", "1"], LEGS, False),
    "clt-wrong-lambda": ([*CLT, "--m", "2", "--n", "1"], WRONG_LAMBDA, False),
    "limit-moments": (["limit", "moments", "--q", "2/3", "--K", "12"], None, False),
    "limit-moments-float": (
        ["--numeric", "float", "limit", "moments", "--q", "1/2", "--K", "8"], None, False
    ),
    "limit-moments-csv": (
        ["--output", "csv", "limit", "moments", "--q", "1/3", "--K", "6"], None, False
    ),
    "limit-cap": (["limit", "moments", "--q", "1/2", "--K", "101"], None, False),
    # the benchmark's two simulate configs, at its seed 1
    "simulate-criterion-8": ([*SIM, "--d", "2", "--n", "100", "--trials", "200"], None, False),
    "simulate-shifted": (
        [*SIM, "--d", "3", "--n", "64", "--trials", "10", "--max-moment", "6", "--lambda", "1/2"],
        None, False,
    ),
    "simulate-csv": (
        ["--output", "csv", *SIM, "--d", "2", "--n", "8", "--trials", "20", "--max-moment", "5",
         "--lambda=-1/3", "--sigma", "3/2"],
        None, False,
    ),
    "simulate-one-trial": (
        [*SIM, "--d", "1", "--n", "5", "--trials", "1", "--max-moment", "2"], None, False
    ),
    "simulate-dense": (
        ["simulate", "--d", "6", "--n", "16", "--trials", "40", "--max-moment", "7",
         "--lambda", "1/2", "--seed", "2"],
        None, True,
    ),
    "simulate-dump": (
        ["simulate", "--d", "2", "--n", "4", "--trials", "2", "--max-moment", "3",
         "--lambda", "1/2", "--seed", "5", "--dump-spectrum", DUMP],
        None, True,
    ),
    "simulate-dimension-cap": ([*SIM, "--d", "1", "--n", "600", "--trials", "1"], None, False),
    "simulate-work-cap": ([*SIM, "--d", "2", "--n", "100", "--trials", "33501944"], None, False),
}


def run_entry(name: str) -> dict:
    """The entry's argv, exit code, stdout and stderr, and the text of the
    spectrum file when it writes one."""
    argv, stdin, fresh = ENTRIES[name]
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "spectrum.txt")
        args = [dump if arg == DUMP else arg for arg in argv]
        if fresh:
            from helpers import run_fresh

            proc = run_fresh(["-m", "bifree.cli", *args])
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            from bifree import cli

            out, err = io.StringIO(), io.StringIO()
            # simulate sets OPENBLAS_NUM_THREADS for its own process: undo it
            with mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
                with mock.patch.object(sys, "stdin", io.StringIO(stdin or "")):
                    code = cli.run(args, out)
            out, err = out.getvalue(), err.getvalue()
        result = {"argv": argv, "code": code, "stdout": out, "stderr": err}
        if os.path.exists(dump):
            result["file"] = Path(dump).read_text(encoding="ascii")
    return result


def platform_record() -> dict:
    """numpy's version and BLAS build: seeded sampling and the dense sums
    depend on both."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 prints its build and returns nothing
        return {"numpy": np.__version__, "blas": "unknown"}
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(ENTRIES))
    if unknown:
        raise SystemExit(f"unknown entries: {unknown}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names or ENTRIES:
        text = json.dumps(run_entry(name), indent=1) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="ascii")
    record = json.dumps(platform_record(), indent=1) + "\n"
    (GOLDEN / "numpy.json").write_text(record, encoding="ascii")


if __name__ == "__main__":
    main(sys.argv[1:])
