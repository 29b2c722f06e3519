"""Seeded workloads: the CLI calls each one makes and the checks on their output.

A workload is built from its seed alone.  The CLI sees only the generated
argv and the JSON files written under the work directory.  Every check runs
outside the timed region and returns, for each call, None when the output is
right or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, takewhile
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import oracles
from bifree import matrix_model, meanders, tensor_clt
from bifree.cumulants import CumulantSeq, MomentSeq, moments_from_free_cumulants
from bifree.limit_law import mu_q_moments_cumulant_route

# Orders up to this one are also cross-checked against the library's bi-free
# route, which costs ~0.35 s at m = 5, ~4 s at m = 6 and ~45 s at m = 7.
BIFREE_CHECK_ORDER = 5
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-13


@dataclass(frozen=True)
class Workload:
    calls: list[list[str]]
    checks: list[Callable[[bytes], str | None]]  # one per call
    # the Monte Carlo verdict, for workloads whose calls print z-scores
    max_abs_z: Callable[[list[bytes]], float] | None = None

    def check(self, outputs: list[bytes]) -> list[str | None]:
        return [_checked(check, out) for check, out in zip(self.checks, outputs)]

    def help_calls(self) -> list[list[str]]:
        """The same subcommands with --help: start-up, import and parser
        build, with no work done."""
        return [
            [*takewhile(lambda a: not a.startswith("--"), argv), "--help"] for argv in self.calls
        ]


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_exact(text: str) -> tuple[Fraction, Fraction | None]:
    """CLI rational text, "p/q" or "p/q/sqrt(r/s)", as (coeff, base)."""
    if "/sqrt(" in text:
        coeff, base = text.split("/sqrt(")
        return Fraction(coeff), Fraction(base.rstrip(")"))
    return Fraction(text), None


def _as_pair(value) -> tuple[Fraction, Fraction | None]:
    if isinstance(value, tensor_clt.SqrtQuotient):
        return value.coeff, value.base
    return Fraction(value), None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL


def _checked(check: Callable[[bytes], str | None], out: bytes) -> str | None:
    """A check that cannot run is a failed check, not a crashed benchmark."""
    try:
        return check(out)
    except Exception as exc:
        traceback.print_exc()
        return f"check raised {exc!r}"


# -- exact-clt -----------------------------------------------------------------

# Three distinct small integers, equal weights: the law is skewed (not an
# arithmetic progression, so its reflection is another law) and has a non-zero
# mean (lam = 0 would skip the binomial expansion).  The narrow range keeps
# fraction sizes, and so the cost, alike across seeds.
ATOM_RANGE = range(-2, 3)
LEG_ORDER = 7


def _atom_sets() -> list[tuple[int, ...]]:
    return [
        (a, b, c)
        for a, b, c in combinations(ATOM_RANGE, 3)
        if a + b + c != 0 and b - a != c - b
    ]


def _moments(atoms: Sequence[Fraction], order: int) -> list[Fraction]:
    return [sum(Fraction(x) ** k for x in atoms) / len(atoms) for k in range(1, order + 1)]


def _check_clt_rows(rows, moments_a, moments_b, with_limit: bool) -> str | None:
    inp = tensor_clt.TensorCLTInput.from_legs(MomentSeq(tuple(moments_a)), MomentSeq(tuple(moments_b)))
    sums: dict[int, list[Fraction]] = {}
    for row in rows:
        m, n = row["m"], row["n"]
        got = _parse_exact(row["value"])
        if m not in sums:
            sums[m] = oracles.tensor_block_sums(m, moments_a, moments_b, inp.lam)
        if got != oracles.tensor_moment(sums[m], m, n, inp.delta2):
            return f"m={m} n={n}: {row['value']} differs from the first-block oracle"
        if n == 1 and got != oracles.closed_form_n1(m, moments_a, moments_b, inp.lam):
            return f"m={m} n=1: {row['value']} differs from the closed form"
        if m <= BIFREE_CHECK_ORDER and got != _as_pair(tensor_clt.exact_moment_Sn_bifree(m, n, inp)):
            return f"m={m} n={n}: {row['value']} differs from the bi-free route"
        if with_limit:
            limit = mu_q_moments_cumulant_route(inp.q, max(m, 2)).moment(m)
            if Fraction(row["limit"]) != limit:
                return f"m={m}: limit {row['limit']} differs from the cumulant route"
            coeff, base = got
            value = float(coeff) / math.sqrt(float(base)) if base is not None else float(coeff)
            if not _close(row["gap"], abs(value - float(limit))):
                return f"m={m} n={n}: gap {row['gap']} is not |value - limit|"
    return None


def exact_clt(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"exact-clt/{seed}")
    atoms = [Fraction(x) for x in rng.choice(_atom_sets())]
    lam = sum(atoms) / len(atoms)
    legs = _moments(atoms, LEG_ORDER)
    mirrored = _moments([2 * lam - x for x in atoms], LEG_ORDER)
    legs_file = workdir / "legs.json"
    pair_file = workdir / "pair.json"
    legs_file.write_text(json.dumps([_rational(x) for x in legs]))
    pair_file.write_text(
        json.dumps({"ms_a": [_rational(x) for x in legs], "ms_b": [_rational(x) for x in mirrored]})
    )
    moments_m = [1, 2, 3, 4, 5, 6, 7]
    moments_n = [1, 10, 100, 1000]
    table_m = [2, 4, 6]
    table_n = [10, 100, 1000]

    def check_moments(out: bytes) -> str | None:
        rows = json.loads(out)
        if [(r["m"], r["n"]) for r in rows] != [(m, n) for m in moments_m for n in moments_n]:
            return "rows do not cover the requested (m, n) grid"
        return _check_clt_rows(rows, legs, legs, with_limit=False)

    def check_table(out: bytes) -> str | None:
        rows = json.loads(out)
        if [(r["m"], r["n"]) for r in rows] != [(m, n) for m in table_m for n in table_n]:
            return "rows do not cover the requested (m, n) grid"
        return _check_clt_rows(rows, legs, mirrored, with_limit=True)

    def join(m: list[int]) -> str:
        return ",".join(map(str, m))

    return Workload(
        calls=[
            ["clt", "moments", "--m", join(moments_m), "--n", join(moments_n), "--input", str(legs_file)],
            ["clt", "table", "--m", join(table_m), "--n", join(table_n), "--input", str(pair_file)],
        ],
        checks=[check_moments, check_table],
    )


# -- limit-meander ---------------------------------------------------------------

LIMIT_ORDER = 14
MEANDER_SIZE = 6


def limit_meander(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"limit-meander/{seed}")
    denominator = rng.randint(2, 9)
    q = Fraction(rng.randint(1, denominator - 1), denominator)  # never 0: q = 0 skips the counts

    def check_limit(out: bytes) -> str | None:
        counts = oracles.bicon_counts(LIMIT_ORDER // 2)
        kappas = [Fraction(0)] * LIMIT_ORDER
        kappas[1] = Fraction(1)
        for j in range(2, LIMIT_ORDER // 2 + 1):
            kappas[2 * j - 1] = 2 * (q / 2) ** j * counts[j - 1]
        want = moments_from_free_cumulants(CumulantSeq(tuple(kappas))).values
        got = [Fraction(v) for v in json.loads(out)]
        if got != list(want):
            return "moments differ from the transform route on the convolution counts"
        return None

    def check_meanders(out: bytes) -> str | None:
        hist: dict[str, int] = {}
        for system in meanders.enumerate_systems(MEANDER_SIZE):
            loops = str(meanders.loop_count_by_tracing(system))
            hist[loops] = hist.get(loops, 0) + 1
        got = json.loads(out)
        if got != hist:
            return f"histogram {got} differs from loop tracing {hist}"
        catalan = math.comb(2 * MEANDER_SIZE, MEANDER_SIZE) // (MEANDER_SIZE + 1)
        if sum(got.values()) != catalan**2:
            return "histogram does not count Catalan(size)^2 systems"
        return None

    return Workload(
        calls=[
            ["limit", "moments", "--q", _rational(q), "--K", str(LIMIT_ORDER)],
            ["meander", "dist", "--size", str(MEANDER_SIZE)],
        ],
        checks=[check_limit, check_meanders],
    )


# -- simulate ------------------------------------------------------------------

# (d, n, trials, max_moment, lambda): the acceptance config of criterion 8,
# then one above it whose shifted-semicircle legs run the exact engine on
# legs with vanishing higher cumulants.
SIM_CONFIGS = [(2, 100, 200, 4, Fraction(0)), (3, 64, 10, 6, Fraction(1, 2))]


def _exact_predictions(d: int, lam: Fraction, max_moment: int) -> list[float]:
    """delta^m E[S_d^m] for shifted-semicircle legs (free cumulants lam, 1)."""
    kappas = (lam, Fraction(1)) + (Fraction(0),) * (max_moment - 2)
    legs = list(moments_from_free_cumulants(CumulantSeq(kappas)).values)
    inp = tensor_clt.TensorCLTInput.from_legs(MomentSeq(tuple(legs)), MomentSeq(tuple(legs)))
    out = []
    for m in range(1, max_moment + 1):
        sums = oracles.tensor_block_sums(m, legs, legs, lam)
        coeff, base = oracles.tensor_moment(sums, m, d, inp.delta2)
        if m <= BIFREE_CHECK_ORDER and (coeff, base) != _as_pair(
            tensor_clt.exact_moment_Sn_bifree(m, d, inp)
        ):
            raise ArithmeticError(f"first-block oracle and bi-free route differ at m={m}")
        # coeff/sqrt(base) with base = delta^2 d at odd m; times delta^m
        value = float(coeff * inp.delta2 ** (m // 2))
        out.append(value if base is None else value / math.sqrt(d))
    return out


def _check_simulate(out: bytes, *, seed: int, config: tuple) -> str | None:
    d, n, trials, max_moment, lam = config
    spec = matrix_model.EnsembleSpec(dim=n, sigma=1.0, lam=float(lam))
    sim = matrix_model.SimConfig(d=d, n=n, trials=trials, seed=seed, max_moment=max_moment)
    traces = np.array(
        [
            oracles.trace_moments(matrix_model.sample_matrices(sim, spec, t), float(lam), max_moment)
            for t in range(trials)
        ]
    )
    means = traces.mean(axis=0)
    errors = traces.std(axis=0, ddof=1) / math.sqrt(trials)
    exact = _exact_predictions(d, lam, max_moment)
    rows = json.loads(out)
    if [r["m"] for r in rows] != list(range(1, max_moment + 1)):
        return "rows do not cover m = 1..max_moment"
    for row, mean, err, ex in zip(rows, means, errors, exact):
        m = row["m"]
        if not _close(row["mean"], float(mean)):
            return f"m={m}: mean {row['mean']} differs from the word oracle {mean}"
        if not _close(row["std_error"], float(err)):
            return f"m={m}: std_error {row['std_error']} differs from the word oracle {err}"
        if not _close(row["exact"], ex):
            return f"m={m}: exact {row['exact']} differs from the recomputed prediction {ex}"
        if not _close(row["z"], (row["mean"] - row["exact"]) / row["std_error"]):
            return f"m={m}: z {row['z']} is not (mean - exact)/std_error"
    return None


def _max_abs_z(outputs: Sequence[bytes]) -> float:
    """The largest |z| over the rows of simulate outputs (0 if unreadable)."""
    try:
        return max(abs(r["z"]) for out in outputs for r in json.loads(out))
    except (ValueError, KeyError, TypeError):
        return 0.0


def simulate(seed: int, workdir: Path) -> Workload:
    calls = []
    for d, n, trials, max_moment, lam in SIM_CONFIGS:
        argv = ["simulate", "--d", str(d), "--n", str(n), "--trials", str(trials)]
        argv += ["--max-moment", str(max_moment), "--seed", str(seed)]
        if lam:
            argv += ["--lambda", _rational(lam)]
        calls.append(argv)
    return Workload(
        calls=calls,
        checks=[partial(_check_simulate, seed=seed, config=c) for c in SIM_CONFIGS],
        max_abs_z=_max_abs_z,
    )


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "exact-clt": exact_clt,
    "limit-meander": limit_meander,
    "simulate": simulate,
}
