"""Command-line front-end.

Every subcommand writes machine-readable output (JSON by default, CSV with
--output csv) and is deterministic given its flags plus, where sampling is
involved, the seed.  One writer, ``_emit``, makes every JSON or CSV choice.
One renderer, ``_exact``, prints exact rationals as "p/q" in lowest terms
and odd ``clt`` moments as "p/q/sqrt(r/s)"; under --numeric float every
value is a JSON number, its shortest round-trip decimal.  Exit codes: 0
success, 2 argument or input error, 3 refused resource cap, 130
interrupted.

Each handler imports the modules it needs, so a call loads only its own
subcommand's code.  ``main`` flushes stdout and stderr and then leaves
through ``os._exit``, skipping the interpreter's teardown; a stdout that
fails that flush (a full disk, say) exits 2 like any other write error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .cumulants import (
    CumulantSeq,
    MomentSeq,
    Rational,
    format_rational,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
    parse_rational,
)
from .limits import ResourceLimitError, env_cap

if TYPE_CHECKING:
    from .tensor_clt import TensorCLTInput

PARTITION_CAP = 10
CHI_CAP = 10
# one O(K^3) moment-cumulant solve per call: on 100 dense terms, cumulants
# to-moments forms 171,600 products of Fractions on its power table
TRANSFORM_CAP = 100


def _check_transform(count: int, values) -> None:
    """Refuse a transform of more than TRANSFORM_CAP terms, or of terms whose
    count times largest bit length passes the digits Python prints."""
    cap = env_cap(TRANSFORM_CAP)
    if count > cap:
        raise ResourceLimitError(f"{count} terms exceed the transform cap {cap}")
    bits = max((max(abs(v.numerator), v.denominator).bit_length() for v in values), default=0)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if digits and count * bits > digits * math.log2(10):
        raise ResourceLimitError(f"{count} terms of {bits} bits pass {digits} printable digits")


def _emit(data, args, out, column: str | None = None) -> None:
    """Write ``data`` as one JSON document or, under --output csv, as rows: a
    list of dicts under a header of their keys (nothing when the list is
    empty), or, given ``column``, plain values one per line under that
    header, which is written even when there are no values."""
    if args.output == "json":
        out.write(json.dumps(data) + "\n")
        return
    import csv  # JSON, the default, needs no csv module

    writer = csv.writer(out, lineterminator="\n")
    if column is not None:
        writer.writerow([column])
        writer.writerows([value] for value in data)
    elif data:
        writer.writerow(list(data[0]))
        writer.writerows(row.values() for row in data)


def _exact(value, args):
    """An exact value as "p/q", a SqrtQuotient as "p/q/sqrt(r/s)", or either
    as a float under --numeric float."""
    if args.numeric == "float":
        return float(value)
    if isinstance(value, Rational):
        return format_rational(value)
    return f"{format_rational(value.coeff)}/sqrt({format_rational(value.base)})"


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as exc:
        raise ValueError(f"JSON input nested too deeply: {exc}") from exc


def _rational_list(data) -> tuple[Fraction, ...]:
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array of rationals, got {type(data).__name__}")
    return tuple(parse_rational(s) for s in data)


def _load_clt_input(path: str) -> TensorCLTInput:
    """Accepts either a bare JSON array (one moment sequence used for both
    legs) or an object {"ms_a": [...], "ms_b": [...], "lambda": "p/q"} with
    lambda optional (validated against the first moments when present)."""
    from .tensor_clt import TensorCLTInput

    data = _read_json(path)
    if isinstance(data, list):
        ms_a = ms_b = MomentSeq(_rational_list(data))
        lam = None
    elif isinstance(data, dict) and "ms_a" in data and "ms_b" in data:
        ms_a = MomentSeq(_rational_list(data["ms_a"]))
        ms_b = MomentSeq(_rational_list(data["ms_b"]))
        lam = parse_rational(data["lambda"]) if "lambda" in data else None
    else:
        raise ValueError(
            "input must be a JSON array of rationals or an object with ms_a and ms_b"
        )
    inp = TensorCLTInput(ms_a, ms_b)
    if lam is not None and lam != inp.lam:
        raise ValueError(f"stated lambda {lam} does not match the first moments")
    return inp


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifree",
        description="partition lattices, tensor-sum CLT moments, and the matrix Monte Carlo",
    )
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    parser.add_argument("--numeric", choices=("rational", "float"), default="rational")
    groups = parser.add_subparsers(dest="group", required=True)

    p = groups.add_parser("partitions", help="set partition families")
    pa = p.add_subparsers(dest="action", required=True)
    for action in ("count", "list"):
        sp = pa.add_parser(action)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--family", choices=("all", "nc", "nc2"), default="all")

    b = groups.add_parser("bnc", help="bi-non-crossing partitions")
    ba = b.add_subparsers(dest="action", required=True)
    sp = ba.add_parser("list")
    sp.add_argument("--chi", required=True, help="side word over {L,R}, e.g. LRRLLR")
    sp = ba.add_parser("check")
    sp.add_argument("--chi", required=True)
    sp.add_argument("--partition", required=True, help='text form, e.g. "1,4|2,5|3,6"')

    m = groups.add_parser("meander", help="meandric systems")
    ma = m.add_subparsers(dest="action", required=True)
    sp = ma.add_parser("dist")
    sp.add_argument("--size", type=int, required=True)
    sp = ma.add_parser("loops")
    sp.add_argument("--system", required=True, help='"top=1,2|3,4;bottom=1,4|2,3"')

    c = groups.add_parser("cumulants", help="free moment/cumulant transforms")
    ca = c.add_subparsers(dest="action", required=True)
    for action in ("to-moments", "from-moments"):
        sp = ca.add_parser(action)
        sp.add_argument("--input", required=True, help="JSON array of rationals, '-' for stdin")

    t = groups.add_parser("clt", help="exact moments of the normalised tensor sum")
    ta = t.add_subparsers(dest="action", required=True)
    for action in ("moments", "table"):
        sp = ta.add_parser(action)
        sp.add_argument("--m", type=_int_list, required=True, help="comma-separated orders")
        sp.add_argument("--n", type=_int_list, required=True, help="comma-separated sizes")
        sp.add_argument("--input", required=True, help="leg moments file, '-' for stdin")

    lm = groups.add_parser("limit", help="limit-law moments")
    la = lm.add_subparsers(dest="action", required=True)
    sp = la.add_parser("moments")
    sp.add_argument("--q", type=parse_rational, required=True)
    sp.add_argument("--K", type=int, required=True)

    s = groups.add_parser("simulate", help="GUE Monte Carlo vs exact predictions")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--lambda", dest="lam", type=parse_rational, default=Fraction(0))
    s.add_argument("--sigma", type=parse_rational, default=Fraction(1))
    s.add_argument("--max-moment", type=int, default=4)
    s.add_argument("--dump-spectrum", metavar="FILE", default=None)
    return parser


def _cmd_partitions(args, out) -> None:
    from .partitions import (
        bell_number,
        catalan_number,
        enumerate_noncrossing,
        enumerate_pair_noncrossing,
        enumerate_partitions,
    )

    cap = env_cap(PARTITION_CAP)
    if args.n > cap:
        raise ResourceLimitError(f"n={args.n} exceeds the enumeration cap {cap}")
    if args.n < 0:
        raise ValueError("n must be >= 0")
    if args.action == "count":
        count = {
            "all": bell_number(args.n),
            "nc": catalan_number(args.n),
            "nc2": 0 if args.n % 2 else catalan_number(args.n // 2),
        }[args.family]
        _emit([{"n": args.n, "family": args.family, "count": count}], args, out)
    else:
        family = {
            "all": enumerate_partitions,
            "nc": enumerate_noncrossing,
            "nc2": enumerate_pair_noncrossing,
        }[args.family]
        _emit([p.to_text() for p in family(args.n)], args, out, column="partition")


def _cmd_bnc(args, out) -> None:
    from .bichromatic import ChiMap, enumerate_bnc, is_bnc
    from .partitions import SetPartition

    chi = ChiMap.from_string(args.chi)
    if args.action == "list":
        cap = env_cap(CHI_CAP)
        if chi.n > cap:
            raise ResourceLimitError(f"chi length {chi.n} exceeds the cap {cap}")
        _emit([p.to_text() for p in enumerate_bnc(chi)], args, out, column="partition")
    else:
        part = SetPartition.from_text(args.partition, n=chi.n)
        row = {"chi": chi.to_string(), "partition": part.to_text(), "bnc": is_bnc(part, chi)}
        _emit([row], args, out)


def _cmd_meander(args, out) -> None:
    from .meanders import MeandricSystem, loop_count, loop_distribution

    if args.action == "dist":
        hist = loop_distribution(args.size)
        if args.output == "json":  # one {loops: count} object, not a list of rows
            _emit({str(k): hist[k] for k in sorted(hist)}, args, out)
        else:
            _emit([{"loops": k, "count": hist[k]} for k in sorted(hist)], args, out)
    else:
        system = MeandricSystem.from_text(args.system)
        _emit([{"system": system.to_text(), "loops": loop_count(system)}], args, out)


def _cmd_cumulants(args, out) -> None:
    values = _rational_list(_read_json(args.input))
    _check_transform(len(values), values)
    if args.action == "to-moments":
        result = moments_from_free_cumulants(CumulantSeq(values)).values
    else:
        result = free_cumulants_from_moments(MomentSeq(values)).values
    _emit([_exact(v, args) for v in result], args, out, column="value")


def _cmd_clt(args, out) -> None:
    from .tensor_clt import check_size, moment_from_coefficients, tensor_coefficients

    inp = _load_clt_input(args.input)
    for n in args.n:
        check_size(n)
    rows = []
    if not args.n:  # no row to print, so no order to compute
        _emit(rows, args, out)
        return
    # refuses the first bad m before any transfer matrix runs
    coefficients = tensor_coefficients(inp, args.m)
    if args.action == "table":
        from .limit_law import mu_q_moments_recurrence  # only clt table loads the limit law

        limits = (Fraction(1),) + mu_q_moments_recurrence(inp.q, max(args.m, default=0)).values
    for m in args.m:
        for n in args.n:
            value = moment_from_coefficients(coefficients[m], m, n, inp)
            row = {"m": m, "n": n, "value": _exact(value, args)}
            if args.action == "table":
                row["limit"] = _exact(limits[m], args)
                row["gap"] = abs(float(value) - float(limits[m]))
            rows.append(row)
    _emit(rows, args, out)


def _cmd_limit(args, out) -> None:
    from .limit_law import mu_q_moments_recurrence

    _check_transform(args.K, [args.q])
    values = mu_q_moments_recurrence(args.q, args.K).values
    _emit([_exact(v, args) for v in values], args, out, column="value")


@contextlib.contextmanager
def _output_file(path: str):
    """Open ``path`` at once, so an unwritable path fails before any work, and
    yield a function that empties it and returns the handle to write.  An
    existing file keeps its content until then.  If the block fails, the file
    is removed when this run created it or had begun to rewrite it."""
    try:
        fh = open(path, "x", encoding="ascii")
        rewriting = True
    except FileExistsError:
        fh = open(path, "a", encoding="ascii")
        rewriting = False

    def rewrite():
        nonlocal rewriting
        rewriting = True
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # never a device or a pipe
            fh.truncate(0)
        return fh

    with fh:
        try:
            yield rewrite
        except BaseException:
            if rewriting and os.path.isfile(path):
                fh.close()
                os.remove(path)
            raise


def _cmd_simulate(args, out) -> None:
    # OpenBLAS reads its thread count once, when numpy loads: one thread keeps
    # the process forkable for the trial workers and the dense letter's sums
    # independent of the caller's environment
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # the exact engine loads before numpy: the other order raised this call's
    # peak RSS by 0.3 MB
    from . import tensor_clt  # noqa: F401
    from . import matrix_model  # numpy loads only for the Monte Carlo

    spec = matrix_model.EnsembleSpec(dim=args.n, sigma=float(args.sigma), lam=float(args.lam))
    # SimConfig refuses a run over its byte or work budget; every cap is
    # checked before the predictions and the sampling
    config = matrix_model.SimConfig(
        d=args.d, n=args.n, trials=args.trials, seed=args.seed, max_moment=args.max_moment
    )
    if args.dump_spectrum:
        matrix_model.check_spectrum_dump(config)
    # the dump file opens before any work, so an unwritable path exits 2 at once
    target = _output_file(args.dump_spectrum) if args.dump_spectrum else contextlib.nullcontext()
    with target as rewrite_dump:
        matrix_model.check_mean_shift(config, spec)
        # predictions next: they refuse an order above the cap, or a value
        # too large for a float, before any sampling
        exact = matrix_model.exact_trace_predictions(args.d, args.lam, args.sigma, args.max_moment)
        rows = matrix_model.compare_to_prediction(config, spec, exact)
        if rewrite_dump is not None:
            matrix_model.dump_spectrum(config, spec, rewrite_dump())
    # a ComparisonRow's fields are the output columns, in order
    _emit([row._asdict() for row in rows], args, out)


_HANDLERS = {
    "partitions": _cmd_partitions,
    "bnc": _cmd_bnc,
    "meander": _cmd_meander,
    "cumulants": _cmd_cumulants,
    "clt": _cmd_clt,
    "limit": _cmd_limit,
    "simulate": _cmd_simulate,
}


def run(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _HANDLERS[args.group](args, out)
    except ResourceLimitError as exc:
        print(f"bifree: refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:  # overflow: inputs too big for floats
        print(f"bifree: error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    """Run the command, flush its output and leave through ``os._exit``,
    skipping the interpreter's teardown.  An interrupt (Ctrl-C) ends it with
    one line and exit 130; any other exception ``run`` does not catch
    propagates as usual."""
    try:
        code = run()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = 0 if exc.code is None else exc.code
    except KeyboardInterrupt:  # simulate has killed and reaped its workers by now
        print("bifree: interrupted", file=sys.stderr)
        code = 130
    try:
        sys.stdout.flush()
    except OSError as exc:  # e.g. a full disk or a closed pipe
        print(f"bifree: error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
