import argparse
import io
import json
import os
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifree import (
    bichromatic,
    cli,
    cumulants,
    limit_law,
    matrix_model,
    meanders,
    partitions,
    tensor_clt,
    transfer,
)
from bifree.cli import run
from bifree.cumulants import format_rational

from helpers import run_fresh
from make_golden import LEGS, TINY


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def invoke_json(argv):
    code, text = invoke(argv)
    assert code == 0, text
    return json.loads(text)


def test_partitions_count():
    assert invoke_json(["partitions", "count", "--n", "4", "--family", "nc"]) == [
        {"n": 4, "family": "nc", "count": 14}
    ]
    assert invoke_json(["partitions", "count", "--n", "4"])[0]["count"] == 15
    assert invoke_json(["partitions", "count", "--n", "3", "--family", "nc2"])[0]["count"] == 0


def test_partitions_list():
    got = invoke_json(["partitions", "list", "--n", "4", "--family", "nc2"])
    assert got == ["1,2|3,4", "1,4|2,3"]


def test_bnc_list_and_check():
    got = invoke_json(["bnc", "list", "--chi", "LR"])
    assert sorted(got) == ["1,2", "1|2"]
    # the enumeration order is part of the output: NC(4) in restricted-growth
    # order, pushed through LRRL's reading permutation (1, 4, 3, 2)
    assert invoke_json(["bnc", "list", "--chi", "LRRL"]) == [
        "1,2,3,4", "1,3,4|2", "1,2,4|3", "1,4|2,3", "1,4|2|3", "1,2,3|4", "1,3|2|4",
        "1,2|3,4", "1|2,3,4", "1|2|3,4", "1,2|3|4", "1|2,4|3", "1|2,3|4", "1|2|3|4",
    ]
    row = invoke_json(["bnc", "check", "--chi", "LRRLLR", "--partition", "1,4|2,5|3,6"])[0]
    assert row["bnc"] is True
    row = invoke_json(["bnc", "check", "--chi", "LLLLLL", "--partition", "1,4|2,5|3,6"])[0]
    assert row["bnc"] is False


def test_meander_dist():
    assert invoke_json(["meander", "dist", "--size", "2"]) == {"1": 2, "2": 2}


def test_meander_loops():
    row = invoke_json(["meander", "loops", "--system", "top=1,2|3,4;bottom=1,4|2,3"])[0]
    assert row["loops"] == 1


def test_meander_loops_refuses_a_huge_label_in_bounded_memory():
    # the ground set is sized by the elements listed, not by the largest one
    argv = ["meander", "loops", "--system", "top=1,10000000;bottom=1,10000000"]
    invoke(argv)  # loads the subcommand's modules outside the window
    tracemalloc.start()
    try:
        code, _ = invoke(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20


def test_cumulants_round_trip(tmp_path):
    f = tmp_path / "values.json"
    f.write_text(json.dumps(["0/1", "1/1", "0/1", "0/1"]))
    moments = invoke_json(["cumulants", "to-moments", "--input", str(f)])
    assert moments == ["0/1", "1/1", "0/1", "2/1"]
    g = tmp_path / "moments.json"
    g.write_text(json.dumps(moments))
    back = invoke_json(["cumulants", "from-moments", "--input", str(g)])
    assert back == ["0/1", "1/1", "0/1", "0/1"]


def test_cumulants_numeric_float_prints_the_floats_of_the_rationals(tmp_path):
    f = tmp_path / "values.json"
    f.write_text(json.dumps(["1/2", "1/3", "-2/7"]))
    for action in ("to-moments", "from-moments"):
        argv = ["cumulants", action, "--input", str(f)]
        floats = [float(Fraction(v)) for v in invoke_json(argv)]
        assert invoke_json(["--numeric", "float"] + argv) == floats
        code, text = invoke(["--numeric", "float", "--output", "csv"] + argv)
        assert code == 0
        assert text.splitlines() == ["value"] + [repr(v) for v in floats]


CENTRED_UNIT = ["0/1", "1/1", "0/1", "2/1", "0/1", "5/1"]


def make_input(tmp_path, legs=CENTRED_UNIT):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(legs))
    return str(f)


def test_clt_moments(tmp_path):
    path = make_input(tmp_path)
    rows = invoke_json(["clt", "moments", "--m", "2", "--n", "5", "--input", path])
    assert rows == [{"m": 2, "n": 5, "value": "1/1"}]
    rows = invoke_json(["clt", "moments", "--m", "4", "--n", "2,4", "--input", path])
    assert rows == [
        {"m": 4, "n": 2, "value": "3/1"},
        {"m": 4, "n": 4, "value": "5/2"},
    ]


def test_clt_moments_object_input_and_floats(tmp_path):
    f = tmp_path / "obj.json"
    f.write_text(json.dumps({"ms_a": CENTRED_UNIT, "ms_b": CENTRED_UNIT, "lambda": "0/1"}))
    rows = invoke_json(
        ["--numeric", "float", "clt", "moments", "--m", "1,4", "--n", "2", "--input", str(f)]
    )
    assert rows[0]["value"] == 0.0
    assert rows[1]["value"] == 3.0


def test_clt_floats_do_not_depend_on_the_legs_scale(tmp_path):
    # LEGS' law scaled by 10^-200 has the same normalised moments; float(base)
    # underflows there, and the floats must still be the unscaled ones
    argv = ["--numeric", "float", "clt", "table", "--m", "1,2,3,4,5", "--n", "1,10", "--input"]
    scaled = invoke([*argv, make_input(tmp_path, json.loads(TINY))])
    assert scaled == invoke([*argv, make_input(tmp_path, json.loads(LEGS))])
    assert scaled[0] == 0 and all(isinstance(r["value"], float) for r in json.loads(scaled[1]))


def test_clt_table(tmp_path):
    # the two-point law on {0, 2} on both legs: lam = 1, sigma^2 = 1, q = 2/3
    path = make_input(tmp_path, legs=[f"{2 ** (k - 1)}/1" for k in range(1, 9)])
    rows = invoke_json(["clt", "table", "--m", "2,3,4", "--n", "1,10,20,40", "--input", path])
    by_order = {m: [r for r in rows if r["m"] == m] for m in (2, 3, 4)}
    assert [r["n"] for r in by_order[4]] == [1, 10, 20, 40]
    assert all(r["value"] == r["limit"] == "1/1" and r["gap"] == 0 for r in by_order[2])
    assert all(r["limit"] == "0/1" for r in by_order[3])
    gaps = [r["gap"] for r in by_order[4]]
    assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == 4


def test_limit_moments_catalan():
    got = invoke_json(["limit", "moments", "--q", "0", "--K", "8"])
    assert got == ["0/1", "1/1", "0/1", "2/1", "0/1", "5/1", "0/1", "14/1"]
    got = invoke_json(["--numeric", "float", "limit", "moments", "--q", "1/2", "--K", "4"])
    assert got == [0.0, 1.0, 0.0, 2.125]
    assert invoke_json(["limit", "moments", "--q", "1/2", "--K", "0"]) == []
    assert invoke_json(["limit", "moments", "--q", "1/2", "--K", "1"]) == ["0/1"]
    assert invoke(["limit", "moments", "--q", "1/2", "--K", "-1"])[0] == 2


def test_csv_output():
    code, text = invoke(["--output", "csv", "meander", "dist", "--size", "2"])
    assert code == 0
    assert text == "loops,count\n1,2\n2,2\n"


def test_byte_identical_repeat(tmp_path):
    path = make_input(tmp_path)
    argv = ["clt", "moments", "--m", "1,2,3,4", "--n", "1,2,3", "--input", path]
    assert invoke(argv) == invoke(argv)
    argv = ["simulate", "--d", "1", "--n", "6", "--trials", "3", "--seed", "9"]
    assert invoke(argv) == invoke(argv)


def test_simulate_small(monkeypatch):
    calls = []

    def spy(real):
        return lambda *args: calls.append(real.__name__) or real(*args)

    for name in ("exact_trace_predictions", "compare_to_prediction"):
        monkeypatch.setattr(matrix_model, name, spy(getattr(matrix_model, name)))
    rows = invoke_json(
        ["simulate", "--d", "1", "--n", "8", "--trials", "4", "--seed", "1",
         "--max-moment", "3"]
    )
    # the predictions refuse an order or a value out of range before sampling
    assert calls == ["exact_trace_predictions", "compare_to_prediction"]
    assert [r["m"] for r in rows] == [1, 2, 3]
    for row in rows:
        assert set(row) == {"m", "mean", "std_error", "exact", "z"}
    assert rows[1]["exact"] == 1.0


def test_simulate_dump_spectrum(tmp_path):
    target = tmp_path / "eig.csv"
    argv = ["simulate", "--d", "1", "--n", "4", "--trials", "2", "--seed", "1",
            "--max-moment", "2", "--dump-spectrum", str(target)]
    code, _ = invoke(argv)
    assert code == 0
    first = target.read_text()
    assert len(first.strip().splitlines()) == 2 * 16
    # a second run rewrites the file rather than appending to it
    target.write_text("old\n" * 100)
    assert invoke(argv)[0] == 0
    assert target.read_text() == first


def test_exit_code_2_on_bad_args(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["partitions", "count"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    # semantic errors return 2 without raising
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["1/1", "1/1"]))  # zero variance
    code, _ = invoke(["clt", "moments", "--m", "2", "--n", "1", "--input", str(bad)])
    assert code == 2
    code, _ = invoke(["meander", "loops", "--system", "garbage"])
    assert code == 2
    # zero denominators, and an exponent that would build 10^(10^8)
    for argv in (["limit", "moments", "--q", "1/0", "--K", "4"],
                 ["limit", "moments", "--q", "1e100000000", "--K", "4"],
                 ["simulate", "--d", "1", "--n", "2", "--trials", "2", "--seed", "1",
                  "--lambda", "1/0"],
                 # simulate prints no verdict, so it takes no threshold for one
                 ["simulate", "--d", "2", "--n", "4", "--trials", "3", "--seed", "1",
                  "--z-threshold", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    # "1/0" and huge-exponent entries, and moment lists that are not JSON arrays
    for payload in (["0/1", "1/0"], ["0/1", "1e100000000"], {"ms_a": 5, "ms_b": 5}, 5, "0112"):
        bad.write_text(json.dumps(payload))
        code, _ = invoke(["clt", "moments", "--m", "2", "--n", "1", "--input", str(bad)])
        assert code == 2, payload
        code, _ = invoke(["cumulants", "to-moments", "--input", str(bad)])
        assert code == 2, payload
    # the exponent 1001 in Arabic-Indic digits, which Fraction reads as well
    bad.write_text(json.dumps(["0/1", "1e\u0661\u0660\u0660\u0661"]))
    capsys.readouterr()
    assert invoke(["cumulants", "to-moments", "--input", str(bad)])[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("bifree: error: decimal exponent beyond") and err.count("\n") == 1, err
    # JSON too deep for the decoder's recursion
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
    code, _ = invoke(["cumulants", "to-moments", "--input", "-"])
    assert code == 2
    # seeds outside the 64-bit key word
    for seed in (-1, 2**64):
        code, _ = invoke(["simulate", "--d", "1", "--n", "2", "--trials", "2", "--seed", str(seed)])
        assert code == 2


def refuse_nc_enumeration(*args):
    raise AssertionError("enumerated non-crossing partitions")


def test_clt_moments_enumerate_no_noncrossing_partitions(tmp_path, monkeypatch):
    # the transfer matrix sums pairs of NC(m) position by position, listing none
    for module in (partitions, cumulants, bichromatic, cli):
        if hasattr(module, "enumerate_noncrossing"):
            monkeypatch.setattr(module, "enumerate_noncrossing", refuse_nc_enumeration)
    atoms = (Fraction(-2), Fraction(0), Fraction(1))
    legs = [format_rational(sum(x**k for x in atoms) / 3) for k in range(1, 8)]
    path = make_input(tmp_path, legs=legs)
    code, _ = invoke(["clt", "moments", "--m", "1,2,3,4,5,6,7", "--n", "1,10", "--input", path])
    assert code == 0


def test_one_call_transforms_each_leg_once_and_runs_one_transfer_matrix(tmp_path, monkeypatch):
    # nothing carries work from one call to the next, so a call shares it
    # itself: each leg becomes cumulants once and one transfer-matrix run up
    # to the highest order gives every order, however many orders, sizes and
    # repeats the lists hold; clt table runs the limit law's recurrence once
    counts = {}
    tops = []

    def counted(fn):
        def wrapper(*args):
            counts[fn.__name__] = counts.get(fn.__name__, 0) + 1
            return fn(*args)

        return wrapper

    def transfer_matrix(m, *weights):
        tops.append(m)
        return transfer.nc_pair_join_counts(m, *weights)

    monkeypatch.setattr(tensor_clt, "integer_cumulants", counted(tensor_clt.integer_cumulants))
    monkeypatch.setattr(tensor_clt, "nc_pair_join_counts", transfer_matrix)
    monkeypatch.setattr(matrix_model, "tensor_coefficients", counted(tensor_clt.tensor_coefficients))
    monkeypatch.setattr(
        limit_law, "mu_q_moments_recurrence", counted(limit_law.mu_q_moments_recurrence)
    )
    atoms = (Fraction(-2), Fraction(0), Fraction(1))
    legs = {
        side: [format_rational(sum(x**k for x in points) / 3) for k in range(1, 7)]
        for side, points in (("ms_a", atoms), ("ms_b", [Fraction(-2, 3) - x for x in atoms]))
    }
    path = make_input(tmp_path, legs=legs)
    assert invoke(["clt", "moments", "--m", "4,2,4", "--n", "1,10", "--input", path])[0] == 0
    assert (counts, tops) == ({"integer_cumulants": 2}, [4])
    counts.clear()
    tops.clear()
    assert invoke(["clt", "table", "--m", "1,2,3,6,5,4", "--n", "1,10", "--input", path])[0] == 0
    assert (counts, tops) == ({"integer_cumulants": 2, "mu_q_moments_recurrence": 1}, [6])
    counts.clear()
    tops.clear()
    matrix_model.exact_trace_predictions(3, Fraction(1, 2), Fraction(1), 6)
    assert (counts, tops) == ({"tensor_coefficients": 1, "integer_cumulants": 2}, [6])


def refuse_transfer_matrix(*args, **kwargs):
    raise AssertionError("ran a transfer matrix before checking every order and size")


@pytest.mark.parametrize("action", ("moments", "table"))
def test_clt_checks_every_order_and_size_first(monkeypatch, tmp_path, capsys, action):
    # both actions refuse the first bad size, then the first bad order, with
    # one message and exit code each, before the transfer matrix (or the
    # limit law) runs for any earlier value; this took 0.8-1.0 s when each
    # pair was checked in turn
    monkeypatch.setattr(tensor_clt, "nc_pair_join_counts", refuse_transfer_matrix)
    monkeypatch.setattr(limit_law, "mu_q_moments_recurrence", refuse_transfer_matrix)
    path = make_input(tmp_path, legs=["0/1"] + ["1/1" if k % 2 else "0/1" for k in range(1, 12)])
    for m, n, code, message in (
        ("9,10,11", "1", 3, "moment order 11 exceeds the cap 10"),
        ("10", "5,0", 2, "n must be >= 1"),
        ("3,-1", "2", 2, "m must be >= 0"),
        ("11", "0", 2, "n must be >= 1"),
        ("3,12", "1", 3, "moment order 12 exceeds the cap 10"),
    ):
        capsys.readouterr()
        assert invoke(["clt", action, "--m", m, "--n", n, "--input", path]) == (code, "")
        assert message in capsys.readouterr().err
    # with no size there is no row, so no order is computed or checked
    assert invoke(["clt", action, "--m", "11", "--n", "", "--input", path]) == (0, "[]\n")
    # an order above the supplied legs, once the cap is raised past it
    monkeypatch.setenv("BIFREE_MAX_SIZE", "13")
    capsys.readouterr()
    assert invoke(["clt", action, "--m", "2,13", "--n", "1", "--input", path]) == (2, "")
    assert "exceeds the supplied leg moments (order 12)" in capsys.readouterr().err


def test_exit_code_3_on_resource_cap(monkeypatch, tmp_path):
    code, _ = invoke(["meander", "dist", "--size", "13"])
    assert code == 3
    code, _ = invoke(["partitions", "count", "--n", "30"])
    assert code == 3
    path = make_input(tmp_path, legs=["0/1"] + ["1/1" if k % 2 else "0/1" for k in range(1, 12)])
    code, _ = invoke(["clt", "moments", "--m", "11", "--n", "1", "--input", path])
    assert code == 3
    # clt table and the limit handler read the recurrence from limit_law when
    # they run; the table's limit column comes only after the order cap
    monkeypatch.setattr(limit_law, "mu_q_moments_recurrence", refuse_sampling)
    code, _ = invoke(["clt", "table", "--m", "11", "--n", "1", "--input", path])
    assert code == 3
    for K in (cli.TRANSFORM_CAP + 1, 100000):
        code, _ = invoke(["limit", "moments", "--q", "1/2", "--K", str(K)])
        assert code == 3
    # within the cap, terms too long for their outputs to print are refused too
    # (this ran for minutes when only the count was capped)
    big = "1" + "0" * 2000
    assert invoke(["limit", "moments", "--q", f"1/{big}", "--K", "100"])[0] == 3
    # the slowest inputs at the cap stay accepted: 100 x 7 and 100 x 10 bits
    cli._check_transform(cli.TRANSFORM_CAP, [Fraction(1, k) for k in range(1, 101)])
    cli._check_transform(cli.TRANSFORM_CAP, [Fraction(999, 1000)])
    # the transforms' input length is refused after parsing, before any transform
    monkeypatch.setattr(cli, "moments_from_free_cumulants", refuse_sampling)
    monkeypatch.setattr(cli, "free_cumulants_from_moments", refuse_sampling)
    path = make_input(tmp_path, legs=[f"1/{k}" for k in range(1, cli.TRANSFORM_CAP + 2)])
    for action in ("to-moments", "from-moments"):
        assert invoke(["cumulants", action, "--input", path])[0] == 3
    path = make_input(tmp_path, legs=["1/1" + "0" * 3000] * cli.TRANSFORM_CAP)
    for action in ("to-moments", "from-moments"):
        assert invoke(["cumulants", action, "--input", path])[0] == 3
    # a leg file may list any number of moments: the order cap bounds how
    # many are turned into cumulants, and the output does not change
    transform = cumulants.free_cumulants_from_moments

    def spy(ms):
        assert ms.order <= 10, f"transformed {ms.order} moments"
        return transform(ms)

    monkeypatch.setattr(cumulants, "free_cumulants_from_moments", spy)
    atoms = (Fraction(-3), Fraction(0), Fraction(2))
    legs = [format_rational(sum(x**k for x in atoms) / 3) for k in range(1, 61)]
    argv = ["clt", "moments", "--m", "2,5", "--n", "1,3"]
    long = invoke_json([*argv, "--input", make_input(tmp_path, legs=legs)])
    assert long == invoke_json([*argv, "--input", make_input(tmp_path, legs=legs[:10])])


def refuse_sampling(*args, **kwargs):
    raise AssertionError("sampled or predicted before checking the caps")


def test_simulate_checks_caps_before_sampling(monkeypatch, tmp_path):
    monkeypatch.setattr(matrix_model, "sample_matrices", refuse_sampling)
    base = ["simulate", "--n", "40", "--trials", "2", "--seed", "1"]
    assert invoke([*base, "--d", "2", "--max-moment", "11"])[0] == 3
    assert invoke([*base, "--d", "32769"])[0] == 3
    # the trace kernel's byte budget and the spectrum dump's dimension cap
    # are checked before the predictions too
    monkeypatch.setattr(matrix_model, "exact_trace_predictions", refuse_sampling)
    assert invoke(["simulate", "--d", "9", "--n", "512", "--trials", "2", "--seed", "1",
                   "--max-moment", "8", "--lambda", "1/2"])[0] == 3
    # the budget counts the (trials, max-moment) result array with one workspace
    assert invoke(["simulate", "--d", "2", "--n", "100", "--trials", "1000000000000",
                   "--max-moment", "10", "--seed", "1", "--lambda", "1/3"])[0] == 3
    argv = ["simulate", "--d", "3", "--n", "64", "--trials", "10", "--max-moment", "6",
            "--lambda", "1/2", "--seed", "1", "--dump-spectrum", str(tmp_path / "f")]
    assert invoke(argv)[0] == 3
    assert not (tmp_path / "f").exists()
    # an unwritable dump path exits 2 before the predictions and the sampling
    argv = ["simulate", "--d", "2", "--n", "32", "--trials", "2000", "--max-moment", "4",
            "--seed", "1", "--dump-spectrum", str(tmp_path / "no-such-dir" / "f")]
    assert invoke(argv)[0] == 2


def test_simulate_checks_its_work_before_any_work(monkeypatch, capsys):
    # 33,501,944 trials at (2, 100, 4) fit the byte budget, results included,
    # but not WORK_BUDGET: refused before the mean shift, the predictions and
    # any sampling, naming the need and the budget
    for name in ("check_mean_shift", "exact_trace_predictions", "sample_matrices"):
        monkeypatch.setattr(matrix_model, name, refuse_sampling)
    argv = ["simulate", "--d", "2", "--n", "100", "--trials", "33501944", "--seed", "1"]
    assert invoke(argv) == (3, "")
    err = capsys.readouterr().err
    assert "33,501,944 trials of 99,200,000 operations need 3,323,392,844,800,000;" in err, err
    assert f"the budget is {matrix_model.WORK_BUDGET:,}," in err
    # BIFREE_MAX_SIZE raises the enumeration caps, not this one
    monkeypatch.setenv("BIFREE_MAX_SIZE", str(10**30))
    assert invoke(argv)[0] == 3
    # criterion 8, the benchmark's two configs and the dense golden entry
    # take at most a fiftieth of the budget
    for d, n, trials, m in ((2, 100, 200, 4), (3, 64, 10, 6), (6, 16, 40, 7)):
        config = matrix_model.SimConfig(d=d, n=n, trials=trials, seed=1, max_moment=m)
        assert 50 * trials * config.plan.ops <= matrix_model.WORK_BUDGET, (d, n, m)


def test_simulate_checks_its_dump_work_before_any_work(monkeypatch, capsys, tmp_path):
    # a spectrum dump draws each trial again and diagonalises its n^2 x n^2
    # operator: 2,000,000 trials at (2, 32, 4) fit WORK_BUDGET without their
    # dumps but not with them, so the call exits 3 before the dump file
    # opens, the mean shift, the predictions and any sampling
    for name in ("check_mean_shift", "exact_trace_predictions", "sample_matrices",
                 "compare_to_prediction", "dump_spectrum"):
        monkeypatch.setattr(matrix_model, name, refuse_sampling)
    config = matrix_model.SimConfig(d=2, n=32, trials=2_000_000, seed=1)
    assert config.trials * config.plan.ops <= matrix_model.WORK_BUDGET
    target = tmp_path / "spectrum.txt"
    argv = ["simulate", "--d", "2", "--n", "32", "--trials", "2000000", "--seed", "1",
            "--dump-spectrum", str(target)]
    assert invoke(argv) == (3, "")
    err = capsys.readouterr().err
    assert "2,000,000 trials of 12,217,339,904 operations need" in err, err
    assert not target.exists()
    # with their dumps, 2,455 trials fit the budget and 2,456 do not
    most = matrix_model.WORK_BUDGET // 12_217_339_904
    assert most == 2_455
    matrix_model.check_spectrum_dump(matrix_model.SimConfig(d=2, n=32, trials=most, seed=1))
    with pytest.raises(matrix_model.ResourceLimitError, match="2,456 trials of 12,217,339,904 "):
        matrix_model.check_spectrum_dump(matrix_model.SimConfig(d=2, n=32, trials=most + 1, seed=1))


def test_simulate_at_the_order_cap_is_budgeted_before_sampling(monkeypatch):
    # max-moment 10 is within the order cap; the trace kernel's byte budget
    # alone decides, and a config over it is refused before any sampling
    for d, n in ((1, 2), (2, 40), (3, 64), (8, 16), (8, 512)):
        if matrix_model._plan(d, n, 10).nbytes <= matrix_model.TRACE_BYTE_BUDGET:
            matrix_model.SimConfig(d=d, n=n, trials=2, seed=1, max_moment=10)
        else:
            with monkeypatch.context() as patched:
                patched.setattr(matrix_model, "sample_matrices", refuse_sampling)
                patched.setattr(matrix_model, "exact_trace_predictions", refuse_sampling)
                argv = ["simulate", "--d", str(d), "--n", str(n), "--trials", "2",
                        "--seed", "1", "--max-moment", "10"]
                assert invoke(argv)[0] == 3, (d, n)
    rows = invoke_json(["simulate", "--d", "1", "--n", "2", "--trials", "2", "--seed", "1",
                        "--max-moment", "10"])
    assert [r["m"] for r in rows] == list(range(1, 11))


def refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_simulate_single_trial_prints_strict_json():
    argv = ["simulate", "--d", "1", "--n", "4", "--trials", "1", "--seed", "1",
            "--max-moment", "2"]
    code, text = invoke(argv)
    assert code == 0
    rows = json.loads(text, parse_constant=refuse_constant)
    assert [(r["std_error"], r["z"]) for r in rows] == [(None, None), (None, None)]


def test_env_cap_override(tmp_path, monkeypatch):
    # the cap alone decides: the transfer matrix is a stub
    monkeypatch.setattr(
        meanders, "nc_pair_join_counts", lambda m, *weights: [{1: k} for k in range(m + 1)]
    )
    monkeypatch.setenv("BIFREE_MAX_SIZE", "13")
    assert invoke_json(["meander", "dist", "--size", "13"]) == {"1": 26}
    monkeypatch.setenv("BIFREE_MAX_SIZE", "7")
    # the variable only raises caps: the larger defaults stay in force
    assert invoke(["meander", "dist", "--size", "12"])[0] == 0
    assert invoke(["limit", "moments", "--q", "2/3", "--K", "14"])[0] == 0
    assert invoke(["partitions", "count", "--n", "8"])[0] == 0
    monkeypatch.setenv("BIFREE_MAX_SIZE", "4")
    assert invoke(["meander", "dist", "--size", "5"])[0] == 0
    monkeypatch.setenv("BIFREE_MAX_SIZE", "seven")
    assert invoke(["meander", "dist", "--size", "5"])[0] == 2


# JSON payloads from a small grammar: scalars, rational-ish strings, and
# nested lists/objects of at most 8 entries, with the keys `clt` looks for.
json_payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-10**6, max_value=10**6)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.sampled_from(["1/2", "1/0", "x", "0", "-3/4", "1e3", ""]),
    lambda children: st.lists(children, max_size=8)
    | st.dictionaries(st.sampled_from(["ms_a", "ms_b", "lambda", "x"]), children, max_size=4),
    max_leaves=16,
)
rational_texts = st.one_of(
    st.fractions(max_denominator=10**6).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-2, 9)),
    st.sampled_from(["1e400", "-1e400", "1/0", "nan", "inf", "x", "", "0.5"]),
)


def exit_code(argv) -> int:
    try:
        return invoke(argv)[0]
    except SystemExit as exc:  # argparse rejects the argument
        return exc.code


@settings(max_examples=60, deadline=None)
@given(payload=json_payloads)
@example(payload=[0, 0])  # zero mean and variance: q's denominator vanishes
@example(payload=json.loads(TINY))  # a tiny scale: float(base) of an odd moment underflows
def test_fuzz_json_inputs_exit_cleanly(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(payload))
    # odd orders print SqrtQuotients, as floats under --numeric float and in
    # clt table's gap column in both modes
    for argv in (["clt", "moments", "--m", "2", "--n", "1", "--input", str(path)],
                 ["--numeric", "float", "clt", "moments", "--m", "1,3", "--n", "1",
                  "--input", str(path)],
                 ["clt", "table", "--m", "3", "--n", "1", "--input", str(path)],
                 ["cumulants", "to-moments", "--input", str(path)]):
        assert exit_code(argv) in (0, 2, 3), (argv, payload)


@settings(max_examples=40, deadline=None)
@given(text=rational_texts)
def test_fuzz_rational_args_exit_cleanly(text):
    assert exit_code(["limit", "moments", "--q", text, "--K", "6"]) in (0, 2, 3)
    argv = ["simulate", "--d", "1", "--n", "2", "--trials", "2", "--seed", "1",
            "--max-moment", "2", "--lambda", text]
    assert exit_code(argv) in (0, 2, 3), text


def test_simulate_refuses_non_finite_values(monkeypatch, capsys, tmp_path):
    argv = ["simulate", "--d", "1", "--n", "2", "--trials", "2", "--seed", "1",
            "--max-moment", "2", "--lambda", "1e150"]
    # the analytic shift gamma^2 = 1e600 overflows: refused before any sampling
    with monkeypatch.context() as patched:
        patched.setattr(matrix_model, "sample_matrices", refuse_sampling)
        patched.setattr(matrix_model, "exact_trace_predictions", refuse_sampling)
        assert invoke(argv) == (2, "")
    assert "order 2" in capsys.readouterr().err
    # so is a prediction too large for a float: sigma = 1e45 at order 4
    huge = ["simulate", "--d", "2", "--n", "4", "--trials", "5", "--seed", "1",
            "--max-moment", "4", "--sigma", "1e45"]
    with monkeypatch.context() as patched:
        patched.setattr(matrix_model, "sample_matrices", refuse_sampling)
        assert invoke(huge) == (2, "")
    assert "order 4: the prediction is too large" in capsys.readouterr().err
    # at sigma = 1e21 the predictions are finite but the traces' spread is
    # not: the finite check after the run exits 2, and removes the spectrum
    # dump it opened before the run
    spread = [*huge[:-1], "1e21"]
    dump = tmp_path / "spectrum.txt"
    assert invoke([*spread, "--dump-spectrum", str(dump)]) == (2, "")
    assert "order 4: an estimate or its z-score" in capsys.readouterr().err
    assert not dump.exists()
    # a run that fails before the dump begins leaves an existing file as it was
    dump.write_text("0.5\n")
    for call in (argv, huge, spread):
        assert invoke([*call, "--dump-spectrum", str(dump)]) == (2, ""), call
    assert capsys.readouterr().err.count("bifree: error: order") == 3
    assert dump.read_text() == "0.5\n"


wide_rationals = st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-200, 200))


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 8),
    trials=st.integers(1, 3),
    max_moment=st.integers(1, 4),
    lam=wide_rationals,
    sigma=wide_rationals,
)
def test_fuzz_simulate_prints_strict_json(d, n, trials, max_moment, lam, sigma):
    argv = ["simulate", "--d", str(d), "--n", str(n), "--trials", str(trials), "--seed", "1",
            "--max-moment", str(max_moment), f"--lambda={lam}", f"--sigma={sigma}"]
    code, text = invoke(argv)
    assert code in (0, 2, 3), argv
    if code == 0:
        rows = json.loads(text, parse_constant=refuse_constant)
        assert [r["m"] for r in rows] == list(range(1, max_moment + 1))


LOADED = """
import io, json, sys
from bifree.cli import run

try:
    code = run(sys.argv[1:], out=io.StringIO())
except SystemExit as exc:  # --help
    code = exc.code
modules = sorted(name for name in sys.modules if name.startswith("bifree."))
others = {name: name in sys.modules for name in ("numpy", "dataclasses", "inspect", "csv")}
print(json.dumps({"code": code, "modules": modules, **others}))
"""

# what parsing and printing need; each handler loads its own modules
ALWAYS_LOADED = {"bifree.cli", "bifree.cumulants", "bifree.limits"}
# what each subcommand loads beyond those, as README's table lists it; the
# exact engine loads the transfer matrix but not the partition layer
LOADS = {
    "partitions": {"partitions"},
    "bnc": {"bichromatic", "partitions"},
    "meander dist": {"meanders", "transfer"},
    "meander loops": {"meanders", "partitions", "transfer"},
    "cumulants": set(),
    "limit": {"limit_law"},
    "clt moments": {"tensor_clt", "transfer"},
    "clt table": {"tensor_clt", "transfer", "limit_law"},
    "simulate": {"tensor_clt", "transfer", "matrix_model", "numpy"},
}


def test_only_simulate_loads_numpy(tmp_path):
    # and no call pays for dataclasses (which imports inspect, ast, dis and
    # tokenize), for inspect beyond numpy's own import, or for csv under JSON
    legs = tmp_path / "legs.json"
    legs.write_text(json.dumps(["0/1", "1/1", "0/1", "0/1"]))
    clt = make_input(tmp_path)
    calls = [
        (["clt", "moments", "--m", "1,2,3", "--n", "1,5", "--input", clt], LOADS["clt moments"]),
        (["clt", "table", "--m", "2,4", "--n", "5", "--input", clt], LOADS["clt table"]),
        (["limit", "moments", "--q", "1/2", "--K", "6"], LOADS["limit"]),
        (["--output", "csv", "limit", "moments", "--q", "1/2", "--K", "6"], LOADS["limit"]),
        (["meander", "dist", "--size", "3"], LOADS["meander dist"]),
        (["meander", "loops", "--system", "top=1,2;bottom=1,2"], LOADS["meander loops"]),
        (["partitions", "count", "--n", "4", "--family", "nc"], LOADS["partitions"]),
        (["bnc", "list", "--chi", "LRL"], LOADS["bnc"]),
        (["cumulants", "to-moments", "--input", str(legs)], LOADS["cumulants"]),
        (["simulate", "--d", "1", "--n", "3", "--trials", "2", "--seed", "1"], LOADS["simulate"]),
    ]
    helps = [["clt", "table"], ["limit", "moments"], ["meander", "dist"], ["partitions", "list"],
             ["bnc", "check"], ["cumulants", "from-moments"], ["simulate"]]
    calls += [([*subcommand, "--help"], set()) for subcommand in helps]
    for argv, loads in calls:
        # one fresh interpreter per call, so no call sees another's imports
        proc = run_fresh(["-c", LOADED, *argv])
        assert proc.returncode == 0, (argv, proc.stderr)
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["code"] == 0, argv
        modules = {f"bifree.{m}" for m in loads - {"numpy"}}
        assert set(got["modules"]) == ALWAYS_LOADED | modules, argv
        assert got["numpy"] == got["inspect"] == ("numpy" in loads), argv
        assert not got["dataclasses"], argv
        assert got["csv"] == (argv[:2] == ["--output", "csv"]), argv


def test_readme_lists_each_subcommands_loads():
    # README's table of the modules each subcommand loads names exactly the
    # ones the test above sees loaded
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| subcommand") :].split("\n\n")[0]
    rows = re.findall(r"^\| `([a-z ]+)` +\|(.*)\|$", table, flags=re.MULTILINE)
    assert {name: set(re.findall(r"`(\w+)`", loads)) for name, loads in rows} == LOADS


def test_readme_quick_tour_runs():
    # README's library tour runs as printed on the current API, and prints
    # the values its comments state
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme[readme.index("## Library quick tour") :]
    code = tour[tour.index("```python\n") + len("```python\n") : tour.index("```\n\n")]
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == str(tuple(Fraction(k) for k in (0, 1, 0, 0, 0, 0)))
    assert lines[1:] == ["667/300", "20/9", "['67/30', '6667/3000']"]
    comments = " ".join(line.partition("#")[2] for line in code.splitlines())
    assert all(value in comments for value in lines[1:])


def parser_options(parser: argparse.ArgumentParser):
    """The --options of ``parser`` and of all its subparsers."""
    for action in parser._actions:
        yield from (opt for opt in action.option_strings if opt.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parser_options(sub)


def test_readme_names_the_parsers_options():
    # every option the parser defines is documented, and README names none
    # it lacks; --help comes with argparse, --no-build-isolation is pip's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    assert set(parser_options(cli._build_parser())) - {"--help"} == named - {
        "--help",
        "--no-build-isolation",
    }


def test_fast_exit_loses_no_output():
    # main() flushes stdout itself before it leaves without interpreter teardown
    argv = ["--output", "csv", "partitions", "list", "--n", "8"]
    proc = run_fresh(["-m", "bifree.cli", *argv])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 1 + partitions.bell_number(8) == 4141
    assert proc.stdout == invoke(argv)[1]
    proc = run_fresh(["-m", "bifree.cli", "simulate", "--help"])
    assert proc.returncode == 0 and proc.stdout.startswith("usage: bifree simulate")
    proc = run_fresh(["-m", "bifree.cli", "simulate", "--d", "2"])
    assert proc.returncode == 2 and "the following arguments are required" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_final_flush_exits_2():
    # the output fits stdout's buffer, so only the flush at exit writes it
    with open("/dev/full", "w") as full:
        proc = run_fresh(["-m", "bifree.cli", "meander", "dist", "--size", "4"], stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == "bifree: error: [Errno 28] No space left on device\n"


INTERRUPTED = """
import os, sys
from bifree import cli, matrix_model, meanders

parent = os.getpid()

def interrupted(*args):
    if os.getpid() == parent:  # simulate's forked workers run on
        raise KeyboardInterrupt
    return traces(*args)

traces = matrix_model.trial_traces
meanders.loop_distribution = matrix_model.trial_traces = interrupted
sys.argv = ["bifree", *sys.argv[1:]]
cli.main()
"""


@pytest.mark.parametrize("argv", (
    ["meander", "dist", "--size", "12"],
    ["simulate", "--d", "2", "--n", "8", "--trials", "40", "--seed", "1"],
), ids=("meander", "simulate"))
def test_an_interrupt_ends_with_one_line_and_exit_130(argv):
    # the handler raises KeyboardInterrupt itself, as Ctrl-C would, so the
    # test does not hang on when a signal lands
    proc = run_fresh(["-c", INTERRUPTED, *argv], OPENBLAS_NUM_THREADS="1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "bifree: interrupted\n")


def test_simulate_output_ignores_the_callers_blas_threads():
    # the dense letter's long dot products are summed in another order by a
    # threaded BLAS; the CLI pins one thread whatever the caller sets
    argv = ["-m", "bifree.cli", "simulate", "--d", "6", "--n", "16", "--trials", "40",
            "--max-moment", "7", "--lambda", "1/2", "--seed", "2"]
    one, two = (run_fresh(argv, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one.returncode == two.returncode == 0, (one.stderr, two.stderr)
    assert one.stdout == two.stdout


FORK_COUNT = """
import io, json, os, sys
from bifree.cli import run

os.sched_getaffinity = lambda pid: set(range(3))  # three usable cores
forks, fork = [], os.fork

def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counted
rows = []
for argv in json.loads(sys.argv[1]):
    forks.clear()
    out = io.StringIO()
    code = run(argv, out=out)
    rows.append({"code": code, "forks": len(forks), "stdout": out.getvalue()})
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # no child left, running or unreaped
    print(json.dumps(rows))
"""


def test_simulate_forks_one_worker_per_extra_core():
    # the two benchmark configs, two trials and a single trial; with three usable cores
    # a run forks min(3, trials) - 1 workers, and its bytes are those of the
    # serial loop that this process, which has BLAS threads, runs
    configs = [
        (["--d", "2", "--n", "100", "--trials", "200", "--max-moment", "4"], 2),
        (["--d", "3", "--n", "64", "--trials", "10", "--max-moment", "6", "--lambda", "1/2"], 2),
        (["--d", "2", "--n", "8", "--trials", "2", "--max-moment", "3"], 1),
        (["--d", "2", "--n", "8", "--trials", "1", "--max-moment", "3"], 0),
    ]
    argvs = [["simulate", *argv, "--seed", "5"] for argv, _ in configs]
    proc = run_fresh(["-c", FORK_COUNT, json.dumps(argvs)])
    assert proc.returncode == 0, proc.stderr
    forked = json.loads(proc.stdout)
    for row, argv, (_, forks) in zip(forked, argvs, configs):
        assert row == {"code": 0, "forks": forks, "stdout": invoke(argv)[1]}, argv


WORKER_FAILURE = """
import json, os, signal, sys
from bifree import matrix_model
from bifree.cli import run

os.sched_getaffinity = lambda pid: {0, 1}  # two workers: trials 0..4 and 5..9
where, parent, traces = sys.argv[1], os.getpid(), matrix_model.trial_traces

def failing(config, spec, trial, *args):
    if where == "parent" and trial == 2:
        raise ValueError("a trial failed in the parent")
    if where != "parent" and os.getpid() != parent and trial == 7:
        if where == "raise":
            raise ValueError("a trial failed in a worker")
        os.kill(os.getpid(), signal.SIGKILL)
    return traces(config, spec, trial, *args)

matrix_model.trial_traces = failing
code = run(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # no child left, running or unreaped
    print(json.dumps(code))
"""


@pytest.mark.parametrize(
    "where, message",
    [
        ("raise", "bifree: error: the worker for trials 5..9 exited with status 1\n"),
        ("die", "bifree: error: the worker for trials 5..9 died of signal 9\n"),
        ("parent", "bifree: error: a trial failed in the parent\n"),
    ],
)
def test_simulate_worker_failure_exits_2(tmp_path, where, message):
    argv = ["simulate", "--d", "2", "--n", "8", "--trials", "10", "--max-moment", "4",
            "--seed", "1", "--dump-spectrum"]
    created, kept = tmp_path / "created.txt", tmp_path / "kept.txt"
    kept.write_text("0.5\n")
    for dump in (created, kept):
        # the script loads numpy before the CLI's pin: one BLAS thread from here
        proc = run_fresh(["-c", WORKER_FAILURE, where, *argv, str(dump)], OPENBLAS_NUM_THREADS="1")
        # one line, no traceback; the last stdout line is printed only when
        # every worker was reaped
        assert (proc.stdout, proc.stderr) == ("2\n", message)
    assert not created.exists()  # removed by the run that created it
    assert kept.read_text() == "0.5\n"  # the failure came before the dump began
