import io
import itertools
import json
import math
import os
import resource
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bifree.limits import ResourceLimitError
from bifree.matrix_model import (
    EnsembleSpec,
    SimConfig,
    build_delta,
    compare_to_prediction,
    dump_spectrum,
    exact_trace_predictions,
    matrix_rng,
    sample_matrices,
    shifted_semicircle_input,
    trial_traces,
)
from bifree import matrix_model
from bifree.tensor_clt import exact_moment_Sn

from helpers import (
    assert_within_three_standard_errors,
    build_kraus,
    run_fresh,
    sample_hermitian,
    traces_by_word_walk,
    transpose_trace_check,
)


def test_sample_is_bitwise_hermitian():
    spec = EnsembleSpec(dim=17, sigma=1.0, lam=0.5)
    w = sample_hermitian(spec, matrix_rng(1, 0, 0))
    assert (w == w.conj().T).all()
    assert np.abs(w.imag.diagonal()).max() == 0.0


def test_sample_dimension_one():
    spec = EnsembleSpec(dim=1, sigma=2.0, lam=3.0)
    w = sample_hermitian(spec, matrix_rng(5, 0, 0))
    assert w.shape == (1, 1)
    assert w.imag[0, 0] == 0.0


@pytest.mark.parametrize("n", [1, 2, 7])
def test_sample_matrices_follow_the_documented_draw_order(n):
    # entry by entry from the raw draws: diagonal, upper real parts, imaginary
    # parts, the upper triangle row by row
    spec = EnsembleSpec(dim=n, sigma=1.5, lam=0.25)
    config = SimConfig(d=2, n=n, trials=4, seed=19)
    stack = sample_matrices(config, spec, 3)
    assert stack.shape == (4, n, n)
    for j in range(4):
        rng = matrix_rng(19, 3, j)
        k = n * (n - 1) // 2
        diag, re, im = rng.standard_normal(n), rng.standard_normal(k), rng.standard_normal(k)
        off = 1.5 / math.sqrt(2 * n)
        want = np.zeros((n, n), dtype=np.complex128)
        upper = iter(range(k))
        for p in range(n):
            want[p, p] = diag[p] * (1.5 / math.sqrt(n)) + 0.25
            for q in range(p + 1, n):
                i = next(upper)
                want[p, q] = complex(re[i] * off, im[i] * off)
                want[q, p] = want[p, q].conjugate()
        assert (stack[j] == want).all(), j
        assert (sample_hermitian(spec, matrix_rng(19, 3, j)) == want).all()


def test_a_workspace_holds_one_side_of_the_samples():
    # a Gram plan lists one side's d samples, which each trial draws into
    # one stack side by side; the dense letter's lists all 2d, which
    # build_delta reads.  Without a buffer, sample_matrices returns all 2d,
    # bit for bit the two sides' draws
    kinds = set()
    for d, n, m in ((2, 7, 4), (3, 5, 5), (1, 4, 3), (6, 3, 7), (3, 2, 6)):
        config = SimConfig(d=d, n=n, trials=3, seed=5, max_moment=m)
        spec, plan = EnsembleSpec(dim=n, lam=0.5), config.plan
        kinds.add(plan.dense)
        count = 2 * d if plan.dense else d
        assert plan.buffers["samples"] == (count * n * n, np.complex128), (d, n, m)
        draw = matrix_model._TrialWorkspace(config).draw
        assert draw.samples.shape == (count, n, n)
        full = sample_matrices(config, spec, 2)
        assert full.shape == (2 * d, n, n)
        firsts = (0,) if plan.dense else (0, d)
        sides = [sample_matrices(config, spec, 2, draw, first).copy() for first in firsts]
        assert np.concatenate(sides).tobytes() == full.tobytes(), (d, n, m)
    assert kinds == {False, True}


def test_sample_reproducible_per_key():
    spec = EnsembleSpec(dim=8)
    a = sample_hermitian(spec, matrix_rng(9, 3, 2))
    b = sample_hermitian(spec, matrix_rng(9, 3, 2))
    c = sample_hermitian(spec, matrix_rng(9, 3, 1))
    assert (a == b).all()
    assert not (a == c).all()


def test_mean_square_trace_statistical():
    # E tr(W^2) = sigma^2 + lam^2, within three standard errors
    spec = EnsembleSpec(dim=64, sigma=1.0, lam=0.5)
    values = []
    for trial in range(400):
        w = sample_hermitian(spec, matrix_rng(123, trial, 0))
        values.append(float(np.trace(w @ w).real) / spec.dim)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    assert abs(mean - 1.25) <= 3 * se


def test_build_delta_single_summand_centred():
    spec = EnsembleSpec(dim=6)
    w = sample_matrices(SimConfig(d=1, n=6, trials=1, seed=0), spec, 0)
    delta = build_delta(w, 0.0)
    assert np.allclose(delta, np.kron(w[0], w[1].conj()))
    assert (delta == delta.conj().T).all()


def kron_delta(matrices, lam):
    """The sum of np.kron products less lam^2 * np.eye, summand by summand,
    over sqrt(d)."""
    d, n = len(matrices) // 2, matrices[0].shape[0]
    ref = np.zeros((n * n, n * n), dtype=np.complex128)
    for j in range(d):
        ref += np.kron(matrices[j], matrices[j + d].conj())
        ref -= lam * lam * np.eye(n * n)
    return ref / math.sqrt(d)


def within_rounding(got, ref, d):
    # the batched sums differ from the kron sum's by rounding only: at most
    # 1.1 d eps relative over the grid of test_build_delta_hermitian_with_shift
    return np.abs(got - ref).max() <= 16 * d * np.finfo(float).eps * np.abs(ref).max()


def test_build_delta_hermitian_with_shift():
    # Hermitian bit for bit with a real diagonal, and the kron sum up to
    # rounding, for means of both signs
    for d, n, lam in itertools.product((1, 2, 3, 20, 100), (1, 2, 5, 10), (0.7, -1.1)):
        spec = EnsembleSpec(dim=n, sigma=1.0, lam=lam)
        matrices = sample_matrices(SimConfig(d=d, n=n, trials=1, seed=11), spec, 0)
        delta = build_delta(matrices, lam)
        assert (delta == delta.conj().T).all()
        assert (delta.diagonal().imag == 0).all()
        assert within_rounding(delta, kron_delta(matrices, lam), d), (d, n, lam)
        # two calls reuse one operator, the second overwriting the first; a
        # list of samples is stacked first
        out = build_delta(matrices, -2 * lam, np.empty((n * n, n * n), dtype=np.complex128))
        assert build_delta(list(matrices), lam, out) is out
        assert np.array_equal(out, delta)


def test_a_spec_of_another_dimension_is_refused(monkeypatch):
    # before any draw, and before any worker process is forked
    def fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(matrix_model, "_block_workers", lambda config: config.trials)
    monkeypatch.setattr(matrix_model, "_single_threaded", lambda: True)
    config, spec = SimConfig(d=1, n=4, trials=2, seed=1), EnsembleSpec(dim=3)
    dump = io.StringIO()
    calls = (
        lambda: sample_matrices(config, spec, 0),
        lambda: trial_traces(config, spec, 0),
        lambda: compare_to_prediction(config, spec, [0.0] * config.max_moment),
        lambda: dump_spectrum(config, spec, dump),
    )
    for call in calls:
        with pytest.raises(ValueError, match="dimension 3 is not the config's n = 4"):
            call()
    assert dump.getvalue() == ""


def test_build_delta_scalar_case():
    w1 = np.array([[2.0 + 0j]])
    w2 = np.array([[3.0 + 0j]])
    delta = build_delta([w1, w2], 1.5)
    assert delta.shape == (1, 1)
    assert delta[0, 0] == pytest.approx(2.0 * 3.0 - 1.5 * 1.5)


def test_build_delta_validation():
    w = np.eye(2, dtype=np.complex128)
    with pytest.raises(ValueError):
        build_delta([w, w, w], 0.0)
    with pytest.raises(ValueError):
        build_delta([w, np.eye(3, dtype=np.complex128)], 0.0)


def test_build_kraus():
    eye = np.eye(3, dtype=np.complex128)
    assert (build_kraus([eye]) == np.eye(9)).all()
    k1 = np.array([[1.0 + 0j]])
    k2 = np.array([[2.0 + 0j]])
    assert build_kraus([k1, k2])[0, 0] == 5.0


def test_kraus_matches_delta_for_repeated_samples():
    # with lam = 0 and W_{j+d} = W_j, sqrt(d) Delta is the Kraus operator
    spec = EnsembleSpec(dim=4)
    d = 2
    ws = [sample_hermitian(spec, matrix_rng(7, 0, j)) for j in range(d)]
    delta = build_delta(ws + ws, 0.0)
    kraus = build_kraus(ws)
    assert np.allclose(math.sqrt(d) * delta, kraus)


def dense_power_traces(matrices, lam, max_moment):
    delta = build_delta(matrices, lam)
    n2 = delta.shape[0]
    return [
        float(np.trace(np.linalg.matrix_power(delta, k)).real) / n2
        for k in range(1, max_moment + 1)
    ]


# (d, n, max_moment, lam, reused): dense powers are the oracle at n <= 9, the
# word walk at n = 33..40 (m <= 6); a reused workspace has run another trial
TRACE_GRID = [
    (d, n, m, lam, reused)
    for d in (1, 2, 3)
    for lam in (0.0, 0.3)
    for reused in (False, True)
    # (2, 4) and (3, 4) straddle the letter rule at d = 3 (3^2 vs n^2), and
    # (5, 6) is dense there; at d = 2, (2, 4) sits on it (2^2 = n^2: Gram)
    for n, m in ((1, 1), (1, 5), (2, 4), (3, 4), (5, 6), (9, 5), (33, 1), (36, 4), (40, 6))
] + [
    # shift stress: the binomial shift cancels against Delta_0's large traces
    (3, n, m, 2.0, reused)
    for reused in (False, True)
    for n, m in ((9, 5), (40, 6))
] + [
    # the shift stays inside the dense letter: as a binomial over it, these
    # traces deviated from dense powers by 4e-12 to 1.8e-9 relative
    (d, n, m, 2.0, reused)
    for reused in (False, True)
    for d, n, m in ((6, 2, 7), (6, 3, 8), (5, 2, 8))
]


def check_trial_traces(d, n, m, lam, reused, oracles):
    spec = EnsembleSpec(dim=n, sigma=1.0, lam=lam)
    config = SimConfig(d=d, n=n, trials=2, seed=21 + n, max_moment=m)
    work = matrix_model._TrialWorkspace(config)
    if reused:  # every buffer of the workspace holds trial 1's values
        trial_traces(config, spec, 1, work)
    got = trial_traces(config, spec, 0, work)
    if reused:
        assert got == trial_traces(config, spec, 0)  # bit for bit a fresh workspace's
    assert len(got) == m
    for oracle in oracles:
        want = oracle(sample_matrices(config, spec, 0), lam, m)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # the dense operator is the letter only when d^ceil(m/2) > n^2
    assert work.dense == (d ** math.ceil(m / 2) > n * n)
    return work


@pytest.mark.parametrize("d, n, m, lam, reused", TRACE_GRID)
def test_trial_traces_match_oracles(d, n, m, lam, reused):
    oracle = dense_power_traces if n <= 9 else traces_by_word_walk
    check_trial_traces(d, n, m, lam, reused, [oracle])


# (d, n, max_moment, lam, MIN_GEMM_ROWS, rows per block of the first side):
# with BLOCK_BYTES = 0 the GEMM floor alone sets the rows, so every config
# runs several row blocks
BLOCK_GRID = [
    (2, 7, 5, 0.3, 7, 2),  # blocks of 2, 2, 2 and a short last block of 1
    (2, 12, 4, 0.0, 10, 4),  # three blocks of 4: n a multiple of the rows
    (3, 7, 6, 0.5, 1, 1),  # one-row blocks
    (1, 7, 5, 0.3, 2, 2),  # one letter per side: blocks of 2, 2, 2, 1
    (3, 8, 4, 2.0, 8, 3),  # shift stress: blocks of 3, 3, 2
    (4, 3, 6, 2.0, 5, 5),  # the dense letter: operator rows in blocks of 5 and 4
    (4, 3, 6, 2.0, 1, 1),  # the dense letter, one operator row per block
]


@pytest.mark.parametrize("reused", (False, True))
@pytest.mark.parametrize("d, n, m, lam, gemm_rows, rows", BLOCK_GRID)
def test_row_blocks_match_both_oracles(monkeypatch, d, n, m, lam, gemm_rows, rows, reused):
    monkeypatch.setattr(matrix_model, "BLOCK_BYTES", 0)
    monkeypatch.setattr(matrix_model, "MIN_GEMM_ROWS", gemm_rows)
    oracles = [dense_power_traces, traces_by_word_walk]
    work = check_trial_traces(d, n, m, lam, reused, oracles)
    size = n * n if work.dense else n
    assert rows < size  # several blocks
    assert [side.rows for side in work.sides] == [rows, 1 if work.dense else rows]


def buffer_owners(value, found=None) -> dict:
    """The arrays that own the memory of every array ``value`` holds, by id,
    through lists, tuples and attributes."""
    found = {} if found is None else found
    if isinstance(value, np.ndarray):
        owner = value if value.base is None else value.base
        found[id(owner)] = owner
    elif isinstance(value, (list, tuple)):
        for item in value:
            buffer_owners(item, found)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            buffer_owners(item, found)
    return found


def test_trace_byte_budget(monkeypatch):
    # both benchmark configs fit, in row blocks whose buffers the two sides
    # share, beside one side's samples: criterion 8's (two blocks of 50 rows;
    # 1.60 MiB with both sides' samples) and d = 3, n = 64, m = 6 (four blocks
    # of 16 rows; 1.50 MiB with both sides' samples)
    criterion, shifted = (SimConfig(d, n, 1, 0, m).plan for d, n, m in ((2, 100, 4), (3, 64, 6)))
    assert [rows for _, rows in criterion.sides] == [50, 50]
    assert [rows for _, rows in shifted.sides] == [16, 16]
    assert criterion.nbytes == 1_280_416 and shifted.nbytes == 1_340_432
    assert matrix_model._plan(9, 512, 8).nbytes > matrix_model.TRACE_BYTE_BUDGET
    with pytest.raises(ResourceLimitError, match="MiB"):
        SimConfig(d=9, n=512, trials=1, seed=0, max_moment=8)
    # (3, 512, 8) needed 1,518 MiB as whole products; in row blocks it fits
    # in 31.2 MiB (45.2 with both sides' samples), and two usable cores fork
    # one worker each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = SimConfig(d=3, n=512, trials=4, seed=0, max_moment=8)
    assert matrix_model._block_workers(config) == 2
    # the dense letter holds the operator and its row blocks, so n = 89 fits
    # and n = 90 does not (a slab of the operator beside them refused n = 89,
    # three n^2 x n^2 matrices n = 69)
    for d, n, m in ((9, 68, 8), (17, 68, 6), (4097, 64, 2), (9, 80, 8), (17, 89, 8), (9, 89, 10)):
        SimConfig(d=d, n=n, trials=1, seed=0, max_moment=m)
    for d, m in ((17, 8), (9, 10)):
        assert matrix_model._plan(d, 90, m).dense
        with pytest.raises(ResourceLimitError, match="MiB"):
            SimConfig(d=d, n=90, trials=1, seed=0, max_moment=m)
    # the plan's bytes are every buffer a workspace allocates, the sample
    # stack included, byte for byte: Gram letters, the dense letter, d = 1
    # and n = 1.
    # The sides share one set of row-block buffers: the owners are the sample
    # stack, three scratch arrays, three product buffers, one block Gram
    # buffer when the sides have several letters, and two Gram sums; in the
    # dense case also the operator and the trivial letter
    for d, n, m in ((3, 40, 6), (6, 24, 8), (1, 30, 7), (2, 1, 4), (1, 1, 3)):
        config = SimConfig(d=d, n=n, trials=1, seed=0, max_moment=m)
        owners = buffer_owners(matrix_model._TrialWorkspace(config))
        assert sum(a.nbytes for a in owners.values()) == config.plan.nbytes, (d, n, m)
        dense = config.plan.dense
        assert len(owners) == 9 + (d > 1 and not dense) + 2 * dense, (d, n, m)
    # the plan's bytes bound the measured peak, sampled matrices included, and
    # closely: Gram configs with a mean shift, both benchmark configs among
    # them, and one dense.  A first trial loads numpy.random (lazily
    # imported, ~0.7 MB) outside the window.  The workspace's Python objects
    # and a trial's generators take about 8 KB beside the plan's buffers, so
    # each config's plan is over 140 KB
    trial_traces(SimConfig(d=1, n=1, trials=1, seed=1), EnsembleSpec(dim=1), 0)
    caps = {(2, 100, 4): 1.3 * 2**20, (3, 64, 6): 1.3 * 2**20}
    for d, n, m in ((3, 40, 6), (1, 48, 7), (6, 24, 8), *caps):
        config = SimConfig(d=d, n=n, trials=1, seed=1, max_moment=m)
        assert config.plan.dense == (d == 6), (d, n, m)  # both kinds of plan
        assert config.plan.nbytes > 140_000, (d, n, m)
        tracemalloc.start()
        try:
            trial_traces(config, EnsembleSpec(dim=n, lam=0.5), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 <= peak / config.plan.nbytes <= 1.1, (d, n, m)
        assert peak <= caps.get((d, n, m), math.inf)
    # the plan counts the sample stack: each of two workers would fill a
    # (2d, n, n) stack of 4 GiB, so the config is refused before any draw
    with pytest.raises(ResourceLimitError):
        SimConfig(d=32768, n=64, trials=2, seed=0, max_moment=1)
    # one letter (d = 1) keeps two products whatever the order, so the order
    # cap refuses a huge order at once, before any buffer is sized
    with pytest.raises(ResourceLimitError):
        SimConfig(d=1, n=2, trials=1, seed=0, max_moment=10**18)


def test_the_letter_that_fits_is_taken(monkeypatch):
    # (3, 6, 6) takes the Gram letters by the letter rule (85,152 bytes) and
    # the dense letter needs 66,400: under a budget between the two it runs
    # on the dense letter
    monkeypatch.setattr(matrix_model, "TRACE_BYTE_BUDGET", 80_000)
    config, spec = SimConfig(d=3, n=6, trials=2, seed=7, max_moment=6), EnsembleSpec(dim=6, lam=0.5)
    work = matrix_model._TrialWorkspace(config)
    assert work.dense and config.plan.nbytes == 66_400
    want = dense_power_traces(sample_matrices(config, spec, 0), 0.5, 6)
    np.testing.assert_allclose(trial_traces(config, spec, 0, work), want, rtol=1e-12, atol=1e-12)
    monkeypatch.undo()
    plan = SimConfig(d=3, n=6, trials=2, seed=7, max_moment=6).plan
    assert not plan.dense and plan.nbytes == 85_152
    # the other way: the rule picks the dense letter at (20, 89, 5), just over
    # 1,024 MiB, and the Gram letters need 179 MiB, so the config is accepted
    assert not SimConfig(d=20, n=89, trials=1, seed=0, max_moment=5).plan.dense


def estimates(config: SimConfig, spec: EnsembleSpec):
    """The rows of a run scored against zero predictions: the sample means
    and standard errors of its traces."""
    return compare_to_prediction(config, spec, [0.0] * config.max_moment)


def in_fresh_process(script: str, *args: str):
    """Run ``script`` in a fresh interpreter and return the JSON its last
    stdout line prints.  The process imports numpy with one BLAS thread, so
    it is single-threaded and the trial loop forks."""
    proc = run_fresh(["-c", script, *args], OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


WORKSPACE_PER_WORKER = """
import json, os, sys
from bifree import matrix_model
from bifree.matrix_model import EnsembleSpec, SimConfig, compare_to_prediction

os.sched_getaffinity = lambda pid: set(range(3))  # three usable cores
log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)

class Logged(matrix_model._TrialWorkspace):
    def __init__(self, config):
        os.write(log, b"%d\\n" % os.getpid())
        super().__init__(config)

matrix_model._TrialWorkspace = Logged
builds = []
for d, n, m in ((2, 6, 3), (3, 3, 6)):  # Gram letters, the dense letter
    for trials in (1, 2, 9):
        os.truncate(sys.argv[1], 0)
        config = SimConfig(d=d, n=n, trials=trials, seed=3, max_moment=m)
        compare_to_prediction(config, EnsembleSpec(dim=n), [0.0] * m)
        with open(sys.argv[1]) as fh:
            builds.append([int(pid) for pid in fh.read().split()])
print(json.dumps({"parent": os.getpid(), "builds": builds}))
"""


def test_compare_to_prediction_builds_one_workspace(monkeypatch, tmp_path):
    built = []

    class Counted(matrix_model._TrialWorkspace):
        def __init__(self, config):
            built.append(config)
            super().__init__(config)

    monkeypatch.setattr(matrix_model, "_TrialWorkspace", Counted)
    for d, n, m in ((2, 6, 3), (3, 3, 6)):  # Gram letters, the dense letter
        for trials in (1, 2, 9):
            built.clear()
            config = SimConfig(d=d, n=n, trials=trials, seed=3, max_moment=m)
            estimates(config, EnsembleSpec(dim=n))
            assert built == [config]  # this process's own block
    # drawing samples alone, or dumping the spectrum, needs no trace buffers
    built.clear()
    config = SimConfig(d=2, n=4, trials=2, seed=3, max_moment=4)
    sample_matrices(config, EnsembleSpec(dim=4), 0)
    dump_spectrum(config, EnsembleSpec(dim=4), io.StringIO())
    assert built == []
    # per worker: with three usable cores, min(3, trials) processes each build one
    (tmp_path / "log").touch()
    got = in_fresh_process(WORKSPACE_PER_WORKER, str(tmp_path / "log"))
    for builds, trials in zip(got["builds"], (1, 2, 9) * 2):
        counts = Counter(builds)
        assert sorted(counts.values()) == [1] * min(3, trials), builds
        assert got["parent"] in counts


PLAN_ONCE = """
import json, os
from bifree import matrix_model
from bifree.matrix_model import EnsembleSpec, SimConfig, compare_to_prediction

os.sched_getaffinity = lambda pid: {0, 1}  # two usable cores
# Gram letters, the dense letter
configs = [SimConfig(d=2, n=6, trials=9, seed=3, max_moment=4),
           SimConfig(d=3, n=3, trials=9, seed=3, max_moment=6)]

def rows():
    return [compare_to_prediction(c, EnsembleSpec(dim=c.n), [0.0] * c.max_moment) for c in configs]

def refuse(*args):
    raise AssertionError("planned a trial again")

before = rows()
matrix_model._plan = refuse  # a worker or a trial that plans fails the run
after = rows()
print(json.dumps({"workers": [matrix_model._block_workers(c) for c in configs],
                  "same": after == before}))
"""


def test_the_plan_is_made_once_per_config():
    # the config plans its trials when it is built: its two workers, their
    # workspaces and their trials read that plan and never make one
    assert in_fresh_process(PLAN_ONCE) == {"workers": [2, 2], "same": True}


FAULTS_PER_WORKER = """
import json, os, resource, sys
from bifree.matrix_model import EnsembleSpec, SimConfig, compare_to_prediction

os.sched_getaffinity = lambda pid: set(range(3))  # three usable cores
spec = EnsembleSpec(dim=100)

def minor_faults(trials):  # this process's and its reaped workers'
    def usage():
        return sum(resource.getrusage(who).ru_minflt
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    before = usage()
    compare_to_prediction(SimConfig(d=2, n=100, trials=trials, seed=1, max_moment=4), spec, [0.0] * 4)
    return usage() - before

minor_faults(2)  # warm-up: BLAS buffers, allocator arenas
print(json.dumps([minor_faults(10), minor_faults(40)]))
"""


def test_trial_loop_does_not_fault_per_trial():
    # each worker allocates its workspace once, so more trials fault in no
    # more memory; a trial that allocated its buffers afresh faulted ~800
    # pages here
    spec = EnsembleSpec(dim=100)

    def minor_faults(trials):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimates(SimConfig(d=2, n=100, trials=trials, seed=1, max_moment=4), spec)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    minor_faults(2)  # warm-up: BLAS buffers, allocator arenas
    assert minor_faults(40) - minor_faults(10) < 30 * 100
    # three workers: each fork costs its copied-on-write pages once per run
    ten, forty = in_fresh_process(FAULTS_PER_WORKER)
    assert forty - ten < 30 * 100, (ten, forty)


def test_workers_share_the_byte_budget(monkeypatch):
    # TRACE_BYTE_BUDGET bounds the workspaces of all workers together
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    budget = matrix_model.TRACE_BYTE_BUDGET

    def workers(d, n, m, trials=100):
        return matrix_model._block_workers(SimConfig(d=d, n=n, trials=trials, seed=0, max_moment=m))

    # (9, 80, 8) needs more than half the budget, (9, 70, 8) a third to a
    # half, (9, 60, 8) a fifth to a quarter, (9, 50, 8) a ninth to an eighth;
    # one trial more than the workers keeps these runs within WORK_BUDGET
    for (d, n, m), want in (
        ((9, 80, 8), 1),
        ((9, 70, 8), 2),
        ((9, 60, 8), 4),
        ((9, 50, 8), 8),
        ((3, 512, 4), 34),
        ((3, 512, 8), 32),
    ):
        need = matrix_model._plan(d, n, m).nbytes
        assert want * need <= budget < (want + 1) * need
        assert workers(d, n, m, trials=want + 1) == want, (d, n, m)
    # a small workspace: one worker per usable core, at most one per trial
    assert workers(2, 100, 4) == 64
    assert workers(2, 100, 4, trials=5) == 5
    # the shared (trials, m) traces take their bytes first: 25,265 trials at
    # (39, 106, 2), within WORK_BUDGET, leave room for 49 workspaces of 50
    config = SimConfig(d=39, n=106, trials=25_265, seed=0, max_moment=2)
    assert budget // config.plan.nbytes == 50 and matrix_model._block_workers(config) == 49
    # the largest run at (2, 100, 4) whose results fit is over the work
    # budget, and 32 bytes past the byte budget the need is rounded up, so
    # it reads as too much
    most = (budget - matrix_model._plan(2, 100, 4).nbytes) // (8 * 4)
    assert most == 33_514_419
    with pytest.raises(ResourceLimitError, match="33,514,419 trials of"):
        SimConfig(d=2, n=100, trials=most, seed=0, max_moment=4)
    with pytest.raises(ResourceLimitError) as refused:
        SimConfig(d=2, n=100, trials=most + 1, seed=0, max_moment=4)
    assert str(refused.value) == (
        "a trial workspace and the results need 1025 MiB, rounded up; the budget is 1024 MiB"
    )


def test_no_forks_from_a_threaded_process(monkeypatch):
    # forking a process with threads (BLAS threads, here a parked one) can
    # deadlock the child, so such a process runs every trial itself
    def refuse_fork():
        raise AssertionError("forked a process that has threads")

    monkeypatch.setattr(os, "fork", refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        config = SimConfig(d=2, n=6, trials=9, seed=3, max_moment=4)
        rows = estimates(config, EnsembleSpec(dim=6))
    finally:
        parked.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(rows) == 4


def test_compare_to_prediction_deterministic():
    spec = EnsembleSpec(dim=10)
    config = SimConfig(d=2, n=10, trials=5, seed=77, max_moment=3)
    first = estimates(config, spec)
    second = estimates(config, spec)
    assert first == second


def test_compare_to_prediction_single_trial_flags_std_error():
    spec = EnsembleSpec(dim=6)
    config = SimConfig(d=1, n=6, trials=1, seed=3, max_moment=2)
    (m1, m2) = estimates(config, spec)
    assert m1.std_error is None and m2.std_error is None


def test_first_moment_centred_within_three_se():
    spec = EnsembleSpec(dim=24, sigma=1.0, lam=0.0)
    config = SimConfig(d=2, n=24, trials=100, seed=5, max_moment=1)
    (est,) = estimates(config, spec)
    assert abs(est.mean) <= 3 * est.std_error


def test_second_moment_gap_shrinks_with_dimension():
    # E tr(Delta^2) is unbiased, so the gap to delta^2 = 1 is a fluctuation
    # whose scale shrinks like 1/n
    gaps = []
    for n in (25, 50, 100):
        spec = EnsembleSpec(dim=n, sigma=1.0, lam=0.0)
        config = SimConfig(d=2, n=n, trials=60, seed=2024, max_moment=2)
        gaps.append(abs(estimates(config, spec)[1].mean - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_transpose_trace_identity():
    spec = EnsembleSpec(dim=16, sigma=1.0, lam=0.2)
    samples = [sample_hermitian(spec, matrix_rng(13, 0, j)) for j in range(3)]
    assert transpose_trace_check(samples, [0]) == 0.0
    rng = np.random.default_rng(0)
    for length in (2, 3, 4, 6):
        word = list(rng.integers(0, 3, size=length))
        assert transpose_trace_check(samples, word) <= 1e-10
    assert transpose_trace_check(samples, [1, 1, 1, 1]) <= 1e-10
    with pytest.raises(ValueError):
        transpose_trace_check(samples, [])


def test_exact_trace_predictions_values():
    # lam = 0, sigma = 1: delta^2 = 1, so predictions are the plain moments
    preds = exact_trace_predictions(2, 0, 1, 4)
    inp = shifted_semicircle_input(0, 1, 4)
    assert preds[0] == 0.0
    assert preds[1] == pytest.approx(float(exact_moment_Sn(2, 2, inp))) == 1.0
    assert preds[2] == 0.0
    assert preds[3] == pytest.approx(float(exact_moment_Sn(4, 2, inp))) == 3.0


def test_compare_to_prediction_arithmetic(monkeypatch):
    # the trials' traces are stubbed: (mean, standard error) (1, 1/2) and (2, 1/4)
    traces = np.array([[0.5, 1.75], [1.5, 2.25]])
    monkeypatch.setattr(matrix_model, "_trial_values", lambda config, spec: traces[: config.trials])
    config, spec = SimConfig(d=1, n=2, trials=2, seed=0, max_moment=2), EnsembleSpec(dim=2)
    rows = compare_to_prediction(config, spec, [1.0, 1.5])
    assert [(row.m, row.mean, row.std_error, row.exact) for row in rows] == [
        (1, 1.0, 0.5, 1.0),
        (2, 2.0, 0.25, 1.5),
    ]
    assert rows[0].z == 0.0
    assert rows[1].z == pytest.approx(2.0)
    # no standard error (one trial) or a zero one: z is undefined, not inf
    one = SimConfig(d=1, n=2, trials=1, seed=0, max_moment=1)
    (lone,) = compare_to_prediction(one, spec, [1.0])
    assert lone.std_error is None and lone.z is None
    with monkeypatch.context() as patched:
        patched.setattr(matrix_model, "_trial_values", lambda config, spec: traces[[0, 0]])
        assert [row.z for row in compare_to_prediction(config, spec, [1.0, 1.5])] == [None, None]
    # too few exact values: refused before any trial runs
    monkeypatch.setattr(matrix_model, "_trial_values", refuse_trials)
    with pytest.raises(ValueError, match="missing exact values"):
        compare_to_prediction(config, spec, [1.0])
    for bad in (float("nan"), float("inf")):
        stubbed = traces.copy()
        stubbed[1, 1] = bad
        monkeypatch.setattr(matrix_model, "_trial_values", lambda config, spec: stubbed)
        with pytest.raises(ValueError, match="order 2"):
            compare_to_prediction(config, spec, [1.0, 1.5])


def refuse_trials(*args):
    raise AssertionError("ran the trials before checking the predictions")


def test_pipeline_small_dimension_statistical():
    # miniature version of the acceptance run, on the dense letter; finite-size
    # bias at n = 16 is ~1/n^2, well under the Monte Carlo noise here
    spec = EnsembleSpec(dim=16, sigma=1.0, lam=0.0)
    config = SimConfig(d=2, n=16, trials=100, seed=42, max_moment=4)
    exact = exact_trace_predictions(2, 0, 1, 4)
    assert_within_three_standard_errors(compare_to_prediction(config, spec, exact))


def test_dimension_cap():
    with pytest.raises(ResourceLimitError):
        SimConfig(d=1, n=600, trials=1, seed=0)


def test_stream_keys_are_injective():
    # the key layout is unchanged: (seed, trial << 16 | index)
    got = matrix_rng(5, 3, 7).standard_normal(4)
    want = np.random.Generator(np.random.Philox(key=[5, 3 << 16 | 7])).standard_normal(4)
    assert (got == want).all()
    matrix_rng(5, (1 << 48) - 1, (1 << 16) - 1)  # largest accepted key
    with pytest.raises(ResourceLimitError):
        matrix_rng(5, 0, 1 << 16)  # would alias (trial 1, index 0)
    with pytest.raises(ResourceLimitError):
        matrix_rng(5, 1 << 48, 0)  # would wrap to trial 0
    for seed in (0, (1 << 64) - 1):  # both ends of the seed word
        got = matrix_rng(seed, 3, 7).standard_normal(4)
        key = np.array([seed, 3 << 16 | 7], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
        assert (got == want).all()
        SimConfig(d=1, n=1, trials=1, seed=seed)
    for seed in (-1, 1 << 64):  # would alias 2^64 - 1 and 0
        with pytest.raises(ValueError):
            SimConfig(d=1, n=1, trials=1, seed=seed)
    SimConfig(d=1 << 15, n=1, trials=1, seed=0)
    # the byte budget of the (trials, m) result array refuses trials far
    # below the key field's end
    with pytest.raises(ResourceLimitError, match="the results"):
        SimConfig(d=1, n=1, trials=1 << 48, seed=0)
    with pytest.raises(ResourceLimitError):
        SimConfig(d=(1 << 15) + 1, n=1, trials=1, seed=0)
    with pytest.raises(ResourceLimitError):
        SimConfig(d=1, n=1, trials=(1 << 48) + 1, seed=0)


def test_dump_spectrum(tmp_path):
    spec = EnsembleSpec(dim=3)
    config = SimConfig(d=1, n=3, trials=2, seed=8, max_moment=2)
    path = tmp_path / "spectrum.csv"
    with open(path, "w", encoding="ascii") as fh:
        lines = dump_spectrum(config, spec, fh)
    assert lines == 2 * 9
    content = path.read_text().strip().splitlines()
    assert len(content) == 18
    float(content[0])  # parseable
    # each trial refills the run's one operator: the spectra of fresh operators
    spec = EnsembleSpec(dim=3, lam=0.5)
    config = SimConfig(d=2, n=3, trials=3, seed=8, max_moment=2)
    fh = io.StringIO()
    dump_spectrum(config, spec, fh)
    fresh = [
        np.linalg.eigvalsh(build_delta(sample_matrices(config, spec, t), 0.5))
        for t in range(config.trials)
    ]
    assert fh.getvalue().split() == [repr(float(v)) for values in fresh for v in values]
    # the eigenvalues of the kron sum, up to the operator's rounding
    for t, values in enumerate(fresh):
        ref = np.linalg.eigvalsh(kron_delta(sample_matrices(config, spec, t), 0.5))
        assert within_rounding(values, ref, config.d), t
    with pytest.raises(ResourceLimitError):
        dump_spectrum(SimConfig(d=1, n=100, trials=1, seed=0), EnsembleSpec(dim=100), io.StringIO())
