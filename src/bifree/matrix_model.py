"""Monte Carlo realisation of the tensor-sum operator with GUE matrices.

Independent shifted GUE samples W_1, ..., W_2d are combined into

    Delta = (1/sqrt(d)) * sum_j ( W_j (x) conj(W_{j+d}) - lam^2 I ),

each summand centred by its true mean lam^2, whose spectral moments converge
(in expectation, as the dimension grows) to delta^m times the exact moments
computed by :mod:`bifree.tensor_clt` for shifted-semicircle legs.  The module
samples, estimates E tr(Delta^m) with standard errors, and scores the
estimates against the exact predictions as z-values.

Reproducibility contract: every matrix entry is drawn from a counter-based
Philox stream keyed by (seed, trial, matrix index), with a fixed entry order
(diagonal, then upper-triangle real parts, then imaginary parts), and the
trials are reduced in trial order, so the samples and the split of the trials
over worker processes never change a result.  The floating-point sums inside
BLAS do: a threaded BLAS splits the long dot products of the dense letter, so
its traces move in the last digits with the BLAS thread count, which the CLI
pins to one.  The Gram letters' products are unchanged by it.

A single-threaded process forks a worker per usable core to run the trials
in blocks into one shared array, and only waits and scores; a process with
threads (a fork could deadlock) runs them itself (:func:`_trial_values`).

Traces of powers come from one meet-in-the-middle kernel over two sides of
Hermitian letters (:func:`_traces`): the samples W_1..W_d against
W_{d+1}..W_2d, with the mean shift a scalar binomial, or, when the
d^ceil(m/2) half-words outnumber the n^2 rows of the dense operator, that
operator (shift and 1/sqrt(d) inside) against a trivial 1 x 1 letter.  The
sides run in turn, in L2-sized row blocks, so they share one set of block
buffers and, on the Gram letters, one stack of d samples.
:class:`SimConfig` makes the run's one trial plan (:func:`_plan`): the
letters, the blocks, every buffer of a worker's workspace, and a trial's
operations.  The word walk over all words and dense powers are the test
oracles.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .cumulants import CumulantSeq, Rational, moments_from_free_cumulants
from .limits import Record, ResourceLimitError
from .tensor_clt import TensorCLTInput, check_order_cap, tensor_coefficients

DENSE_DIM_LIMIT = 32  # dump_spectrum diagonalises the dense n^2 x n^2 operator
MAX_DIMENSION = 512
TRACE_BYTE_BUDGET = 1 << 30  # a run's trial workspaces, their sample stacks included, and results
WORK_BUDGET = 3 * 10**13  # a run's operations: its trials times _Plan.ops
# a trial's fixed calls, one matrix's Philox stream and one normal, in GEMM flops of like cost
TRIAL_OPS, STREAM_OPS, NORMAL_OPS = 4 * 10**6, 6 * 10**5, 600
BLOCK_BYTES = 1 << 20  # a row block's product buffers, shared by the sides, within a 2 MiB L2
MIN_GEMM_ROWS = 256  # a block's last stacked GEMMs are this tall, or as tall as a letter is wide
DUMP_OPS = 2400, 9  # a spectrum dump's n^4 (2400 + 9 n^2) beyond build_delta's flops
# a draw's buffers: the samples, one sample's n^2 normals, and the flat
# positions of the upper triangle (row-major) and of its mirror image
_DRAWN = ("samples", "normals", "upper", "lower")


class EnsembleSpec(Record):
    """Shifted GUE ensemble: sample = GUE(sigma)/sqrt(n)-normalised + lam I.

    The limiting spectral distribution is the semicircle of variance sigma^2
    shifted by lam, so exact tensor-sum predictions are available.  Immutable.
    """

    __slots__ = _fields = ("dim", "sigma", "lam")

    def __init__(self, dim: int, sigma: float = 1.0, lam: float = 0.0):
        self._set(dim, sigma, lam)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


class SimConfig(Record):
    """One Monte Carlo run: d tensor summands of n x n matrices; immutable.

    Its trial plan (:func:`_plan`) is made once, here, in the derived slot
    ``plan`` that every workspace and worker of the run reads.  A config whose
    workspace (plan.nbytes) and results pass TRACE_BYTE_BUDGET, or whose
    trials x plan.ops pass WORK_BUDGET, is refused."""

    __slots__ = ("d", "n", "trials", "seed", "max_moment", "plan")
    _fields = ("d", "n", "trials", "seed", "max_moment")

    def __init__(self, d: int, n: int, trials: int, seed: int, max_moment: int = 4):
        if d < 1 or n < 1:
            raise ValueError("d and n must be >= 1")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if max_moment < 1:
            raise ValueError("max_moment must be >= 1")
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must lie in [0, 2^64)")  # one key word
        if n > MAX_DIMENSION:
            raise ResourceLimitError(f"matrix dimension {n} exceeds the cap {MAX_DIMENSION}")
        if d > 1 << 15 or trials > 1 << 48:
            # matrix_rng's key fields: 2d matrix indices < 2^16, trials < 2^48
            raise ResourceLimitError(
                "d <= 2^15 and trials <= 2^48 keep every random stream distinct"
            )
        check_order_cap(max_moment)  # one letter keeps buffers of O(1) size in m
        self._set(d, n, trials, seed, max_moment, _plan(d, n, max_moment))
        need = self.plan.nbytes + _values_bytes(self)
        if need > TRACE_BYTE_BUDGET:
            raise ResourceLimitError(
                f"a trial workspace and the results need {-(-need // 2**20)} MiB, rounded up; "
                f"the budget is {TRACE_BYTE_BUDGET // 2**20} MiB"
            )
        _check_work(trials, self.plan.ops)


def _check_work(trials: int, ops: int) -> None:
    """Refuse trials of ``ops`` operations each that pass WORK_BUDGET."""
    if trials * ops > WORK_BUDGET:
        raise ResourceLimitError(
            f"{trials:,} trials of {ops:,} operations need {trials * ops:,}; the budget "
            f"is {WORK_BUDGET:,}, so run a longer study as several runs with distinct seeds"
        )


def matrix_rng(seed: int, trial: int, matrix_index: int) -> np.random.Generator:
    """Counter-based stream for one matrix: key = (seed, trial, index).

    The seed fills the first key word (SimConfig refuses seeds outside
    [0, 2^64)).  Trial and index share the second (48 + 16 bits), so each is
    refused outside its field; two in-range keys never draw the same stream."""
    if matrix_index >= 1 << 16 or trial >= 1 << 48:
        raise ResourceLimitError(
            f"stream key (trial {trial}, index {matrix_index}) needs "
            f"trial < 2^48 and index < 2^16"
        )
    key = np.array([seed, (trial << 16) | matrix_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_hermitian(
    flat: np.ndarray, spec: EnsembleSpec, rng: np.random.Generator, scratch: tuple
) -> None:
    """Fill one row-major n x n sample ``flat``: real N(0, sigma^2/n) diagonal
    plus lam, complex upper triangle of total variance sigma^2/n mirrored by
    exact conjugation.  ``scratch`` is a :class:`_SampleBuffer`'s."""
    n = math.isqrt(len(flat))
    normals, upper, lower = scratch
    rng.standard_normal(out=normals)  # the same numbers as three draws in turn
    diag, off = normals[:n], normals[n:]
    diag *= spec.sigma / math.sqrt(n)
    diag += spec.lam
    flat[:: n + 1] = diag
    off *= spec.sigma / math.sqrt(2 * n)
    re, im = off[: len(upper)], off[len(upper) :]  # no complex temporaries
    flat.real[upper] = flat.real[lower] = re
    flat.imag[upper] = im
    flat.imag[lower] = np.negative(im, out=im)  # the exact conjugate


class _SampleBuffer:
    """A stack of ``count`` samples and the scratch of the draws into it, as
    the config's plan lists it; a draw overwrites its sample and the
    normals."""

    def __init__(self, config: SimConfig, count: int):
        n, buffers = config.n, config.plan.buffers
        self.samples = np.empty((count, n, n), dtype=np.complex128)
        normals, upper, lower = (np.empty(*buffers[k]) for k in _DRAWN[1:])
        rows, cols = np.triu_indices(n, 1)  # the positions are written in place
        np.add(np.multiply(rows, n, out=upper), cols, out=upper)
        np.add(np.multiply(cols, n, out=lower), rows, out=lower)
        self.scratch = normals, upper, lower


class _Side:
    """One side's part of the kernel for row blocks of ``rows`` rows:
    ``grams``, the Gram matrices of orders k = 1..m (letters^(k//2) x
    letters^ceil(k/2)) that sum the blocks', as views of its ``sums``; and
    ``blocks``, one block's Gram matrix of each order, as views of the
    workspace's ``block`` buffer (None for one letter)."""

    def __init__(self, letters: int, rows: int, max_moment: int, sums: np.ndarray, block):
        self.rows, self.sums = rows, sums
        self.grams, self.blocks, at = [], [], 0
        for k in range(1, max_moment + 1):
            shape = letters ** (k // 2), letters ** ((k + 1) // 2)
            entries = shape[0] * shape[1]
            self.grams.append(self.sums[at : at + entries].reshape(shape))
            self.blocks.append(block[:entries].reshape(shape) if letters > 1 else None)
            at += entries


class _TrialWorkspace:
    """Every buffer the plan lists, allocated once per worker and overwritten
    by each trial: the sample buffer, the row-block buffers and one
    :class:`_Side` per side; in the dense case also the operator and the
    trivial letter."""

    def __init__(self, config: SimConfig):
        plan, n = config.plan, config.n
        # the draw's buffers first, so the triangle indices that fill its
        # positions are freed before the rest of the plan's are allocated
        self.draw = _SampleBuffer(config, (1 + plan.dense) * config.d)
        arrays = {k: np.empty(*b) for k, b in plan.buffers.items() if k not in _DRAWN}
        self.dense, self.buffers = plan.dense, [arrays[k] for k in ("even", "odd", "conj")]
        self.sides = [
            _Side(letters, rows, config.max_moment, arrays[name], arrays.get("block"))
            for (letters, rows), name in zip(plan.sides, ("left", "right"))
        ]
        if self.dense:
            self.delta = arrays["delta"].reshape(n * n, n * n)
            self.one = arrays["one"].reshape(1, 1, 1)
            self.one.fill(1)


def sample_matrices(
    config: SimConfig, spec: EnsembleSpec, trial: int, out: _SampleBuffer | None = None, first=0
) -> np.ndarray:
    """Independent samples first, first + 1, ... of one trial, as many as the
    sample buffer ``out`` stacks (all 2d, in a fresh one, when None), drawn
    into it and returned as its stack; the next draw into ``out`` overwrites
    it.  An ensemble whose dimension is not the config's n is a ValueError."""
    _check_dimension(config, spec)
    buf = out if out is not None else _SampleBuffer(config, 2 * config.d)
    for j, flat in enumerate(buf.samples.reshape(len(buf.samples), -1), first):
        _draw_hermitian(flat, spec, matrix_rng(config.seed, trial, j), buf.scratch)
    return buf.samples


def build_delta(
    matrices: Sequence[np.ndarray], lam: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The n^2 x n^2 operator (1/sqrt(d)) sum_j (W_j (x) conj(W_{j+d}) -
    lam^2 I) of Hermitian W_1..W_2d, written into ``out`` (a fresh array when
    None).

    As conj(W_{j+d})[k, l] = W_{j+d}[l, k], one batched matmul writes every
    entry in place (see README).  Its sums differ from the np.kron products'
    by rounding only (within 16 d eps of the largest entry); the lower
    triangle is then written as the conjugate of the upper one, so the
    operator is Hermitian bit for bit.  The matmul alone is not: with one
    OpenBLAS thread, at seed 3, it missed by up to 1.2e-16 at n = 5 for
    every d >= 2, so a cheaper mirror must write the same bits."""
    if len(matrices) % 2:
        raise ValueError("need an even number of matrices (2d of them)")
    d, n = len(matrices) // 2, matrices[0].shape[0]
    if any(w.shape != (n, n) for w in matrices):
        raise ValueError("all matrices must share the same square shape")
    w = np.asarray(matrices, dtype=np.complex128)  # a list is stacked; a stack is used as it is
    total = out if out is not None else np.empty((n * n, n * n), dtype=np.complex128)
    blocks = total.reshape(n, n, n, n).transpose(0, 3, 2, 1)  # [a, l, b, k]: entry ((a, k), (b, l))
    np.matmul(w[:d].transpose(1, 2, 0)[:, None], w[d:].transpose(1, 0, 2)[None], out=blocks)
    for i in range(n * n - 1):
        np.conjugate(total[i, i + 1 :], out=total[i + 1 :, i])
    total.reshape(-1)[:: n * n + 1] -= d * lam * lam
    total /= math.sqrt(d)
    return total


def _shift_powers(d: int, lam: float, max_moment: int) -> list[float]:
    """gamma^k, k = 0..max_moment, for the shift gamma = -d lam^2 / sqrt(d),
    the value build_delta takes off the dense operator's diagonal; a power
    that overflows is inf, not an error."""
    powers = [1.0, -d * lam * lam / math.sqrt(d)]
    for _ in range(max_moment - 1):
        powers.append(powers[-1] * powers[1])
    return powers


def _check_dimension(config: SimConfig, spec: EnsembleSpec) -> None:
    """Refuse an ensemble whose dimension is not the config's n."""
    if spec.dim != config.n:
        raise ValueError(f"the ensemble's dimension {spec.dim} is not the config's n = {config.n}")


def check_mean_shift(config: SimConfig, spec: EnsembleSpec) -> None:
    """Refuse, before any sampling, a mean whose shift gamma^k (a term of
    every tr(Delta^k)) overflows a float, naming the first such order."""
    for k, power in enumerate(_shift_powers(config.d, spec.lam, config.max_moment)):
        if not math.isfinite(power):
            raise ValueError(f"order {k}: the mean shift's power gamma^{k} overflows a float")


class _Plan(NamedTuple):
    """One trial of a config, worked out before the run by :func:`_plan`."""

    dense: bool  # the letters: the dense operator and a trivial one, or the samples
    sides: tuple[tuple[int, int], ...]  # (letters, rows per block) of each side
    buffers: dict[str, tuple[int, type]]  # entries and dtype of every buffer a trial writes
    nbytes: int  # of those buffers: one worker's workspace
    ops: int  # GEMM flops, plus the draws and the fixed calls at their cost in flops


def _plan(d: int, n: int, max_moment: int) -> _Plan:
    """The trial plan of (d, n, m).  The letters are the samples W_1..W_d
    and W_{d+1}..W_2d or, when the d^ceil(m/2) half-words outnumber the n^2
    rows of the dense operator (exponents past n^2's bit length agree), that
    operator as one letter and a trivial 1 x 1 letter; the other choice when
    only its workspace fits TRACE_BYTE_BUDGET.

    A side walks its letters' rows in blocks (:func:`_half_words`), and each
    of its three buffers holds one block's rows of some products; a
    one-letter side's products are Hermitian powers and need no conjugated
    block.  The rows per block are the most whose buffers fit in
    BLOCK_BYTES, but enough that the last extension's GEMMs, on the stacked
    rows of the letters^(ceil(m/2) - 1) products one letter shorter, are
    MIN_GEMM_ROWS tall, or as tall as the letter size when that is less
    (they do most of the flops).  The rows are at most the letter size and
    are spread evenly over the blocks they take, so only the last block may
    be shorter.

    The operations count 8 flops per complex multiply-add: a side's
    extensions to half length l = 2..ceil(m/2) take letters^l size^3 of
    them and its Gram matrices of order k letters^k size^2, and
    :func:`build_delta` d n^4.  A trial adds :func:`_draw_ops`, so that a
    tiny n, or a large d at n = 1, is not counted as almost free."""
    half = (max_moment + 1) // 2
    rule = d > 1 and d ** min(half, (n * n).bit_length()) > n * n
    tri = n * (n - 1) // 2  # the entries of the upper triangle
    plans = []
    for dense in (rule, not rule):
        sides, entries, grams, flops = [], [0] * 3, [], 8 * d * n**4 * dense
        for letters, size in ((1, n * n), (1, 1)) if dense else ((d, n), (d, n)):
            counts = letters ** (half - half % 2), letters ** (half - 1 + half % 2), letters**half
            counts = counts if letters > 1 else counts[:2] + (0,)
            tall = min(size, MIN_GEMM_ROWS)
            rows = max(-(-tall // letters ** (half - 1)), BLOCK_BYTES // (16 * sum(counts) * size))
            rows = min(size, rows)
            rows = -(-size // -(-size // rows))  # the same block count, evenly filled
            sides.append((letters, rows))
            entries = [max(e, c * rows * size) for e, c in zip(entries, counts)]
            grams.append(sum(letters**k for k in range(1, max_moment + 1)))  # orders 1..m
            flops += 8 * size**3 * sum(letters**l for l in range(2, half + 1))
            flops += 8 * size**2 * grams[-1]
        # one side's samples at a time, but build_delta reads all 2d
        drawn = (1 + dense) * d * n * n, n * n, tri, tri
        buffers = dict(zip(_DRAWN, zip(drawn, (np.complex128, np.float64, np.intp, np.intp))))
        buffers.update((k, (e, np.complex128)) for k, e in zip(("even", "odd", "conj"), entries))
        if d > 1 and not dense:
            buffers["block"] = (d**max_moment, np.complex128)
        buffers.update(left=(grams[0], np.complex128), right=(grams[1], np.complex128))
        if dense:
            buffers.update(delta=(n**4, np.complex128), one=(1, np.complex128))
        nbytes = sum(e * np.dtype(dtype).itemsize for e, dtype in buffers.values())
        ops = _draw_ops(d, n) + flops
        plans.append(_Plan(dense, tuple(sides), buffers, nbytes, ops))
    return next((p for p in plans if p.nbytes <= TRACE_BYTE_BUDGET), plans[0])


def _draw_ops(d: int, n: int) -> int:
    """A trial's fixed calls (TRIAL_OPS), 2d streams (STREAM_OPS each) and
    2d n^2 normals (NORMAL_OPS each), in GEMM flops of like cost."""
    return TRIAL_OPS + 2 * d * (STREAM_OPS + NORMAL_OPS * n * n)


def _half_words(letters: np.ndarray, buffers: list[np.ndarray], start: int, stop: int):
    """Yield, for l = 1, 2, ..., rows start..stop-1 of the products of the
    words of lengths l - 1 and l over ``letters``, and the conjugated
    flattened rows of length l (None for one letter).  Length 0 is the
    identity's rows, written into buffer 0, and length 1 the letters' rows,
    read in place when they are contiguous (one letter, or one block) and
    copied into buffer 1 otherwise; length l >= 2 takes one GEMM per letter
    on the stacked rows of length l - 1 (rows R of P_(u j) are P_u[R] L_j),
    ordered by last letter, then by prefix, into buffer l % 2 over length
    l - 2."""
    even, odd, conj = buffers
    count, size, rows = len(letters), letters.shape[-1], stop - start

    def block(buffer: np.ndarray, products: int) -> np.ndarray:
        return buffer[: products * rows * size].reshape(products, rows, size)

    shorter, longer = block(even, 1), letters[:, start:stop]
    shorter.fill(0)
    shorter.reshape(-1)[start :: size + 1] = 1  # entries (i, start + i)
    if not longer.flags.c_contiguous:  # several letters in several blocks: stack their rows
        longer = block(odd, count)
        np.copyto(longer, letters[:, start:stop])
    for spare in itertools.cycle((even, odd)):
        conj_flat = None
        if count > 1:
            flat = longer.reshape(len(longer), -1)
            conj_flat = np.conjugate(flat, out=conj[: flat.size].reshape(flat.shape))
        yield shorter, longer, conj_flat
        shorter, longer = longer, block(spare, count * len(longer))
        for letter, product in zip(letters, longer.reshape(count, -1, size)):
            np.matmul(shorter.reshape(-1, size), letter, out=product)


def _traces(sides: Iterable[np.ndarray], work: _TrialWorkspace, powers: list[float]) -> list[float]:
    """tr(Delta^k)/N, k = 1..m, for Delta = c^(-1/2) sum_j L_j (x) conj(R_j) +
    gamma I over the c Hermitian letters of each side, which ``sides`` yields
    in turn (R's may overwrite L's), N the product of the letter sizes and
    ``powers`` gamma^0..gamma^m.  t_j = tr(Delta_0^j)/N sums
    tr(L_w) conj(tr(R_w)) over the words w = u v of length j, |u| = j//2.  As
    vec(P_v^T) = conj(vec(P_rev(v))), a side's tr(P_u P_v) over all pairs is
    A_a A_b^H with its columns permuted by the reversal alike on both sides
    (np.vdot(P_b, P_a) on a one-letter side), and tr conj(Q) = conj tr(Q), so
    t_j = vdot(G_R, G_L)/N.  Each Gram entry is a sum over the products'
    entries, so a side sums its Gram matrices over its row blocks; half
    length l gives orders 2l - 1 and 2l.  Then tr(Delta^k) = sum_j C(k, j)
    gamma^(k-j) c^(-j/2) t_j."""
    norm = 1
    for letters, side in zip(sides, work.sides):
        side.sums.fill(0)
        size = letters.shape[-1]
        norm *= size
        for start in range(0, size, side.rows):
            walk = _half_words(letters, work.buffers, start, min(start + side.rows, size))
            for k, (gram, block) in enumerate(zip(side.grams, side.blocks), 1):
                if k % 2:  # a new half length: orders 2l - 1 (lengths l - 1, l) and 2l (l, l)
                    shorter, longer, conj = next(walk)
                left = shorter if k % 2 else longer
                if conj is None:
                    gram += np.vdot(longer, left)
                else:
                    gram += np.matmul(left.reshape(len(left), -1), conj.T, out=block)
    left, right, c = *work.sides, len(letters)
    t = [1.0] + [float(np.vdot(r, g).real) / norm for g, r in zip(left.grams, right.grams)]
    return [
        sum(math.comb(k, j) * powers[k - j] * c ** (-j / 2) * t[j] for j in range(k + 1))
        for k in range(1, len(powers))
    ]


def trial_traces(
    config: SimConfig, spec: EnsembleSpec, trial: int, work: _TrialWorkspace | None = None
) -> list[float]:
    """Normalised traces tr(Delta^m)/n^2, m = 1..max_moment, for one trial,
    computed in the workspace ``work`` (a fresh one when None)."""
    work = work if work is not None else _TrialWorkspace(config)
    # a side is drawn as its walk starts; the dense letter's stack takes all 2d
    sides = (sample_matrices(config, spec, trial, work.draw, j) for j in (0, config.d))
    m = config.max_moment
    if work.dense:  # the shift and 1/sqrt(d) stay inside the one dense letter: gamma = 0
        operator = build_delta(next(sides), spec.lam, work.delta)
        return _traces((operator[None], work.one), work, [1.0] + [0.0] * m)
    return _traces(sides, work, _shift_powers(config.d, spec.lam, m))


def _values_bytes(config: SimConfig) -> int:
    """Bytes of the (trials, max_moment) float64 traces the workers share."""
    return 8 * config.trials * config.max_moment


def _block_workers(config: SimConfig) -> int:
    """Worker processes the trials can be split over: the usable cores, at most
    one per trial, and no more workspaces than fit together in what
    TRACE_BYTE_BUDGET leaves beside the shared traces."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    rest = TRACE_BYTE_BUDGET - _values_bytes(config)
    return min(cores, config.trials, rest // config.plan.nbytes)


def _single_threaded() -> bool:
    """Whether this process provably has one thread, so forking it is safe."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: assume threads
        return False


def _fill_block(
    values: np.ndarray, config: SimConfig, spec: EnsembleSpec, start: int, stop: int, parent=None
) -> None:
    """Write the traces of trials start..stop-1 into their rows of ``values``;
    a worker forked by ``parent`` leaves once it has died."""
    work = _TrialWorkspace(config)  # every trial of the block overwrites the same buffers
    for t in range(start, stop):
        if parent and os.getppid() != parent:
            os._exit(1)
        values[t] = trial_traces(config, spec, t, work)


def _trial_values(config: SimConfig, spec: EnsembleSpec) -> np.ndarray:
    """The (trials, max_moment) traces of every trial, in trial order: run
    here by a process with threads, else by a forked worker per block
    (:func:`_block_workers`), which leaves by ``os._exit``, skipping its
    parent's cleanup.  Every worker is reaped (killed first on an interrupt)
    before this returns or raises; one that fails or dies is a
    ChildProcessError."""
    # anonymous and MAP_SHARED (mmap's default): the workers' rows land here
    shared = mmap.mmap(-1, _values_bytes(config))
    values = np.frombuffer(shared, dtype=np.float64).reshape(config.trials, -1)
    if not _single_threaded():
        _fill_block(values, config, spec, 0, config.trials)
        return values
    workers, parent, children, failures = _block_workers(config), os.getpid(), {}, []
    bounds = [config.trials * i // workers for i in range(workers + 1)]
    # signals wait until each worker is in ``children`` and in its own try
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        for start, stop in zip(bounds, bounds[1:]):
            if (pid := os.fork()) == 0:
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    _fill_block(values, config, spec, start, stop, parent)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = start, stop
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid in list(children):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            start, stop = children.pop(pid)
            if code:
                how = f"exited with status {code}" if code > 0 else f"died of signal {-code}"
                failures.append(f"the worker for trials {start}..{stop - 1} {how}")
    except BaseException:
        for pid in children:  # stop and reap the run's workers
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:  # reaped as the interrupt came
                pass
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    if failures:
        raise ChildProcessError("; ".join(failures))
    return values


def exact_trace_predictions(d: int, lam: Rational, sigma: Rational, max_moment: int) -> list[float]:
    """Large-n limits of E tr(Delta^m): delta^m times the exact tensor-sum
    moments at n = d summands, on legs with the limiting law of a shifted GUE
    sample (free cumulants lam, sigma^2, 0, ...): the numerator of
    :func:`tensor_coefficients` at n = d over d^(m/2), exact until the final
    float.
    An order above the cap of :func:`check_order_cap` is refused before any
    table is built, and a prediction too large for a float is a ValueError
    naming its order."""
    check_order_cap(max_moment)
    kappas = (Fraction(lam), Fraction(sigma) ** 2) + (Fraction(0),) * (max_moment - 2)
    legs = moments_from_free_cumulants(CumulantSeq(kappas))
    inp = TensorCLTInput(legs, legs)
    out = []
    for m, coeffs in tensor_coefficients(inp, range(1, max_moment + 1)).items():
        numerator = sum(c * d**b for b, c in enumerate(coeffs))
        try:
            value = float(numerator / d ** (m // 2))
        except OverflowError:
            raise ValueError(f"order {m}: the prediction is too large for a float") from None
        out.append(value / math.sqrt(d) if m % 2 else value)
    return out


class ComparisonRow(NamedTuple):
    m: int
    mean: float
    std_error: float | None  # None when a single trial makes it undefined
    exact: float
    z: float | None  # None when std_error is None or 0


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are refused below
def compare_to_prediction(
    config: SimConfig, spec: EnsembleSpec, exact: Sequence[float]
) -> tuple[ComparisonRow, ...]:
    """Run the trials; per order m, the sample mean and standard error of
    E tr(Delta^m), and its z-score against exact[m - 1] (None without a
    positive standard error).  Too few exact values, or a spec.dim other
    than n, is refused before any sampling; a value that is not a finite
    float (a trace overflowed) is a ValueError naming its order."""
    if len(exact) < config.max_moment:
        raise ValueError("missing exact values for some orders")
    _check_dimension(config, spec)
    values = _trial_values(config, spec)
    rows = []
    for m, (col, ex) in enumerate(zip(values.T, exact), 1):  # col is values[:, m - 1]
        mean = float(np.mean(col))
        se = float(np.std(col, ddof=1) / math.sqrt(config.trials)) if config.trials >= 2 else None
        z = (mean - ex) / se if se else None
        if not all(math.isfinite(v) for v in (mean, se, ex, z) if v is not None):
            raise ValueError(f"order {m}: an estimate or its z-score is not a finite float")
        rows.append(ComparisonRow(m, mean, se, ex, z))
    return tuple(rows)


def check_spectrum_dump(config: SimConfig) -> None:
    """Refuse a spectrum dump above DENSE_DIM_LIMIT, or whose trials pass
    WORK_BUDGET with each one's dump added: the draws again, the operator,
    its eigenvalues."""
    d, n = config.d, config.n
    if n > DENSE_DIM_LIMIT:
        raise ResourceLimitError(
            f"spectrum dump forms the dense operator; dimension capped at {DENSE_DIM_LIMIT}"
        )
    dump = _draw_ops(d, n) + n**4 * (8 * d + DUMP_OPS[0] + DUMP_OPS[1] * n * n)
    _check_work(config.trials, config.plan.ops + dump)


def dump_spectrum(config: SimConfig, spec: EnsembleSpec, fh: TextIO) -> int:
    """Write every eigenvalue of every sampled Delta to the text file ``fh``,
    one per line, as :func:`check_spectrum_dump` allows; return the line count."""
    check_spectrum_dump(config)
    n = config.n
    draw = _SampleBuffer(config, 2 * config.d)
    out = np.empty((n * n, n * n), dtype=np.complex128)  # refilled by each trial
    for trial in range(config.trials):
        delta = build_delta(sample_matrices(config, spec, trial, draw), spec.lam, out)
        fh.writelines(f"{float(value)!r}\n" for value in np.linalg.eigvalsh(delta))
    return config.trials * n * n
