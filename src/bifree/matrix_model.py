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

The trials run in contiguous blocks on forked worker processes, one per
usable core, when the process is single-threaded (forking a process that
has threads, BLAS threads included, can deadlock the child); the workers
write their rows into one shared array (:func:`_trial_values`), which the
byte budget counts with one workspace.

Traces of powers come from one meet-in-the-middle kernel over two sides of
Hermitian letters (:func:`_traces`).  The letters are the samples W_1..W_d
against W_{d+1}..W_2d, with the mean shift a scalar binomial, or, when the
d^ceil(m/2) half-words outnumber the n^2 rows of the dense operator, that
operator (shift and 1/sqrt(d) inside) as one letter against a trivial 1 x 1
letter.  Each side walks its letters' rows in blocks: rows R of a product
need only rows R of the product one letter shorter, and each Gram entry
tr(P_u P_v) is a sum over the blocks, so a side's buffers hold one block of
rows of its products, sized to stay in a core's L2 cache.  Every buffer a
trial writes lives in one workspace allocated once per run from the
description of the sides (:func:`_sides`) that also gives its byte estimate;
a config above TRACE_BYTE_BUDGET is refused before any sampling.  The word
walk over all words and dense powers are the test oracles.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
from fractions import Fraction
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .cumulants import CumulantSeq, Rational, moments_from_free_cumulants
from .limits import Record, ResourceLimitError
from .tensor_clt import TensorCLTInput, check_order_cap, tensor_coefficients

DENSE_DIM_LIMIT = 32  # dump_spectrum diagonalises the dense n^2 x n^2 operator
MAX_DIMENSION = 512
TRACE_BYTE_BUDGET = 1 << 30  # a run's trial workspaces and result array, beyond the sample stacks
BLOCK_BYTES = 1 << 20  # a side's product buffers for one row block, within a 2 MiB L2
MIN_GEMM_ROWS = 256  # a block's last stacked GEMMs are this tall, or as tall as a letter is wide


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

    A config whose trial workspace (:func:`trace_working_bytes`) and result
    array (:func:`_values_bytes`) together pass TRACE_BYTE_BUDGET is refused;
    below it, the run forks no more workers than the rest of the budget holds
    workspaces."""

    __slots__ = _fields = ("d", "n", "trials", "seed", "max_moment")

    def __init__(self, d: int, n: int, trials: int, seed: int, max_moment: int = 4):
        self._set(d, n, trials, seed, max_moment)
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_moment < 1:
            raise ValueError("max_moment must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must lie in [0, 2^64)")  # one key word
        if self.n > MAX_DIMENSION:
            raise ResourceLimitError(
                f"matrix dimension {self.n} exceeds the cap {MAX_DIMENSION}"
            )
        if self.d > 1 << 15 or self.trials > 1 << 48:
            # matrix_rng's key fields: 2d matrix indices < 2^16, trials < 2^48
            raise ResourceLimitError(
                "d <= 2^15 and trials <= 2^48 keep every random stream distinct"
            )
        check_order_cap(self.max_moment)  # one letter keeps buffers of O(1) size in m
        need = trace_working_bytes(self.d, self.n, self.max_moment) + _values_bytes(self)
        if need > TRACE_BYTE_BUDGET:
            raise ResourceLimitError(
                f"a trial workspace and the results need {-(-need // 2**20)} MiB, rounded up; "
                f"the budget is {TRACE_BYTE_BUDGET // 2**20} MiB"
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


def _sampling_scratch(n: int) -> tuple[np.ndarray, ...]:
    """Buffers of one draw: the diagonal, the real and imaginary parts of the
    upper triangle and its complex values; then the flat positions of the
    upper triangle (row-major) and of its mirror image."""
    k = n * (n - 1) // 2
    rows, cols = np.triu_indices(n, 1)
    buffers = np.empty(n), np.empty(k), np.empty(k), np.empty(k, dtype=np.complex128)
    return *buffers, rows * n + cols, cols * n + rows


def _draw_hermitian(
    flat: np.ndarray, spec: EnsembleSpec, rng: np.random.Generator, scratch: tuple
) -> None:
    """Fill one row-major n x n sample ``flat``: real N(0, sigma^2/n) diagonal
    plus lam, complex upper triangle of total variance sigma^2/n mirrored by
    exact conjugation.  ``scratch`` comes from :func:`_sampling_scratch`."""
    n = math.isqrt(len(flat))
    diag, re, im, vals, upper, lower = scratch
    off_scale = spec.sigma / math.sqrt(2 * n)
    rng.standard_normal(out=diag)
    diag *= spec.sigma / math.sqrt(n)
    diag += spec.lam
    flat[:: n + 1] = diag
    rng.standard_normal(out=re)
    re *= off_scale
    rng.standard_normal(out=im)
    im *= off_scale
    vals.real, vals.imag = re, im  # re + 1j * im, with no complex temporaries
    flat[upper] = vals
    flat[lower] = np.conjugate(vals, out=vals)


class _SampleBuffer:
    """The (2d, n, n) sample stack and the sampling scratch of a trial's draws;
    each trial drawn into it overwrites both."""

    def __init__(self, d: int, n: int):
        self.samples = np.empty((2 * d, n, n), dtype=np.complex128)
        self.scratch = _sampling_scratch(n)


class _Side:
    """One side's buffers of the kernel for row blocks of ``rows`` rows: the
    three flat product buffers of :func:`_sides`; ``grams``, the Gram
    matrices of orders k = 1..m (letters^(k//2) x letters^ceil(k/2)) that sum
    the blocks', as views of one flat array; and ``blocks``, one block's Gram
    matrix of each order, as views of one buffer of the top order's size
    (None for one letter)."""

    def __init__(self, letters: int, size: int, rows: int, counts: tuple, max_moment: int):
        self.rows = rows
        self.buffers = [np.empty(count * rows * size, dtype=np.complex128) for count in counts]
        self.sums = np.empty(_gram_entries(letters, max_moment), dtype=np.complex128)
        block = np.empty(letters**max_moment if letters > 1 else 0, dtype=np.complex128)
        self.grams, self.blocks, at = [], [], 0
        for k in range(1, max_moment + 1):
            shape = letters ** (k // 2), letters ** ((k + 1) // 2)
            entries = shape[0] * shape[1]
            self.grams.append(self.sums[at : at + entries].reshape(shape))
            self.blocks.append(block[:entries].reshape(shape) if letters > 1 else None)
            at += entries


def _gram_entries(letters: int, max_moment: int) -> int:
    """Entries of the Gram matrices of orders 1..m: letters^k at order k."""
    if letters == 1:
        return max_moment
    return (letters ** (max_moment + 1) - letters) // (letters - 1)


class _TrialWorkspace:
    """Every buffer a trial writes, allocated once per run and overwritten by
    each trial: the sample buffer and one :class:`_Side` per side of
    :func:`_sides`; in the dense case also the buffers of
    :func:`build_delta` and the trivial letter."""

    def __init__(self, config: SimConfig):
        d, n = config.d, config.n
        self.draw = _SampleBuffer(d, n)
        self.dense, sides = _sides(d, n, config.max_moment)
        self.sides = [_Side(*side, config.max_moment) for side in sides]
        if self.dense:
            self.delta = _delta_buffers(n)
            self.one = np.ones((1, 1, 1), dtype=np.complex128)


def sample_matrices(
    config: SimConfig, spec: EnsembleSpec, trial: int, out: _SampleBuffer | None = None
) -> np.ndarray:
    """The 2d independent samples of one trial, drawn into the sample buffer
    ``out`` (a fresh one when None) and returned as its (2d, n, n) stack; the
    next draw into ``out`` overwrites it.  An ensemble whose dimension is not
    the config's n is a ValueError."""
    _check_dimension(config, spec)
    buf = out if out is not None else _SampleBuffer(config.d, config.n)
    for j, flat in enumerate(buf.samples.reshape(2 * config.d, -1)):
        _draw_hermitian(flat, spec, matrix_rng(config.seed, trial, j), buf.scratch)
    return buf.samples


def build_delta(matrices: Sequence[np.ndarray], lam: float, out: tuple | None = None) -> np.ndarray:
    """The n^2 x n^2 operator (1/sqrt(d)) sum_j (W_j (x) conj(W_{j+d}) -
    lam^2 I), with the values of summing np.kron products and subtracting
    lam^2 * np.eye summand by summand.  Hermitian whenever the inputs are.

    The summands are added in slabs of operator rows, n per row i of W_j:
    those of W_j (x) conj(V) are W_j[i, :] (x) conj(V), so no n^2 x n^2
    scratch is needed.  ``out`` is (operator, a slab, an n x n letter), fresh
    ones (:func:`_delta_buffers`) when None; the operator is written into its
    first buffer and the next call with the same ``out`` overwrites it."""
    if len(matrices) % 2:
        raise ValueError("need an even number of matrices (2d of them)")
    d, n = len(matrices) // 2, matrices[0].shape[0]
    if any(w.shape != (n, n) for w in matrices):
        raise ValueError("all matrices must share the same square shape")
    total, slab, letter = out if out is not None else _delta_buffers(n)
    step = len(slab) // n  # rows of W_j per slab
    total.fill(0)
    for j in range(d):
        np.conjugate(matrices[j + d], out=letter)
        for i in range(0, n, step):
            w = matrices[j][i : i + step]
            kron = slab[: len(w) * n]
            blocks = kron.reshape(-1, n, n, n)  # blocks[a, k, b, l] = W_j[i + a, b] conj(V)[k, l]
            np.multiply(w[:, None, :, None], letter[None, :, None, :], out=blocks)
            rows = total[i * n : i * n + len(kron)]
            rows += kron
            rows.reshape(-1)[i * n :: n * n + 1] -= lam * lam  # the slab's diagonal
    total /= math.sqrt(d)
    return total


def _delta_buffers(n: int) -> tuple[np.ndarray, ...]:
    """The buffers :func:`build_delta` writes: the n^2 x n^2 operator, a slab
    of its rows for :func:`_slab_rows` rows of W_j, and an n x n letter."""
    shapes = (n * n, n * n), (_slab_rows(n) * n, n * n), (n, n)
    return tuple(np.empty(shape, dtype=np.complex128) for shape in shapes)


def _slab_rows(n: int) -> int:
    """Rows of W_j per slab of :func:`build_delta`, n^3 entries each: as many
    as fit in a quarter of BLOCK_BYTES, and at least one.  Slabs of 256 KiB
    built the operator fastest at n = 16 and 20 on a core with a 2 MiB L2;
    1 MiB slabs were 12 % and 6 % slower."""
    return max(1, min(n, BLOCK_BYTES // (64 * n**3)))


def _shift_powers(d: int, lam: float, max_moment: int) -> list[float]:
    """gamma^k, k = 0..max_moment, for the shift gamma = -(1/sqrt(d)) times
    the sum of d terms lam^2; a power that overflows is inf, not an error."""
    powers = [1.0, -sum(lam * lam for _ in range(d)) / math.sqrt(d)]
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


def _sides(d: int, n: int, max_moment: int) -> tuple[bool, list[tuple]]:
    """Whether the operator is dense, and (letters, letter size, rows per
    block, products per buffer) per side of the kernel.  The letters are the
    samples W_1..W_d and W_{d+1}..W_2d or, when the d^ceil(m/2) half-words
    outnumber the n^2 rows of the dense operator (exponents past n^2's bit
    length agree), that operator as one letter and a trivial 1 x 1 letter.

    A side walks its letters' rows in blocks, and each buffer holds the rows
    of one block of some products: buffer 0 those of even length (length 0
    is the block's rows of the identity), buffer 1 those of odd length, and
    the conjugated block those of length l while orders 2l - 1 and 2l are
    formed; a one-letter side's products are Hermitian powers and need none.
    The rows per block are the most whose buffers fit in BLOCK_BYTES, but
    enough that the last extension's GEMMs, on the stacked rows of the
    letters^(ceil(m/2) - 1) products one letter shorter, are MIN_GEMM_ROWS
    tall, or as tall as the letter size when that is less: they do most of
    the flops, and a short GEMM reads its letter, which outgrows the cache at
    large sizes, for few rows.  The rows are at most the letter size and are
    spread evenly over the blocks they take, so only the last block may be
    shorter."""
    half = (max_moment + 1) // 2
    dense = d > 1 and d ** min(half, (n * n).bit_length()) > n * n
    sides = []
    for letters, size in ((1, n * n), (1, 1)) if dense else ((d, n), (d, n)):
        counts = letters ** (half - half % 2), letters ** (half - 1 + half % 2), letters**half
        counts = counts if letters > 1 else counts[:2] + (0,)
        tall = min(size, MIN_GEMM_ROWS)
        rows = max(-(-tall // letters ** (half - 1)), BLOCK_BYTES // (16 * sum(counts) * size))
        rows = min(size, rows)
        rows = -(-size // -(-size // rows))  # the same block count, evenly filled
        sides.append((letters, size, rows, counts))
    return dense, sides


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


def _traces(sides: Sequence[np.ndarray], work: _TrialWorkspace, powers: list[float]) -> list[float]:
    """tr(Delta^k)/N, k = 1..m, for Delta = c^(-1/2) sum_j L_j (x) conj(R_j) +
    gamma I over the c Hermitian letters of each side, N the product of the
    letter sizes and ``powers`` gamma^0..gamma^m.  t_j = tr(Delta_0^j)/N sums
    tr(L_w) conj(tr(R_w)) over the words w = u v of length j, |u| = j//2.  As
    vec(P_v^T) = conj(vec(P_rev(v))), a side's tr(P_u P_v) over all pairs is
    A_a A_b^H with its columns permuted by the reversal alike on both sides
    (np.vdot(P_b, P_a) on a one-letter side), and tr conj(Q) = conj tr(Q), so
    t_j = vdot(G_R, G_L)/N.  Each Gram entry is a sum over the products'
    entries, so a side sums its Gram matrices over its row blocks; half
    length l gives orders 2l - 1 and 2l.  Then tr(Delta^k) = sum_j C(k, j)
    gamma^(k-j) c^(-j/2) t_j."""
    c, norm = len(sides[0]), sides[0].shape[-1] * sides[1].shape[-1]
    for letters, side in zip(sides, work.sides):
        side.sums.fill(0)
        size = letters.shape[-1]
        for start in range(0, size, side.rows):
            walk = _half_words(letters, side.buffers, start, min(start + side.rows, size))
            for k, (gram, block) in enumerate(zip(side.grams, side.blocks), 1):
                if k % 2:  # a new half length: orders 2l - 1 (lengths l - 1, l) and 2l (l, l)
                    shorter, longer, conj = next(walk)
                left = shorter if k % 2 else longer
                if conj is None:
                    gram += np.vdot(longer, left)
                else:
                    gram += np.matmul(left.reshape(len(left), -1), conj.T, out=block)
    left, right = work.sides
    t = [1.0] + [float(np.vdot(r, g).real) / norm for g, r in zip(left.grams, right.grams)]
    return [
        sum(math.comb(k, j) * powers[k - j] * c ** (-j / 2) * t[j] for j in range(k + 1))
        for k in range(1, len(powers))
    ]


def trace_working_bytes(d: int, n: int, max_moment: int) -> int:
    """Bytes one worker's trial workspace holds beyond the sample stack: the
    sampling scratch with the triangle positions (about 1.5 n x n matrices),
    per side the buffers of :func:`_sides` for one block of rows, the Gram
    sums of every order and one block's top-order Gram matrix, and in the
    dense case the operator, its slab and an n x n letter.  Each
    worker process holds one, and TRACE_BYTE_BUDGET bounds them together
    (:func:`_block_workers`)."""
    dense, sides = _sides(d, n, max_moment)
    values = 3 * n * n // 2 + ((n + _slab_rows(n)) * n**3 + n * n if dense else 0)
    for letters, size, rows, counts in sides:
        values += sum(counts) * rows * size + _gram_entries(letters, max_moment)
        values += letters**max_moment if letters > 1 else 0
    return 16 * values  # complex128


def trial_traces(
    config: SimConfig, spec: EnsembleSpec, trial: int, work: _TrialWorkspace | None = None
) -> list[float]:
    """Normalised traces tr(Delta^m)/n^2, m = 1..max_moment, for one trial,
    computed in the workspace ``work`` (a fresh one when None)."""
    work = work if work is not None else _TrialWorkspace(config)
    matrices = sample_matrices(config, spec, trial, work.draw)
    m = config.max_moment
    if work.dense:  # the shift and 1/sqrt(d) stay inside the one dense letter: gamma = 0
        operator = build_delta(matrices, spec.lam, work.delta)
        return _traces((operator[None], work.one), work, [1.0] + [0.0] * m)
    sides = matrices[: config.d], matrices[config.d :]
    return _traces(sides, work, _shift_powers(config.d, spec.lam, m))


class MomentEstimate(NamedTuple):
    m: int
    mean: float
    std_error: float | None  # None when a single trial makes it undefined


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
    need = trace_working_bytes(config.d, config.n, config.max_moment)
    return min(cores, config.trials, (TRACE_BYTE_BUDGET - _values_bytes(config)) // need)


def _single_threaded() -> bool:
    """Whether this process provably has one thread, so forking it is safe."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: assume threads
        return False


def _fill_block(
    values: np.ndarray, config: SimConfig, spec: EnsembleSpec, start: int, stop: int
) -> None:
    """Write the traces of trials start..stop-1 into their rows of ``values``."""
    work = _TrialWorkspace(config)  # every trial of the block overwrites the same buffers
    for t in range(start, stop):
        values[t] = trial_traces(config, spec, t, work)


def _trial_values(config: SimConfig, spec: EnsembleSpec) -> np.ndarray:
    """The (trials, max_moment) traces of every trial, in trial order.

    The trials are split into contiguous blocks over :func:`_block_workers`
    processes, or one when this process has threads.  Block 0 runs here; each
    other block runs in a forked child that writes its rows into one shared
    anonymous mapping and leaves only through ``os._exit``, so it never runs
    its parent's cleanup.  Every child is reaped before this returns or
    raises; a child that fails or dies is a ChildProcessError."""
    workers = _block_workers(config) if _single_threaded() else 1
    bounds = [config.trials * i // workers for i in range(workers + 1)]
    # anonymous and MAP_SHARED (mmap's default): the workers' rows land here
    shared = mmap.mmap(-1, _values_bytes(config))
    values = np.frombuffer(shared, dtype=np.float64).reshape(config.trials, -1)
    children = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _fill_block(values, config, spec, start, stop)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, start, stop))
        _fill_block(values, config, spec, bounds[0], bounds[1])
    except BaseException:
        for pid, _, _ in children:  # the run is abandoned: stop its workers
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failures = []
        for pid, start, stop in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                how = f"exited with status {code}" if code > 0 else f"died of signal {-code}"
                failures.append(f"the worker for trials {start}..{stop - 1} {how}")
    if failures:
        raise ChildProcessError("; ".join(failures))
    return values


@np.errstate(over="ignore", invalid="ignore")  # compare_to_prediction refuses non-finite values
def empirical_moments(config: SimConfig, spec: EnsembleSpec) -> list[MomentEstimate]:
    """Sample mean and standard error of E tr(Delta^m) over the trials.

    Deterministic given (seed, trials) and the BLAS thread count (see the
    module docstring): trials use disjoint counter-based streams, and their
    traces are reduced in trial order whichever worker computed them.  A
    spec.dim other than n is refused before any worker starts.
    """
    _check_dimension(config, spec)
    values = _trial_values(config, spec)
    out = []
    for m in range(1, config.max_moment + 1):
        col = values[:, m - 1]
        mean = float(np.mean(col))
        if config.trials >= 2:
            se = float(np.std(col, ddof=1) / math.sqrt(config.trials))
        else:
            se = None
        out.append(MomentEstimate(m=m, mean=mean, std_error=se))
    return out


def shifted_semicircle_input(lam: Rational, sigma: Rational, order: int) -> TensorCLTInput:
    """Tensor CLT input for legs distributed as the limiting law of a shifted
    GUE sample: free cumulants (lam, sigma^2, 0, 0, ...)."""
    order = max(order, 2)
    kappas = (Fraction(lam), Fraction(sigma) ** 2) + (Fraction(0),) * (order - 2)
    ms = moments_from_free_cumulants(CumulantSeq(kappas))
    return TensorCLTInput(ms, ms)


def exact_trace_predictions(d: int, lam: Rational, sigma: Rational, max_moment: int) -> list[float]:
    """Large-n limits of E tr(Delta^m): delta^m times the exact tensor-sum
    moments at n = d summands: the numerator of :func:`tensor_coefficients`
    at n = d over d^(m/2), exact until the final float.

    The legs' free cumulants vanish beyond order 2, so the transfer matrix
    opens only singletons and pairs; the two legs are equal, so it keeps one
    state per swap orbit, and its one run for m = 1..10 takes about 0.01 s
    (2-core Xeon VM).
    An order above the cap of :func:`check_order_cap` is refused before any
    table is built, and a prediction too large for a float is a ValueError
    naming its order."""
    check_order_cap(max_moment)
    inp = shifted_semicircle_input(lam, sigma, max_moment)
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
    std_error: float | None
    exact: float
    z: float | None  # None when std_error is None or 0


class ComparisonResult(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    z_threshold: float

    @property
    def passed(self) -> bool:
        return all(r.z is not None and abs(r.z) <= self.z_threshold for r in self.rows)


def compare_to_prediction(
    estimates: Sequence[MomentEstimate],
    exact: Sequence[float],
    z_threshold: float = 3.0,
) -> ComparisonResult:
    """z-scores (mean - exact)/std_error per order, with a pass/fail verdict
    at the configured threshold.  Without a positive standard error z is
    None and the row does not pass.  A value that is not a finite float
    (a trace overflowed) is a ValueError naming its order."""
    if len(exact) < len(estimates):
        raise ValueError("missing exact values for some orders")
    rows = []
    for est, ex in zip(estimates, exact):
        z = (est.mean - ex) / est.std_error if est.std_error else None
        if not all(math.isfinite(v) for v in (est.mean, est.std_error, ex, z) if v is not None):
            raise ValueError(f"order {est.m}: an estimate or its z-score is not a finite float")
        rows.append(ComparisonRow(est.m, est.mean, est.std_error, ex, z))
    return ComparisonResult(rows=tuple(rows), z_threshold=z_threshold)


def check_spectrum_dump(n: int) -> None:
    """Refuse a spectrum dump above DENSE_DIM_LIMIT = 32: it diagonalises the
    dense n^2 x n^2 operator."""
    if n > DENSE_DIM_LIMIT:
        raise ResourceLimitError(
            f"spectrum dump forms the dense operator; dimension capped at {DENSE_DIM_LIMIT}"
        )


def dump_spectrum(config: SimConfig, spec: EnsembleSpec, fh: TextIO) -> int:
    """Write every eigenvalue of every sampled Delta to the text file ``fh``,
    one per line.  Requires n <= DENSE_DIM_LIMIT; returns the number of lines."""
    check_spectrum_dump(config.n)
    n = config.n
    draw = _SampleBuffer(config.d, n)
    out = _delta_buffers(n)  # refilled by each trial
    count = 0
    for trial in range(config.trials):
        delta = build_delta(sample_matrices(config, spec, trial, draw), spec.lam, out)
        for value in np.linalg.eigvalsh(delta):
            fh.write(f"{float(value)!r}\n")
            count += 1
    return count
