"""Monte Carlo realisation of the tensor-sum operator with GUE matrices.

Independent shifted GUE samples W_1, ..., W_2d are combined into

    Delta = (1/sqrt(d)) * sum_j ( W_j (x) conj(W_{j+d}) - mean_j mean_{j+d} I ),

whose spectral moments converge (in expectation, as the dimension grows) to
delta^m times the exact moments computed by :mod:`bifree.tensor_clt` for
shifted-semicircle legs.  The module samples, estimates E tr(Delta^m) with
standard errors, checks the per-sample transpose-trace identity, and scores
the estimates against the exact predictions as z-values.

Reproducibility contract: every matrix entry is drawn from a counter-based
Philox stream keyed by (seed, trial, matrix index), with a fixed entry order
(diagonal, then upper-triangle real parts, then imaginary parts), so results
depend only on the seed and trial count, never on scheduling.

Traces of powers come from a meet-in-the-middle Gram kernel over the d
letters of Delta_0 = sum_j W_j (x) conj(W_{j+d}).  The mean shift is the
scalar gamma = -(1/sqrt(d)) sum_j mean_j mean_{j+d}, with Delta =
d^(-1/2) Delta_0 + gamma I, so tr(Delta^k) = sum_j C(k, j) gamma^(k-j)
d^(-j/2) tr(Delta_0^j).  Half-word products (length at most ceil(m/2)) take
one GEMM per letter; order k takes one Gram matrix A_a A_b^H per side and
one np.vdot.  The dense n^2 x n^2 operator is powered instead only when it
is the smaller object: when the d^ceil(m/2) half-words outnumber its n^2
rows.  Every buffer a trial writes (the sample stack, the sampling scratch,
the half-word products and conjugated blocks, or the dense operator and its
powers) lives in one workspace that is allocated once per run, sized from
(d, n, max_moment), and overwritten by each trial.  Its size is estimated
from the same triple, and a config above TRACE_BYTE_BUDGET is refused before
any sampling.  The word walk over all words and dense powers are the test
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TextIO

import numpy as np

from .cumulants import CumulantSeq, Rational, moments_from_free_cumulants
from .limits import ResourceLimitError
from .tensor_clt import SqrtQuotient, TensorCLTInput, check_order_cap, exact_moment_Sn

DENSE_DIM_LIMIT = 32  # dump_spectrum diagonalises the dense n^2 x n^2 operator
MAX_DIMENSION = 512
TRACE_BYTE_BUDGET = 1 << 30  # a run's trial workspace, beyond the sample stack


@dataclass(frozen=True)
class EnsembleSpec:
    """Shifted GUE ensemble: sample = GUE(sigma)/sqrt(n)-normalised + lam I.

    The limiting spectral distribution is the semicircle of variance sigma^2
    shifted by lam, so exact tensor-sum predictions are available.
    """

    dim: int
    sigma: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: d tensor summands of n x n matrices."""

    d: int
    n: int
    trials: int
    seed: int
    max_moment: int = 4

    def __post_init__(self):
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
        need = trace_working_bytes(self.d, self.n, self.max_moment)
        if need > TRACE_BYTE_BUDGET:
            raise ResourceLimitError(
                f"the trial workspace needs about {need / 2**20:.0f} MiB; "
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
    """Fill one row-major sample ``flat``: real N(0, sigma^2/n) diagonal plus lam,
    complex upper triangle of total variance sigma^2/n mirrored by exact
    conjugation.  ``scratch`` comes from :func:`_sampling_scratch`."""
    n = spec.dim
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
    np.add(re, np.multiply(1j, im, out=vals), out=vals)  # re + 1j * im
    flat[upper] = vals
    flat[lower] = np.conjugate(vals, out=vals)


def sample_hermitian(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One Hermitian sample; see :func:`_draw_hermitian` for the entries."""
    flat = np.empty(spec.dim * spec.dim, dtype=np.complex128)
    _draw_hermitian(flat, spec, rng, _sampling_scratch(spec.dim))
    return flat.reshape(spec.dim, spec.dim)


class _SampleBuffer:
    """The (2d, n, n) sample stack and the sampling scratch of a trial's draws;
    each trial drawn into it overwrites both."""

    def __init__(self, d: int, n: int):
        self.samples = np.empty((2 * d, n, n), dtype=np.complex128)
        self.scratch = _sampling_scratch(n)


class _TrialWorkspace:
    """Every buffer a trial writes, sized from (d, n, max_moment) and allocated
    once per run; each trial overwrites them.  The sample buffer; on the Gram
    path the identity and, per side, the half-word products of lengths 2..h
    (h = ceil(m/2)) and one conjugated block of d^h rows, whose leading d^b
    rows serve order 2b - 1; on the dense path the operator, two power
    buffers and one conjugated letter."""

    def __init__(self, config: SimConfig):
        d, n, m = config.d, config.n, config.max_moment
        complex_ = np.complex128
        self.draw = _SampleBuffer(d, n)
        self.dense = _use_dense(d, n, m)
        if self.dense:
            self.operator = np.empty((n * n, n * n), dtype=complex_)
            self.powers = np.empty((2, n * n, n * n), dtype=complex_)
            self.letter = np.empty((n, n), dtype=complex_)
        else:
            half = (m + 1) // 2
            self.identity = np.eye(n, dtype=complex_)[None]
            self.products = [
                [np.empty((d**length, n, n), dtype=complex_) for length in range(2, half + 1)]
                for _side in range(2)
            ]
            self.conj = np.empty((2, d**half, n * n), dtype=complex_)


def sample_matrices(
    config: SimConfig, spec: EnsembleSpec, trial: int, out: _SampleBuffer | None = None
) -> np.ndarray:
    """The 2d independent samples of one trial, drawn into the sample buffer
    ``out`` (a fresh one when None) and returned as its (2d, n, n) stack; the
    next draw into ``out`` overwrites it."""
    buf = out if out is not None else _SampleBuffer(config.d, config.n)
    for j, flat in enumerate(buf.samples.reshape(2 * config.d, -1)):
        _draw_hermitian(flat, spec, matrix_rng(config.seed, trial, j), buf.scratch)
    return buf.samples


def build_delta(
    matrices: Sequence[np.ndarray], means: Sequence[float], out: tuple | None = None
) -> np.ndarray:
    """The n^2 x n^2 operator (1/sqrt(d)) sum_j (W_j (x) conj(W_{j+d}) -
    means[j] means[j+d] I).  Hermitian whenever the inputs are.

    ``out`` is (operator, Kronecker scratch of its shape, n x n letter), fresh
    ones when None; the operator is written into its first buffer and the
    next call with the same ``out`` overwrites it."""
    if len(matrices) % 2:
        raise ValueError("need an even number of matrices (2d of them)")
    n = matrices[0].shape[0]
    if any(w.shape != (n, n) for w in matrices):
        raise ValueError("all matrices must share the same square shape")
    if len(means) != len(matrices):
        raise ValueError("need one mean per matrix")
    if out is None:
        total = np.empty((n * n, n * n), dtype=np.complex128)
        out = total, np.empty_like(total), np.empty((n, n), dtype=np.complex128)
    return _fill_delta(*out, matrices, means)


def _fill_delta(total, kron, letter, matrices, means) -> np.ndarray:
    """Write :func:`build_delta`'s operator into ``total`` with the arithmetic of
    summing np.kron products and subtracting shift * np.eye, using ``kron``
    (total's shape) and ``letter`` (n x n) as scratch; returns ``total``."""
    d, n = len(matrices) // 2, matrices[0].shape[0]
    blocks = kron.reshape(n, n, n, n)  # blocks[i, k, j, l] = W[i, j] conj(V)[k, l]
    diagonal = total.reshape(-1)[:: n * n + 1]
    total.fill(0)
    for j in range(d):
        np.conjugate(matrices[j + d], out=letter)
        np.multiply(matrices[j][:, None, :, None], letter[None, :, None, :], out=blocks)
        total += kron
        shift = means[j] * means[j + d]
        if shift:  # off the diagonal, subtracting shift * eye subtracts shift * 0.0
            shifted = diagonal - shift
            np.subtract(total.real, shift * 0.0, out=total.real)
            diagonal[...] = shifted
    total /= math.sqrt(d)
    return total


def _traces_dense(matrices, means, max_moment, work: _TrialWorkspace) -> list[float]:
    delta = _fill_delta(work.operator, work.powers[0], work.letter, matrices, means)
    n2 = len(delta)
    power, spare = work.powers
    power.fill(0)
    power.reshape(-1)[:: n2 + 1] = 1  # np.eye
    out = []
    for _ in range(max_moment):
        np.matmul(power, delta, out=spare)
        power, spare = spare, power
        out.append(float(np.trace(power).real) / n2)
    return out


def _shift_powers(means: Sequence[float], max_moment: int) -> list[float]:
    """gamma^k, k = 0..max_moment, for the shift gamma = -(1/sqrt(d)) sum_j
    means[j] means[j+d]; a power that overflows is inf, not an error."""
    d = len(means) // 2
    powers = [1.0, -sum(means[j] * means[j + d] for j in range(d)) / math.sqrt(d)]
    for _ in range(max_moment - 1):
        powers.append(powers[-1] * powers[1])
    return powers


def check_mean_shift(config: SimConfig, spec: EnsembleSpec) -> None:
    """Refuse, before any sampling, analytic means whose shift gamma^k (a term
    of every tr(Delta^k)) overflows a float, naming the first such order."""
    for k, power in enumerate(_shift_powers([spec.lam] * (2 * config.d), config.max_moment)):
        if not math.isfinite(power):
            raise ValueError(f"order {k}: the mean shift's power gamma^{k} overflows a float")


def _word_products(letters: np.ndarray, identity: np.ndarray, blocks) -> list[np.ndarray]:
    """products[l] holds letters[w_1] @ ... @ letters[w_l] for every word w of
    length l, ordered by last letter, then by prefix: one GEMM per letter on
    the stacked prefixes.  products[0] is ``identity``, products[1] is
    ``letters``, and products[l] for l >= 2 is written into blocks[l - 2]."""
    d, n = letters.shape[:2]
    products = [identity, letters]
    for block in blocks:
        out = block.reshape(d, -1, n, n)
        for j in range(d):
            np.matmul(products[-1].reshape(-1, n), letters[j], out=out[j].reshape(-1, n))
        products.append(block)
    return products


def _traces_gram(
    matrices: np.ndarray, means: Sequence[float], max_moment: int, work: _TrialWorkspace
) -> list[float]:
    """tr(Delta^k)/n^2 from t_j = tr(Delta_0^j)/n^2.  A word of length k splits
    as u v, |u| = k//2.  For Hermitian letters vec(P_v^T) = conj(vec(P_rev(v))),
    so tr(P_u P_v) over all pairs is A_a A_b^H with its columns permuted by the
    reversal alike on both sides.  The right side stays unconjugated
    (tr conj(Q) = conj tr(Q)), so t_k = vdot(G_R, G_L)/n^2."""
    d, n = len(matrices) // 2, matrices.shape[-1]
    sides = [
        _word_products(letters, work.identity, blocks)
        for letters, blocks in zip((matrices[:d], matrices[d:]), work.products)
    ]
    t = [1.0]
    for k in range(1, max_moment + 1):
        a, b = k // 2, k - k // 2
        if k % 2:  # a new right half length: conjugate its flattened products once
            conj = [
                np.conjugate(p[b].reshape(len(p[b]), -1), out=block[: len(p[b])])
                for p, block in zip(sides, work.conj)
            ]
        gl, gr = (p[a].reshape(len(p[a]), -1) @ c.T for p, c in zip(sides, conj))
        t.append(float(np.vdot(gr, gl).real) / (n * n))
    powers = _shift_powers(means, max_moment)
    return [
        sum(math.comb(k, j) * powers[k - j] * d ** (-j / 2) * t[j] for j in range(k + 1))
        for k in range(1, max_moment + 1)
    ]


def _use_dense(d: int, n: int, max_moment: int) -> bool:
    """True when the d^ceil(m/2) half-words outnumber the n^2 rows of the dense
    operator, the cheaper kernel then (exponents past n^2's bit length agree)."""
    half = min((max_moment + 1) // 2, (n * n).bit_length())
    return d > 1 and d**half > n * n


def trace_working_bytes(d: int, n: int, max_moment: int) -> int:
    """Bytes a run's trial workspace holds beyond the sample stack (allocated
    once per run), plus the two top-order Gram matrices a trial forms.  The
    sampling scratch with its triangle positions is about 1.5 n x n matrices.
    Gram path: the identity and, per side, the half-word products of lengths
    2..h and one conjugated block of d^h rows.  Dense: the conjugated letter,
    the operator and two power buffers, each n^2 x n^2."""
    half = (max_moment + 1) // 2
    values = 3 * n * n // 2  # the sampling scratch with the triangle positions
    if _use_dense(d, n, max_moment):
        values += n * n + 3 * n**4
    else:
        # sum of d^l over l = 2..half in closed form (d^half <= n^2 here)
        products = half - 1 if d == 1 else (d ** (half + 1) - d * d) // (d - 1)
        values += (1 + 2 * (products + d**half)) * n * n + 2 * d ** (max_moment // 2) * d**half
    return 16 * values  # complex128


def trial_traces(
    config: SimConfig,
    spec: EnsembleSpec,
    trial: int,
    empirical_means: bool = False,
    work: _TrialWorkspace | None = None,
) -> list[float]:
    """Normalised traces tr(Delta^m)/n^2, m = 1..max_moment, for one trial,
    computed in the workspace ``work`` (a fresh one when None).

    By default the subtracted means are the analytic values lam (the operator
    is defined with true expectations).  With ``empirical_means`` the sampled
    normalised traces are subtracted instead; that estimator is biased,
    because the fluctuation of tr(W) correlates with the tensor term.
    """
    work = work if work is not None else _TrialWorkspace(config)
    matrices = sample_matrices(config, spec, trial, work.draw)
    if empirical_means:
        means = [float(np.trace(w).real) / config.n for w in matrices]
    else:
        means = [spec.lam] * (2 * config.d)
    if work.dense:
        return _traces_dense(matrices, means, config.max_moment, work)
    return _traces_gram(matrices, means, config.max_moment, work)


@dataclass(frozen=True)
class MomentEstimate:
    m: int
    mean: float
    std_error: float | None  # None when a single trial makes it undefined
    scored: bool = True  # False when the mean is exact by construction


@np.errstate(over="ignore", invalid="ignore")  # compare_to_prediction refuses non-finite values
def empirical_moments(
    config: SimConfig, spec: EnsembleSpec, empirical_means: bool = False
) -> list[MomentEstimate]:
    """Sample mean and standard error of E tr(Delta^m) over the trials.

    Deterministic given (seed, trials): trials use disjoint counter-based
    streams and are reduced in a fixed order.  ``empirical_means`` switches
    the subtracted means to per-sample traces; see :func:`trial_traces` for
    the bias warning.  With them tr(Delta) vanishes identically, so the
    m = 1 estimate is exactly 0.0, has no standard error and is not scored.
    """
    work = _TrialWorkspace(config)  # every trial overwrites the same buffers
    values = np.array(
        [trial_traces(config, spec, t, empirical_means, work) for t in range(config.trials)]
    )  # shape (trials, max_moment)
    out = []
    for m in range(1, config.max_moment + 1):
        if empirical_means and m == 1:
            out.append(MomentEstimate(m=1, mean=0.0, std_error=None, scored=False))
            continue
        col = values[:, m - 1]
        mean = float(np.mean(col))
        if config.trials >= 2:
            se = float(np.std(col, ddof=1) / math.sqrt(config.trials))
        else:
            se = None
        out.append(MomentEstimate(m=m, mean=mean, std_error=se))
    return out


def transpose_trace_check(samples: Sequence[np.ndarray], word: Sequence[int]) -> float:
    """Relative deviation between tr(X_{w_k} ... X_{w_1}) and
    tr(conj(X_{w_1}) ... conj(X_{w_k})); exactly zero in exact arithmetic for
    Hermitian samples, so only float roundoff remains."""
    if not word:
        raise ValueError("word must be non-empty")
    n = samples[0].shape[0]
    reversed_prod = np.eye(n, dtype=np.complex128)
    for idx in reversed(word):
        reversed_prod = reversed_prod @ samples[idx]
    conj_prod = np.eye(n, dtype=np.complex128)
    for idx in word:
        conj_prod = conj_prod @ samples[idx].conj()
    t1 = np.trace(reversed_prod) / n
    t2 = np.trace(conj_prod) / n
    return abs(t1 - t2) / max(1.0, abs(t1), abs(t2))


def shifted_semicircle_input(lam: Rational, sigma: Rational, order: int) -> TensorCLTInput:
    """Tensor CLT input for legs distributed as the limiting law of a shifted
    GUE sample: free cumulants (lam, sigma^2, 0, 0, ...)."""
    order = max(order, 2)
    kappas = (Fraction(lam), Fraction(sigma) ** 2) + (Fraction(0),) * (order - 2)
    ms = moments_from_free_cumulants(CumulantSeq(kappas))
    return TensorCLTInput.from_legs(ms, ms)


def exact_trace_predictions(d: int, lam: Rational, sigma: Rational, max_moment: int) -> list[float]:
    """Large-n limits of E tr(Delta^m): delta^m times the exact tensor-sum
    moments at n = d summands.  Exact rationals until the final float.

    The legs' free cumulants vanish beyond order 2, so the transfer matrix
    behind :func:`exact_moment_Sn` opens only singletons and pairs, and
    m = 1..10 take about 0.05 s.
    An order above the cap of :func:`check_order_cap` is refused before any
    table is built."""
    check_order_cap(max_moment)
    inp = shifted_semicircle_input(lam, sigma, max_moment)
    out = []
    for m in range(1, max_moment + 1):
        moment = exact_moment_Sn(m, d, inp)
        if isinstance(moment, SqrtQuotient):
            # delta^m / sqrt(delta^2 d) leaves a whole power of delta^2 and 1/sqrt(d)
            value = float(inp.delta2 ** ((m - 1) // 2) * moment.coeff) / math.sqrt(d)
        else:
            value = float(inp.delta2 ** (m // 2) * moment)
        out.append(value)
    return out


@dataclass(frozen=True)
class ComparisonRow:
    m: int
    mean: float
    std_error: float | None
    exact: float
    z: float | None  # None when std_error is None or 0
    scored: bool = True  # an unscored row stays out of the verdict


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[ComparisonRow, ...]
    z_threshold: float

    @property
    def passed(self) -> bool:
        return all(
            r.z is not None and abs(r.z) <= self.z_threshold for r in self.rows if r.scored
        )


def compare_to_prediction(
    estimates: Sequence[MomentEstimate],
    exact: Sequence[float],
    z_threshold: float = 3.0,
) -> ComparisonResult:
    """z-scores (mean - exact)/std_error per order, with a pass/fail verdict
    at the configured threshold.  Without a positive standard error z is
    None and a scored row does not pass.  A value that is not a finite float
    (a trace overflowed) is a ValueError naming its order."""
    if len(exact) < len(estimates):
        raise ValueError("missing exact values for some orders")
    rows = []
    for est, ex in zip(estimates, exact):
        z = (est.mean - ex) / est.std_error if est.std_error else None
        if not all(math.isfinite(v) for v in (est.mean, est.std_error, ex, z) if v is not None):
            raise ValueError(f"order {est.m}: an estimate or its z-score is not a finite float")
        rows.append(ComparisonRow(est.m, est.mean, est.std_error, ex, z, scored=est.scored))
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
    means = [spec.lam] * (2 * config.d)
    n = config.n
    draw = _SampleBuffer(config.d, n)
    # the operator, its Kronecker scratch and a letter, refilled by each trial
    operator = np.empty((n * n, n * n), dtype=np.complex128)
    out = operator, np.empty_like(operator), np.empty((n, n), dtype=np.complex128)
    count = 0
    for trial in range(config.trials):
        delta = build_delta(sample_matrices(config, spec, trial, draw), means, out)
        for value in np.linalg.eigvalsh(delta):
            fh.write(f"{float(value)!r}\n")
            count += 1
    return count
