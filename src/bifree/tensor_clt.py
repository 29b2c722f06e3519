"""Exact finite-n moments of normalised sums of tensor products.

The object of study is S_n = (1/(delta sqrt(n))) * sum of n centred tensor
products a_k (x) b_k of free identically distributed legs.  Its m-th moment
at finite n is an exact rational: the numerator, a polynomial in n of degree
at most m/2, over delta^m n^(m/2).  Both routes return the numerator as its
coefficients of n^b and are checked against each other:

* the tensor route takes moments of the uncentred sum T = sum_k a_k (x) b_k.
  The centred sum is T - n lam^2, so the numerator is
  sum_j C(m, j) (-n lam^2)^(m-j) phi(T^j), and
  phi(T^j) = sum_w n (n-1) ... (n - r(w) + 1) alpha(w) beta(w) over the
  restricted-growth words w of length j, r(w) the number of distinct letters:
  the j summand indices with kernel w can be chosen in that many ways, and
  phi (x) phi factorises into one coloured free moment per leg.  The products
  alpha(w) beta(w) are summed per (j, r) in integers, and each falling
  factorial is expanded into powers of n once per r;
* the bi-free route sums over the vertically split alternating
  bi-non-crossing partitions, which are pairs (lp, rp) of non-crossing
  partitions of the m left and the m right nodes.  A pair whose singleton
  sets are disjoint adds its all-variable cumulant prod kappa_A(|b|)
  prod kappa_B(|b|) to the coefficient of n^|lp v rp|; every other pair
  cancels over its scalar sign words, and the refinement sum over the
  coarser factor partitions collapses to that one power of n.  The pairs are
  never listed: the transfer matrix
  :func:`bifree.partitions.nc_pair_join_counts` sums them position by
  position.  It shares nothing with the tensor route but the leg cumulants.

``clt`` reads the tensor route, and ``simulate``'s shifted-semicircle
predictions read the bi-free route: with no cumulant beyond order 2 its
transfer matrix opens only singletons and pairs, and the predictions for
m = 1..10 take about 0.05 s against about 1.5 s for the word walk.  On
general legs every block size opens states of its own, and the transfer
matrix gains little: on the equal-weight law on {-2, 0, 1} one order took
0.07-0.13 s against 0.06-0.10 s for the tensor route at m = 8, and
1.4-2.0 s against 2.0-3.5 s at m = 10 (three fresh processes each, 2-core
VM).

Even-order moments are plain Fractions.  For odd m the value carries a
single factor 1/sqrt(delta^2 n); it is returned as a :class:`SqrtQuotient`
so no irrational arithmetic ever happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cumulants import ColouredMoments, MomentSeq, integer_cumulants
from .limits import ENV_MAX_SIZE, InsufficientMomentsError, ResourceLimitError, env_cap
from .limit_law import mu_q_moments_recurrence
from .partitions import nc_pair_join_counts

DEFAULT_ORDER_CAP = 10


@dataclass(frozen=True)
class TensorCLTInput:
    """Leg distributions and derived parameters of the normalised tensor sum.

    Both legs share the mean and the variance; the tensor variance delta^2 and
    the interpolation parameter q are determined by them and are validated on
    construction.
    """

    ms_a: MomentSeq
    ms_b: MomentSeq
    lam: Fraction
    sigma2: Fraction
    delta2: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "sigma2", Fraction(self.sigma2))
        object.__setattr__(self, "delta2", Fraction(self.delta2))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.ms_a.moment(1) != self.lam or self.ms_b.moment(1) != self.lam:
            raise ValueError("first moments of both legs must equal lam")
        if self.ms_a.order < 2 or self.ms_b.order < 2:
            raise InsufficientMomentsError("legs need moments at least to order 2")
        var_a = self.ms_a.moment(2) - self.lam**2
        var_b = self.ms_b.moment(2) - self.lam**2
        if var_a != self.sigma2 or var_b != self.sigma2:
            raise ValueError("both legs must have variance sigma2")
        if self.sigma2 == 0:
            raise ValueError("sigma2 must be non-zero")
        if self.delta2 != self.sigma2 * (self.sigma2 + 2 * self.lam**2):
            raise ValueError("delta2 must equal sigma2 (sigma2 + 2 lam^2)")
        if self.q != 2 * self.lam**2 / (self.sigma2 + 2 * self.lam**2):
            raise ValueError("q must equal 2 lam^2 / (sigma2 + 2 lam^2)")
        if not 0 <= self.q < 1:
            raise ValueError("q must lie in [0, 1)")

    @classmethod
    def from_legs(cls, ms_a: MomentSeq, ms_b: MomentSeq) -> "TensorCLTInput":
        """Derive lam, sigma2, delta2 and q from the leg moments."""
        lam = ms_a.moment(1)
        sigma2 = ms_a.moment(2) - lam**2
        spread = sigma2 + 2 * lam**2
        if spread == 0:
            raise ValueError("q is undefined when sigma2 + 2 lam^2 = 0")
        delta2 = sigma2 * spread
        q = 2 * lam**2 / spread
        return cls(ms_a, ms_b, lam, sigma2, delta2, q)

    @property
    def max_order(self) -> int:
        return min(self.ms_a.order, self.ms_b.order)


@dataclass(frozen=True)
class SqrtQuotient:
    """An exact value of the form coeff / sqrt(base), base a positive
    rational.  Odd-order moments live here."""

    coeff: Fraction
    base: Fraction

    def __float__(self) -> float:
        return float(self.coeff) / math.sqrt(float(self.base))

    def __abs__(self) -> float:
        return abs(float(self))


ExactMoment = Fraction | SqrtQuotient


class _MomentEngine:
    """Per-input cache of both routes' coefficients in n, the tensor route's
    word sums and the coloured moments of each leg.  None of them depends on
    n, so each (input, m, route) is computed once.  Orders up to ``order``
    (the order cap in force) are served, so only that many leg moments are
    transformed into cumulants, however many the input supplies."""

    def __init__(self, inp: TensorCLTInput, order: int):
        self.inp = inp
        self.order = order
        self._alpha = ColouredMoments(inp.ms_a, order)
        self._beta = self._alpha if inp.ms_b == inp.ms_a else ColouredMoments(inp.ms_b, order)
        # _word_sums[j][r]: (D_a D_b)^j alpha(w) beta(w) summed over the
        # restricted-growth words w of length j with r letters; _words holds
        # the words of the longest length so far, with their letter counts
        self._word_sums: list[list[int]] = [[1]]
        self._words: list[tuple[tuple[int, ...], int]] = [((), 0)]
        self._tensor_coefficients: dict[int, tuple[Fraction, ...]] = {}
        self._bifree_coefficients: dict[int, tuple[Fraction, ...]] = {}

    # -- route 1: moments of the uncentred sum --------------------------------

    def tensor_coefficients(self, m: int) -> tuple[Fraction, ...]:
        if m not in self._tensor_coefficients:
            self._tensor_coefficients[m] = self._build_tensor_coefficients(m)
        return self._tensor_coefficients[m]

    def _build_tensor_coefficients(self, m: int) -> tuple[Fraction, ...]:
        """c[b] with numerator = sum_b c[b] n^b.  The numerator is
        sum_j C(m, j) (-n lam^2)^(m-j) sum_r n^(r) _word_sums[j][r] / (D_a D_b)^j,
        n^(r) the falling factorial; with lam^2 = p/q every term is an integer
        over (q D_a D_b)^m."""
        self._extend_word_sums(m)
        lam2 = self.inp.lam**2
        p, q = lam2.numerator, lam2.denominator
        scale = self._alpha.scale * self._beta.scale
        falling = [[1]]  # falling[r]: coefficients of n (n-1) ... (n-r+1), lowest power first
        for r in range(m):
            falling.append([a - r * b for a, b in zip([0] + falling[-1], falling[-1] + [0])])
        coeffs = [0] * (m + 1)
        for j in range(m + 1):
            weight = math.comb(m, j) * (-p) ** (m - j) * q**j * scale ** (m - j)
            for r, total in enumerate(self._word_sums[j]):
                for k, s in enumerate(falling[r]):
                    coeffs[m - j + k] += weight * total * s
        den = (q * scale) ** m
        return tuple(Fraction(c, den) for c in coeffs)

    def _extend_word_sums(self, m: int) -> None:
        while len(self._word_sums) <= m:
            self._words = [
                (word + (c,), max(letters, c + 1))
                for word, letters in self._words
                for c in range(letters + 1)
            ]
            row = [0] * (len(self._word_sums) + 1)
            for word, letters in self._words:
                row[letters] += self._alpha.word(word) * self._beta.word(word)
            self._word_sums.append(row)

    # -- route 2: vertically split bi-free cumulants on node pairs ----------

    def bifree_coefficients(self, m: int) -> tuple[Fraction, ...]:
        if m not in self._bifree_coefficients:
            self._bifree_coefficients[m] = self._build_bifree_coefficients(m)
        return self._bifree_coefficients[m]

    def _build_bifree_coefficients(self, m: int) -> tuple[Fraction, ...]:
        """c[b] with numerator = sum_b c[b] n^b.

        Over the alternating side map a vertically split bi-non-crossing tau
        is a pair (lp, rp) of non-crossing partitions of the m left and the m
        right nodes, node k of each side in tensor factor k (Charlesworth,
        Nelson and Skoufranis, Canad. J. Math. 2015).  Its all-variable
        cumulant is prod kappa_A(|b|) over lp times prod kappa_B(|b|) over rp.

        Every factor is either the variable pair or the scalar pair (-lam,
        lam).  A scalar inside a non-singleton block kills the term, and a
        factor whose two nodes are both singletons gives lam^2 - lam^2 = 0
        over its two choices, so only the all-variable word of a pair with
        disjoint singletons survives.  It colours the factor partition
        lp v rp, and the falling factorials n^(|p|) over the p coarser than
        that sum to n^|lp v rp| (sum_k S(b, k) n^(k) = n^b).  With D the lcm
        of a leg's cumulant denominators, D^m times a pair's cumulant is an
        integer (see :func:`integer_cumulants`).
        """
        scale_a, kappas_a = integer_cumulants(self.inp.ms_a, self.order)
        scale_b, kappas_b = integer_cumulants(self.inp.ms_b, self.order)
        counts = nc_pair_join_counts(m, kappas_a, kappas_b)
        den = (scale_a * scale_b) ** m
        return tuple(Fraction(counts.get(b, 0), den) for b in range(m + 1))

    # -- combining into a moment ----------------------------------------------

    def moment_from_coefficients(
        self, coeffs: tuple[Fraction, ...], m: int, n: int
    ) -> ExactMoment:
        numerator = sum(c * n**b for b, c in enumerate(coeffs))
        return self._scaled(numerator, m, n)

    def _scaled(self, numerator: Fraction, m: int, n: int) -> ExactMoment:
        half = m // 2
        scale = self.inp.delta2**half * Fraction(n) ** half
        if m % 2 == 0:
            return numerator / scale
        return SqrtQuotient(numerator / scale, self.inp.delta2 * n)


# one engine: at m = 10 it holds about 40 MB of word sums and coloured-moment
# memos, and every CLI call reads a single input.  A raised order cap builds
# a new engine, since the old one read too few leg moments.
@lru_cache(maxsize=1)
def _engine(inp: TensorCLTInput, order: int) -> _MomentEngine:
    return _MomentEngine(inp, order)


def check_order_cap(m: int) -> None:
    """Refuse a moment order above DEFAULT_ORDER_CAP, or above BIFREE_MAX_SIZE
    when that is larger, before any word is walked."""
    cap = env_cap(DEFAULT_ORDER_CAP)
    if m > cap:
        raise ResourceLimitError(
            f"moment order {m} exceeds the cap {cap} "
            f"(the sum runs over the Bell(0) + ... + Bell(m) restricted-growth words); "
            f"set {ENV_MAX_SIZE} to raise it"
        )


def _check_args(m: int, n: int, inp: TensorCLTInput) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    check_order_cap(m)
    if m > inp.max_order:
        raise InsufficientMomentsError(
            f"order {m} exceeds the supplied leg moments (order {inp.max_order})"
        )


def exact_moment_Sn(m: int, n: int, inp: TensorCLTInput) -> ExactMoment:
    """m-th moment of S_n by the tensor-factorisation route, exactly."""
    _check_args(m, n, inp)
    if m == 0:
        return Fraction(1)
    eng = _engine(inp, env_cap(DEFAULT_ORDER_CAP))
    return eng.moment_from_coefficients(eng.tensor_coefficients(m), m, n)


def exact_moment_Sn_bifree(m: int, n: int, inp: TensorCLTInput) -> ExactMoment:
    """m-th moment of S_n by the bi-free cumulant route; must agree with
    :func:`exact_moment_Sn` exactly."""
    _check_args(m, n, inp)
    if m == 0:
        return Fraction(1)
    eng = _engine(inp, env_cap(DEFAULT_ORDER_CAP))
    return eng.moment_from_coefficients(eng.bifree_coefficients(m), m, n)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    value: ExactMoment
    limit: Fraction
    gap: float


def convergence_table(m: int, n_values: list[int], inp: TensorCLTInput) -> list[ConvergenceRow]:
    """Exact moments of S_n against the limit-law moment, with float gaps."""
    limit_order = max(m, 2)
    limit = mu_q_moments_recurrence(inp.q, limit_order).moment(m) if m >= 1 else Fraction(1)
    rows = []
    for n in n_values:
        value = exact_moment_Sn(m, n, inp)
        gap = abs(float(value) - float(limit))
        rows.append(ConvergenceRow(n=n, value=value, limit=limit, gap=gap))
    return rows
