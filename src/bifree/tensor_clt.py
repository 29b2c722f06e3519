"""Exact finite-n moments of normalised sums of tensor products.

The object of study is S_n = (1/(delta sqrt(n))) * sum of n centred tensor
products a_k (x) b_k of free identically distributed legs.  Its m-th moment
at finite n is an exact rational combination

    (1/delta^m) * sum over partitions p of [m] of
        phi(p) * n (n-1) ... (n - |p| + 1) / n^(m/2),

where phi(p) is the expectation of a product of m centred tensor factors
coloured by the blocks of p.  The numerator is computed by two independent
routes:

* the tensor route builds the table {p -> phi(p)}: it expands every centred
  factor binomially and factorises each resulting word across the two tensor
  legs, evaluating one coloured free moment per leg (once per distinct
  canonical word, with the words' multiplicities counted first);
* the bi-free route sums the all-variable cumulant of every vertically split
  alternating bi-non-crossing partition tau straight into the coefficient of
  n^|fp|, fp the partition of the factors that tau colours; the scalar sign
  words cancel and the refinement sum over p >= fp collapses to n^|fp|, so it
  needs no table over the partitions of [m].

Even-order moments are plain Fractions.  For odd m the value carries a
single factor 1/sqrt(delta^2 n); it is returned as a :class:`SqrtQuotient`
so no irrational arithmetic ever happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bichromatic import LEFT, RIGHT, enumerate_bnc_vs_alt
from .cumulants import (
    ColouredMoments,
    MomentSeq,
    Operand,
    Rational,
    kappa_bnc_vs,
)
from .limits import ENV_MAX_SIZE, InsufficientMomentsError, ResourceLimitError
from .limit_law import mu_q_moments_recurrence
from .partitions import (
    SetPartition,
    catalan_number,
    enumerate_partitions,
)

DEFAULT_ORDER_CAP = 8


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


def _falling(n: int, k: int) -> int:
    return math.perm(n, k) if k <= n else 0


class _MomentEngine:
    """Per-input cache of the tensor route's {partition -> phi(partition)}
    tables, the bi-free route's coefficients in n, and the coloured moments
    of each leg.  None of them depends on n, so each (input, m, route) is
    computed once."""

    def __init__(self, inp: TensorCLTInput):
        self.inp = inp
        self._alpha = ColouredMoments(inp.ms_a)
        self._beta = self._alpha if inp.ms_b == inp.ms_a else ColouredMoments(inp.ms_b)
        self._tensor_tables: dict[int, dict[SetPartition, Fraction]] = {}
        self._bifree_coefficients: dict[int, tuple[Fraction, ...]] = {}

    # -- route 1: binomial expansion + tensor factorisation ----------------

    def tensor_table(self, m: int) -> dict[SetPartition, Fraction]:
        if m not in self._tensor_tables:
            self._tensor_tables[m] = self._build_tensor_table(m)
        return self._tensor_tables[m]

    def _build_tensor_table(self, m: int) -> dict[SetPartition, Fraction]:
        """phi(p) is the sum over the 2^m masks of
        (-lam^2)^dropped * alpha(w) * beta(w), w the canonical word the mask
        keeps (so dropped = m - |w|).  Every restricted-growth word of length
        at most m is such a word, so their weights share one denominator, and
        each phi(p) is one integer sum over its distinct words, divided once."""
        lam2 = self.inp.lam**2
        weights: dict[tuple[int, ...], Fraction] = {}
        for k in range(m + 1) if lam2 else (m,):
            for part in enumerate_partitions(k):
                word = part.block_index()
                weights[word] = self._alpha.word(word) * self._beta.word(word) * (-lam2) ** (m - k)
        den = math.lcm(*(w.denominator for w in weights.values()))
        scaled = {word: w.numerator * (den // w.denominator) for word, w in weights.items()}
        table = {}
        for part in enumerate_partitions(m):
            labels = part.block_index()
            # lam = 0: only the full word survives
            counts = _subword_counts(labels) if lam2 else {labels: 1}
            table[part] = Fraction(sum(c * scaled[word] for word, c in counts.items()), den)
        return table

    # -- route 2: vertically split bi-free cumulants ------------------------

    def bifree_coefficients(self, m: int) -> tuple[Fraction, ...]:
        if m not in self._bifree_coefficients:
            self._bifree_coefficients[m] = self._build_bifree_coefficients(m)
        return self._bifree_coefficients[m]

    def _build_bifree_coefficients(self, m: int) -> tuple[Fraction, ...]:
        """c[b] with numerator = sum_b c[b] n^b: each tau adds its all-variable
        cumulant at b = |fp|, fp the factor partition it colours.

        Every factor is either the variable pair or the scalar pair
        (-lam, lam).  A scalar inside a non-singleton block kills the term, and
        a factor whose two positions are both singletons gives
        lam^2 - lam^2 = 0 over its two choices, so only the all-variable word
        of a tau without such a factor survives.  Summing the falling
        factorials n^(|p|) over the partitions p coarser than fp gives
        n^|fp| (sum_k S(b, k) n^(k) = n^b), so no refinement pass is needed.
        """
        pairs = [(Operand(LEFT, c), Operand(RIGHT, c)) for c in range(m)]
        coeffs = [Fraction(0)] * (m + 1)
        for tau in enumerate_bnc_vs_alt(m):
            singles = {b[0] for b in tau.partition.blocks if len(b) == 1}
            if any(2 * k - 1 in singles and 2 * k in singles for k in range(1, m + 1)):
                continue
            fp = _factor_partition(tau.partition, m)
            ops = [op for c in fp.block_index() for op in pairs[c]]
            coeffs[len(fp.blocks)] += kappa_bnc_vs(tau, ops, self.inp.ms_a, self.inp.ms_b)
        return tuple(coeffs)

    # -- combining into a moment ----------------------------------------------

    def moment_from_table(
        self, table: dict[SetPartition, Fraction], m: int, n: int
    ) -> ExactMoment:
        numerator = Fraction(0)
        for part, phi in table.items():
            if phi:
                numerator += phi * _falling(n, len(part.blocks))
        return self._scaled(numerator, m, n)

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


def _subword_counts(labels: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """For a restricted-growth word, how many of its 2^len subsequences
    canonicalise to each word.

    Scans left to right, keeping the distinct (canonical prefix, renaming)
    states with their multiplicities.  The renaming maps each original label
    to its canonical one, and is forgotten after the label's last occurrence,
    so subsequences that differ only in what no later letter can see merge.
    """
    last = {c: i for i, c in enumerate(labels)}
    states = {((), (-1,) * len(last)): 1}
    for i, c in enumerate(labels):
        dies = last[c] == i
        nxt: dict[tuple, int] = {}
        for (word, names), count in states.items():
            name = names[c]
            if name < 0:  # not kept so far: keeping it takes the next name
                name = max(word) + 1 if word else 0
                dropped = names
                kept = names if dies else names[:c] + (name,) + names[c + 1 :]
            else:
                dropped = kept = names[:c] + (-1,) + names[c + 1 :] if dies else names
            key = (word, dropped)
            nxt[key] = nxt.get(key, 0) + count
            key = (word + (name,), kept)
            nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return {word: count for (word, _), count in states.items()}


def _factor_partition(position_partition: SetPartition, m: int) -> SetPartition:
    """Finest partition of the m tensor factors that colours every block of a
    position partition on [2m] monochromatically (factor k owns positions
    2k-1 and 2k); computed by union-find over the factors."""
    parent = list(range(m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for block in position_partition.blocks:
        factors = [(p + 1) // 2 for p in block]
        for other in factors[1:]:
            ra, rb = find(factors[0]), find(other)
            if ra != rb:
                parent[ra] = rb
    return SetPartition.from_labels([find(k) for k in range(1, m + 1)])


@lru_cache(maxsize=8)  # each engine holds its tables and coloured-moment memos
def _engine(inp: TensorCLTInput) -> _MomentEngine:
    return _MomentEngine(inp)


def check_order_cap(m: int, order_cap: int) -> None:
    """Refuse a moment order above the cap before any table is built."""
    if m > order_cap:
        raise ResourceLimitError(
            f"moment order {m} exceeds the cap {order_cap} "
            f"(the sum runs over Bell(m) partitions); "
            f"raise order_cap or {ENV_MAX_SIZE} to override"
        )


def _check_args(m: int, n: int, inp: TensorCLTInput, order_cap: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    check_order_cap(m, order_cap)
    if m > inp.max_order:
        raise InsufficientMomentsError(
            f"order {m} exceeds the supplied leg moments (order {inp.max_order})"
        )


def exact_moment_Sn(
    m: int, n: int, inp: TensorCLTInput, *, order_cap: int = DEFAULT_ORDER_CAP
) -> ExactMoment:
    """m-th moment of S_n by the tensor-factorisation route, exactly."""
    _check_args(m, n, inp, order_cap)
    if m == 0:
        return Fraction(1)
    eng = _engine(inp)
    return eng.moment_from_table(eng.tensor_table(m), m, n)


def exact_moment_Sn_bifree(
    m: int, n: int, inp: TensorCLTInput, *, order_cap: int = DEFAULT_ORDER_CAP
) -> ExactMoment:
    """m-th moment of S_n by the bi-free cumulant route; must agree with
    :func:`exact_moment_Sn` exactly."""
    _check_args(m, n, inp, order_cap)
    if m == 0:
        return Fraction(1)
    eng = _engine(inp)
    return eng.moment_from_coefficients(eng.bifree_coefficients(m), m, n)


def centred_limit_moment(m: int, var_a: Rational, var_b: Rational) -> Fraction:
    """Limit moment of the unnormalised centred tensor sum: zero at odd
    orders, the non-crossing pairing count times the variance powers at even
    orders."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m % 2:
        return Fraction(0)
    half = m // 2
    return catalan_number(half) * Fraction(var_a) ** half * Fraction(var_b) ** half


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    value: ExactMoment
    limit: Fraction
    gap: float


def convergence_table(
    m: int,
    n_values: list[int],
    inp: TensorCLTInput,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> list[ConvergenceRow]:
    """Exact moments of S_n against the limit-law moment, with float gaps."""
    limit_order = max(m, 2)
    limit = mu_q_moments_recurrence(inp.q, limit_order).moment(m) if m >= 1 else Fraction(1)
    rows = []
    for n in n_values:
        value = exact_moment_Sn(m, n, inp, order_cap=order_cap)
        gap = abs(float(value) - float(limit))
        rows.append(ConvergenceRow(n=n, value=value, limit=limit, gap=gap))
    return rows
