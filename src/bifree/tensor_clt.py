"""Exact finite-n moments of normalised sums of tensor products.

The object of study is S_n = (1/(delta sqrt(n))) * sum of n centred tensor
products a_k (x) b_k of free identically distributed legs.  Its m-th moment
at finite n is an exact rational: the numerator, a polynomial in n of degree
at most m/2, over delta^m n^(m/2).  The numerator's coefficients of n^b come
from the bi-free route: a sum over the vertically split alternating
bi-non-crossing partitions, which are pairs (lp, rp) of non-crossing
partitions of the m left and the m right nodes.  A pair whose singleton sets
are disjoint adds its all-variable cumulant prod kappa_A(|b|)
prod kappa_B(|b|) to the coefficient of n^|lp v rp|; every other pair
cancels over its scalar sign words, and the refinement sum over the coarser
factor partitions collapses to that one power of n.  The pairs are never
listed: the transfer matrix :func:`bifree.partitions.nc_pair_join_counts`
sums them position by position.

``clt`` and ``simulate``'s predictions both read this one route.  Its oracle,
the tensor route over restricted-growth words and coloured free moments,
lives in the tests and shares nothing with it but the leg cumulants.  On the
equal-weight law on {-2, 0, 1} a ``clt moments`` call for the one order
m = 10 takes 1.5-1.7 s and peaks at 43 MB, and m = 11 takes about 6.4 s and
115 MB, against 3.2-4.0 s (55 MB) and 21-23 s (270 MB) on the word walk
(2-core VM).  On shifted-semicircle legs, with no cumulant beyond order 2,
m = 1..10 take about 0.05 s.

Even-order moments are plain Fractions.  For odd m the value carries a
single factor 1/sqrt(delta^2 n); it is returned as a :class:`SqrtQuotient`
so no irrational arithmetic ever happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cumulants import MomentSeq, integer_cumulants
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


@lru_cache(maxsize=DEFAULT_ORDER_CAP)  # one input's sweep of m = 1..10; m + 1 Fractions each
def _coefficients(inp: TensorCLTInput, m: int, order: int) -> tuple[Fraction, ...]:
    """c[b] with numerator = sum_b c[b] n^b, reading the legs' first ``order``
    moments (the order cap in force), however many the input supplies.

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
    scale_a, kappas_a = integer_cumulants(inp.ms_a, order)
    scale_b, kappas_b = integer_cumulants(inp.ms_b, order)
    counts = nc_pair_join_counts(m, kappas_a, kappas_b)
    den = (scale_a * scale_b) ** m
    return tuple(Fraction(counts.get(b, 0), den) for b in range(m + 1))


def moment_from_coefficients(
    coeffs: tuple[Fraction, ...], m: int, n: int, inp: TensorCLTInput
) -> ExactMoment:
    """The m-th moment at n summands: the numerator sum_b coeffs[b] n^b over
    delta^m n^(m/2)."""
    numerator = sum(c * n**b for b, c in enumerate(coeffs))
    half = m // 2
    scale = inp.delta2**half * Fraction(n) ** half
    if m % 2 == 0:
        return numerator / scale
    return SqrtQuotient(numerator / scale, inp.delta2 * n)


def check_order_cap(m: int) -> None:
    """Refuse a moment order above DEFAULT_ORDER_CAP, or above BIFREE_MAX_SIZE
    when that is larger, before the transfer matrix runs."""
    cap = env_cap(DEFAULT_ORDER_CAP)
    if m > cap:
        raise ResourceLimitError(
            f"moment order {m} exceeds the cap {cap} "
            f"(the transfer matrix walks about 4 times as many states per order); "
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
    """m-th moment of S_n, exactly."""
    _check_args(m, n, inp)
    if m == 0:
        return Fraction(1)
    return moment_from_coefficients(_coefficients(inp, m, env_cap(DEFAULT_ORDER_CAP)), m, n, inp)


# the benchmark under perfbench/ still calls the one route by its old name
exact_moment_Sn_bifree = exact_moment_Sn


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
