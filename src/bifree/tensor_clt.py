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
listed: the transfer matrix :func:`bifree.transfer.nc_pair_join_counts`
sums them position by position.

``clt`` and ``simulate``'s predictions read this one route's numerators
through one :func:`tensor_coefficients` call each, which turns each leg into
cumulants once and runs the transfer matrix once, up to the highest order
asked for; nothing is kept between calls.  Its oracle, the tensor route over
restricted-growth words and coloured free moments, lives in the tests and
shares nothing with it but the leg cumulants.  With the equal-weight law on
{-2, 0, 1} on both legs, the one run for m = 10, which gives every
m = 1..10, makes 257,194 transitions over 70,493 states (summed over the
positions), and m = 11 makes 1,012,318 over 277,937; with that law and its
mirror image as the legs, m = 10 makes 509,617 over 140,085.  On
shifted-semicircle legs, with no cumulant beyond order 2, m = 1..10 make
3,174 over 797.

Even-order moments are plain Fractions.  For odd m the value carries a
single factor 1/sqrt(delta^2 n); it is returned as a :class:`SqrtQuotient`
so no irrational arithmetic ever happens.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .cumulants import MomentSeq, integer_cumulants
from .limits import ENV_MAX_SIZE, InsufficientMomentsError, Record, ResourceLimitError, env_cap
from .transfer import nc_pair_join_counts

DEFAULT_ORDER_CAP = 10


class TensorCLTInput(Record):
    """Leg distributions and derived parameters of the normalised tensor sum.

    Both legs share the mean lam and the variance sigma2; the tensor variance
    delta2 = sigma2 (sigma2 + 2 lam^2) and the interpolation parameter
    q = 2 lam^2 / (sigma2 + 2 lam^2) follow from them, so only the legs are
    passed, and equal legs make equal inputs, which hash alike.  Immutable.
    """

    __slots__ = ("ms_a", "ms_b", "lam", "sigma2", "delta2", "q")
    _fields = ("ms_a", "ms_b")

    def __init__(self, ms_a: MomentSeq, ms_b: MomentSeq):
        if ms_a.order < 2 or ms_b.order < 2:
            raise InsufficientMomentsError("legs need moments at least to order 2")
        lam = ms_a.moment(1)
        if ms_b.moment(1) != lam:
            raise ValueError("first moments of both legs must be equal")
        sigma2 = ms_a.moment(2) - lam**2
        if ms_b.moment(2) - lam**2 != sigma2:
            raise ValueError("both legs must have the same variance")
        if sigma2 == 0:
            raise ValueError("sigma2 must be non-zero")
        spread = sigma2 + 2 * lam**2
        if spread == 0:
            raise ValueError("q is undefined when sigma2 + 2 lam^2 = 0")
        q = 2 * lam**2 / spread
        if not 0 <= q < 1:
            raise ValueError("q must lie in [0, 1)")
        self._set(ms_a, ms_b, lam, sigma2, sigma2 * spread, q)

    @classmethod
    def from_legs(cls, ms_a: MomentSeq, ms_b: MomentSeq) -> "TensorCLTInput":
        """The input of two legs; the package calls the constructor, and
        the benchmark under perfbench/ still builds it by this old name."""
        return cls(ms_a, ms_b)

    @property
    def max_order(self) -> int:
        return min(self.ms_a.order, self.ms_b.order)


class SqrtQuotient(Record):
    """An exact value of the form coeff / sqrt(base), base a positive
    rational.  Odd-order moments live here; immutable."""

    __slots__ = _fields = ("coeff", "base")

    def __init__(self, coeff: Fraction, base: Fraction):
        self._set(coeff, base)

    def __float__(self) -> float:
        # from the exact square coeff^2 / base: float(base) can underflow to
        # 0 and float(coeff) overflow where the quotient itself is a float
        r = math.sqrt(self.coeff * self.coeff / self.base)
        return -r if self.coeff < 0 else r


ExactMoment = Fraction | SqrtQuotient


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


def check_moment_order(m: int, inp: TensorCLTInput) -> None:
    """Refuse a negative m, an m above the order cap or one above the
    supplied leg moments, before the transfer matrix runs."""
    if m < 0:
        raise ValueError("m must be >= 0")
    check_order_cap(m)
    if m > inp.max_order:
        raise InsufficientMomentsError(
            f"order {m} exceeds the supplied leg moments (order {inp.max_order})"
        )


def check_size(n: int) -> None:
    """Refuse a number of summands below 1."""
    if n < 1:
        raise ValueError("n must be >= 1")


def tensor_coefficients(
    inp: TensorCLTInput, orders: Sequence[int]
) -> dict[int, tuple[Fraction, ...]]:
    """{m: c} for every m in ``orders``, with c[b], b = 0..m, the m-th
    moment's numerator sum_b c[b] n^b.  Every order passes
    :func:`check_moment_order` before any work; each leg's moments up to the
    highest order become integer cumulants once, and one transfer-matrix run
    up to that order gives every order.  Legs that agree up to it get equal
    weights, so the run keeps one state per swap of the two sides.

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
    for m in orders:
        check_moment_order(m, inp)
    top = max(orders, default=0)
    scale_a, kappas_a = integer_cumulants(inp.ms_a, top)
    scale_b, kappas_b = integer_cumulants(inp.ms_b, top)
    counts = nc_pair_join_counts(top, kappas_a, kappas_b)
    coefficients = {}
    for m in orders:
        den = (scale_a * scale_b) ** m
        coefficients[m] = tuple(Fraction(counts[m].get(b, 0), den) for b in range(m + 1))
    return coefficients


def exact_moment_Sn(m: int, n: int, inp: TensorCLTInput) -> ExactMoment:
    """m-th moment of S_n, exactly; a caller that wants several orders or
    sizes calls :func:`tensor_coefficients` once instead."""
    check_size(n)
    return moment_from_coefficients(tensor_coefficients(inp, [m])[m], m, n, inp)


# the benchmark under perfbench/ still calls the one route by its old name
exact_moment_Sn_bifree = exact_moment_Sn
