"""The one-parameter limit law of normalised tensor sums.

The law interpolates, with a parameter q in [0, 1), between the standard
semicircle law (q = 0) and a classically convolved pair of semicircles.  Its
free cumulants are pinned down by the bipartite-connected pairing counts:
order 2 contributes 1, odd orders vanish, and order 2j (j >= 2) contributes
2 (q/2)^j times the number of connected bipartite pairings of [2j].

The counts are not enumerated: they come in closed form from the free
cumulants of two classically convolved variance-1/2 semicircles
(:func:`mu1_free_cumulants`), and
``tests/test_limit_law.py::test_mu1_cumulants_match_bicon_oracle`` pins them
to the exhaustive classification :func:`bifree.partitions.count_bicon_pairs`.
Moments are produced by two independent routes, a direct recurrence on the
moment sequence and the generic free moment-cumulant transform, which must
agree exactly; both consume the same cumulants, so that pin covers the
transforms, not the counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cumulants import (
    CumulantSeq,
    MomentSeq,
    Rational,
    _composition_sums,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from .partitions import catalan_number


def mu1_free_cumulants(order: int) -> CumulantSeq:
    """Free cumulants of the classical sum of two independent semicircles,
    each scaled to variance 1/2: odd orders vanish, even order n carries
    2 (1/2)^(n/2) times the bipartite-connected pairing count of [n].

    Computed from that definition: the moments of the sum are the binomial
    convolution of the two semicircle moment sequences, then transformed."""
    unit = (Fraction(1),) + semicircle_moments(order).values
    half = [m / 2 ** (k // 2) for k, m in enumerate(unit)]  # variance 1/2
    moments = [
        sum(comb(n, k) * half[k] * half[n - k] for k in range(n + 1))
        for n in range(1, order + 1)
    ]
    return free_cumulants_from_moments(MomentSeq(tuple(moments)))


def z_free_cumulants(q: Rational, order: int) -> CumulantSeq:
    """Free cumulants of the limit law: mixing the semicircle (weight
    sqrt(1-q)) with the classical double semicircle (weight sqrt(q)) leaves
    exactly 1 at order 2 and q^(n/2) times the order-n cumulant of
    :func:`mu1_free_cumulants`, that is 2 (q/2)^(n/2) |bipartite-connected
    pairings|, at higher even orders."""
    q = Fraction(q)
    if not 0 <= q < 1:
        raise ValueError("q must lie in [0, 1)")
    mu1 = mu1_free_cumulants(order).values  # odd orders are exact zeros
    return CumulantSeq(
        tuple(Fraction(1) if n == 2 else q ** (n // 2) * k for n, k in enumerate(mu1, start=1))
    )


def mu_q_moments_recurrence(q: Rational, order: int) -> MomentSeq:
    """Moments of the limit law by the direct recurrence: odd moments vanish,
    the second moment is 1, and each higher even moment splits over the size
    2j of the block containing the first position, weighted by the order-2j
    free cumulant and a product of lower moments filling the gaps."""
    if order < 2:
        raise ValueError("order must be >= 2")
    kappas = z_free_cumulants(q, order).values
    table: list[Fraction] = [Fraction(1)]  # order 0
    for n in range(1, order + 1):
        total = Fraction(0)
        if n % 2 == 0:
            for j in range(1, n // 2 + 1):
                if kappas[2 * j - 1]:
                    total += kappas[2 * j - 1] * _composition_sums(table, 2 * j, n - 2 * j)
        table.append(total)
    return MomentSeq(tuple(table[1:]))


def mu_q_moments_cumulant_route(q: Rational, order: int) -> MomentSeq:
    """Moments of the limit law through the generic free moment-cumulant
    transform; the independent cross-check of the recurrence."""
    return moments_from_free_cumulants(z_free_cumulants(q, order))


def semicircle_moments(order: int) -> MomentSeq:
    """Centred unit-variance semicircle: Catalan numbers at even orders."""
    values = tuple(
        Fraction(catalan_number(n // 2)) if n % 2 == 0 else Fraction(0)
        for n in range(1, order + 1)
    )
    return MomentSeq(values)
