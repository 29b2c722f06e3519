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
to an exhaustive 2-colouring of the crossing graphs of all pairings, a test
oracle.
Moments are produced by two independent routes, which must agree exactly:
a direct recurrence over the even orders, with its own table of the even
powers of the even-moment series, and the generic free moment-cumulant
transform of :mod:`bifree.cumulants`.  The two share only
:func:`z_free_cumulants`, so that pin covers the transforms, not the counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cumulants import (
    CumulantSeq,
    MomentSeq,
    Rational,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)


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
    and with E(w) = sum_k m_2k w^k each even moment splits over the size 2j
    of the block containing the first position,
    m_2k = sum_{j=1..k} kappa_2j [w^(k-j)] E(w)^(2j).  The table holds the
    coefficients of the even powers E^(2j) = E^(2j-2) E^2, filled one
    anti-diagonal j + t = k per order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    kappas = z_free_cumulants(q, order).values
    even = [Fraction(1)]  # m_0, m_2, m_4, ...
    square: list[Fraction] = []  # [w^t] E(w)^2
    table = [[Fraction(1)]]  # table[j][t] = [w^t] E(w)^(2j); row 0 is 1, 0, 0, ...
    for k in range(1, order // 2 + 1):
        square.append(sum(even[i] * even[k - 1 - i] for i in range(k)))
        table[0].append(Fraction(0))
        table.append([Fraction(1)])
        for j in range(1, k):
            t, prev = k - j, table[j - 1]
            table[j].append(sum(square[i] * prev[t - i] for i in range(t + 1) if prev[t - i]))
        even.append(sum(kappas[2 * j - 1] * table[j][k - j] for j in range(1, k + 1)))
    return MomentSeq(tuple(Fraction(0) if n % 2 else even[n // 2] for n in range(1, order + 1)))


def mu_q_moments_cumulant_route(q: Rational, order: int) -> MomentSeq:
    """Moments of the limit law through the generic free moment-cumulant
    transform; the independent cross-check of the recurrence."""
    return moments_from_free_cumulants(z_free_cumulants(q, order))


def semicircle_moments(order: int) -> MomentSeq:
    """Centred unit-variance semicircle: Catalan numbers C(n, n/2) / (n/2 + 1)
    at even orders n."""
    values = tuple(
        Fraction(comb(n, n // 2) // (n // 2 + 1)) if n % 2 == 0 else Fraction(0)
        for n in range(1, order + 1)
    )
    return MomentSeq(values)
