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
a direct recurrence over the even orders, on integers, with its own table of
the even powers of the even-moment series, and the generic free
moment-cumulant transform of :mod:`bifree.cumulants`.  The two share only
:func:`z_free_cumulants`, so that pin covers the transforms, not the counts.
The recurrence's line, solved backwards, also gives
:func:`mu1_free_cumulants`; ``test_mu1_cumulants_give_the_closed_form_moments``
pins that solve through the generic transform at every order up to the
transform cap.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .cumulants import CumulantSeq, MomentSeq, Rational, moments_from_free_cumulants


def _even_line(values: Sequence[int], to_moments: bool) -> list[int]:
    """Even moments m_2, m_4, ... from the even free cumulants kappa_2,
    kappa_4, ... of a law with vanishing odd cumulants (``to_moments``), or
    the cumulants from the moments, order by order on one power table.

    Splitting off the block of the first position, of size 2j, gives
    m_2k = sum_{j=1..k} kappa_2j [w^(k-j)] E(w)^(2j), with
    E(w) = sum_k m_2k w^k and m_0 = 1.  table[j][t] = [w^t] E(w)^(2j) is
    filled as E^(2j-2) E^2, one anti-diagonal j + t = k per order, so the
    line m_2k = kappa_2k + sum_{j<k} kappa_2j table[j][k-j] gives m_2k from
    kappa_2k or kappa_2k from m_2k.  The line is homogeneous: scaling
    kappa_2j and m_2k by s^j and s^k keeps it, so integers scaled that way go
    in and come out, and no Fraction is formed."""
    even = [1]  # m_0, m_2, m_4, ...
    kappas: list[int] = []
    square: list[int] = []  # [w^t] E(w)^2
    table = [[1]]  # row 0 is 1, 0, 0, ...
    out = []
    for k, value in enumerate(values, 1):
        square.append(sum(even[i] * even[k - 1 - i] for i in range(k)))
        table[0].append(0)
        table.append([1])
        for j in range(1, k):
            t, prev = k - j, table[j - 1]
            table[j].append(sum(square[i] * prev[t - i] for i in range(t + 1) if prev[t - i]))
        line = sum(kappa * table[j][k - j] for j, kappa in enumerate(kappas, 1) if kappa)
        kappa, moment = (value, value + line) if to_moments else (value - line, value)
        kappas.append(kappa)
        even.append(moment)
        out.append(moment if to_moments else kappa)
    return out


def mu1_free_cumulants(order: int) -> CumulantSeq:
    """Free cumulants of the classical sum of two independent semicircles,
    each scaled to variance 1/2: odd orders vanish, even order n carries
    2 (1/2)^(n/2) times the bipartite-connected pairing count of [n].

    Computed from that definition: the moments of the sum are the binomial
    convolution of the two semicircle moment sequences,
    2^k m_2k = sum_i C(2k, 2i) Cat(i) Cat(k-i), and the even line solved
    backwards on these integers gives kappa_2j 2^j."""
    catalan = [comb(2 * i, i) // (i + 1) for i in range(order // 2 + 1)]
    doubled = [
        sum(comb(2 * k, 2 * i) * catalan[i] * catalan[k - i] for i in range(k + 1))
        for k in range(1, order // 2 + 1)
    ]
    kappas = _even_line(doubled, to_moments=False)
    return CumulantSeq(
        0 if n % 2 else Fraction(kappas[n // 2 - 1], 2 ** (n // 2)) for n in range(1, order + 1)
    )


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
    and the even ones solve the even line forwards from the cumulants of
    :func:`z_free_cumulants`.  With s = 2 denominator(q), kappa_2j s^j is an
    integer, so the line runs on integers and m_2k s^k is divided once."""
    if order < 0:
        raise ValueError("order must be >= 0")
    kappas = z_free_cumulants(q, order).values
    s = 2 * Fraction(q).denominator
    scaled = [int(kappas[2 * j - 1] * s**j) for j in range(1, order // 2 + 1)]
    moments = _even_line(scaled, to_moments=True)
    return MomentSeq(
        0 if n % 2 else Fraction(moments[n // 2 - 1], s ** (n // 2)) for n in range(1, order + 1)
    )


def mu_q_moments_cumulant_route(q: Rational, order: int) -> MomentSeq:
    """Moments of the limit law through the generic free moment-cumulant
    transform; the independent cross-check of the recurrence."""
    return moments_from_free_cumulants(z_free_cumulants(q, order))
