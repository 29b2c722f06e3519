"""Moment/cumulant calculus over exact rationals.

The single-variable free moment-cumulant transform pair is the workhorse: a
moment sequence and its free cumulant sequence determine each other through
sums over non-crossing partitions.  Splitting off the block of the first
element turns that sum into one line per order over the power table
[z^t] M(z)^s of the moment series, and both directions solve that line, one
for the moment and one for the cumulant (:func:`_free_transform`, O(K^3) for
K orders).  The literal partition-sum formulas are the oracle in the tests.

On top of that, :func:`integer_cumulants` scales a leg's free cumulants to
integers over one common denominator, which is all the tensor CLT engine
reads of a leg: its transfer matrix weighs every block by the cumulant of the
block's size.

Everything is exact rational arithmetic; floats never appear.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .limits import InsufficientMomentsError, Record

Rational = Fraction | int

# Bounds on rational text, checked before Fraction runs: Fraction builds 10^e
# exactly for a decimal exponent e, so "1e100000000" would stall, not fail.
# Fraction reads any Unicode decimal digit there, and so do \d and int().
MAX_RATIONAL_CHARS = 10_000
MAX_DECIMAL_EXPONENT = 1_000
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)$")


def format_rational(x: Rational) -> str:
    """Render as "p/q" in lowest terms with q > 0 (Fraction's normal form)."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Accepts "p/q", integer, or decimal strings; a zero denominator, an
    over-long text or a decimal exponent beyond +-MAX_DECIMAL_EXPONENT is a
    ValueError like any other malformed text."""
    text = str(text).strip()
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"rational text longer than {MAX_RATIONAL_CHARS} characters")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


class MomentSeq(Record):
    """Moments of orders 1..K of a single variable; order 0 is implicitly 1.
    Immutable, and equal sequences hash alike."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: Iterable[Rational]):
        self._set(tuple(Fraction(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.values)

    def moment(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        if not 1 <= k <= self.order:
            raise InsufficientMomentsError(
                f"moment of order {k} requested, only {self.order} supplied"
            )
        return self.values[k - 1]


class CumulantSeq(Record):
    """Free cumulants of orders 1..K of a single variable; immutable."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: Iterable[Rational]):
        self._set(tuple(Fraction(v) for v in values))


def _free_transform(values: Sequence[Fraction], to_moments: bool) -> tuple[Fraction, ...]:
    """Moments from free cumulants (``to_moments``) or free cumulants from
    moments, order by order on one power table.

    Splitting off the block of the first element gives
    m_n = sum_{s=1..n} kappa_s [z^(n-s)] M(z)^s, with M(z) = sum_i m_i z^i
    and m_0 = 1.  powers[s][t] = [z^t] M(z)^s, and the anti-diagonal
    s + t = n is filled from the earlier ones before order n, so the line
    m_n = kappa_n + sum_{s<n} kappa_s powers[s][n-s] gives m_n from kappa_n
    or kappa_n from m_n.  O(K^3) in all; zero moments and cumulants are
    skipped."""
    moments = [(0, Fraction(1))]  # (i, m_i) for the non-zero moments, m_0 = 1
    kappas: list[Fraction] = []
    powers = [[Fraction(1)]]  # row 0 is 1, 0, 0, ...
    out = []
    for n, value in enumerate(values, 1):
        powers[0].append(Fraction(0))
        powers.append([Fraction(1)])
        for s in range(1, n):
            t, prev = n - s, powers[s - 1]
            powers[s].append(sum(m * prev[t - i] for i, m in moments if i <= t and prev[t - i]))
        line = sum(k * powers[s][n - s] for s, k in enumerate(kappas, 1) if k)
        kappa, moment = (value, value + line) if to_moments else (value - line, value)
        kappas.append(kappa)
        if moment:
            moments.append((n, moment))
        out.append(moment if to_moments else kappa)
    return tuple(out)


def moments_from_free_cumulants(cs: CumulantSeq) -> MomentSeq:
    """Moments as sums of cumulant products over non-crossing partitions."""
    return MomentSeq(_free_transform(cs.values, to_moments=True))


def free_cumulants_from_moments(ms: MomentSeq) -> CumulantSeq:
    """Inverse transform, solving the same line for each cumulant in turn."""
    return CumulantSeq(_free_transform(ms.values, to_moments=False))


def integer_cumulants(ms: MomentSeq, order: int) -> tuple[int, list[int]]:
    """(D, [kappa_k D^k for k = 1..min(order, ms.order)]): only the first
    ``order`` moments are transformed, and D is the lcm of those free
    cumulants' denominators, so every entry is an integer."""
    kappas = free_cumulants_from_moments(MomentSeq(ms.values[:order])).values
    scale = math.lcm(*(k.denominator for k in kappas))
    return scale, [k.numerator * (scale**size // k.denominator) for size, k in enumerate(kappas, 1)]
