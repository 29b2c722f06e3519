"""Moment/cumulant calculus over exact rationals.

The single-variable free moment-cumulant transform pair is the workhorse: a
moment sequence and its free cumulant sequence determine each other through
sums over non-crossing partitions.  Both directions are implemented by the
triangular recursion obtained from splitting off the block of the first
element, which is the same sum reorganised; the literal partition-sum
formulas are exercised against it in the tests.

On top of that, :func:`integer_cumulants` scales a leg's free cumulants to
integers over one common denominator, which is all the tensor CLT engine
reads of a leg: its transfer matrix weighs every block by the cumulant of the
block's size.

Everything is exact rational arithmetic; floats never appear.  Module-level
caches are behind ``functools.lru_cache`` (internally locked), so concurrent
readers get bit-identical results.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .limits import InsufficientMomentsError

Rational = Fraction | int

# Bounds on rational text, checked before Fraction runs: Fraction builds 10^e
# exactly for a decimal exponent e, so "1e100000000" would stall, not fail.
MAX_RATIONAL_CHARS = 10_000
MAX_DECIMAL_EXPONENT = 1_000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


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


@dataclass(frozen=True)
class MomentSeq:
    """Moments of orders 1..K of a single variable; order 0 is implicitly 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

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

    @classmethod
    def from_rationals(cls, values: Iterable[Rational]) -> "MomentSeq":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def point_mass(cls, location: Rational, order: int) -> "MomentSeq":
        lam = Fraction(location)
        return cls(tuple(lam**k for k in range(1, order + 1)))

    def to_json_list(self) -> list[str]:
        return [format_rational(v) for v in self.values]

    @classmethod
    def from_json_list(cls, items: Iterable[str]) -> "MomentSeq":
        return cls(tuple(parse_rational(s) for s in items))


@dataclass(frozen=True)
class CumulantSeq:
    """Free cumulants of orders 1..K of a single variable."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    @property
    def order(self) -> int:
        return len(self.values)

    def cumulant(self, k: int) -> Fraction:
        if not 1 <= k <= self.order:
            raise InsufficientMomentsError(
                f"cumulant of order {k} requested, only {self.order} supplied"
            )
        return self.values[k - 1]


def _composition_sums(parts: Sequence[Fraction], count: int, total: int) -> Fraction:
    """Sum over compositions (i_1, ..., i_count) of `total` with i_j >= 0 of
    the products parts[i_1] * ... * parts[i_count], parts[0] included."""
    row = [Fraction(0)] * (total + 1)
    row[0] = Fraction(1)
    for _ in range(count):
        nxt = [Fraction(0)] * (total + 1)
        for t in range(total + 1):
            acc = Fraction(0)
            for i in range(t + 1):
                if row[t - i]:
                    acc += parts[i] * row[t - i]
            nxt[t] = acc
        row = nxt
    return row[total]


def moments_from_free_cumulants(cs: CumulantSeq) -> MomentSeq:
    """Moments as sums of cumulant products over non-crossing partitions,
    evaluated by recursing on the block of the first element."""
    K = cs.order
    moments: list[Fraction] = [Fraction(1)]  # order 0
    for n in range(1, K + 1):
        total = Fraction(0)
        for s in range(1, n + 1):
            kappa = cs.cumulant(s)
            if kappa:
                total += kappa * _composition_sums(moments, s, n - s)
        moments.append(total)
    return MomentSeq(tuple(moments[1:]))


def free_cumulants_from_moments(ms: MomentSeq) -> CumulantSeq:
    """Inverse transform, solving the same triangular system order by order."""
    K = ms.order
    padded = [Fraction(1)] + list(ms.values)
    kappas: list[Fraction] = []
    for n in range(1, K + 1):
        lower = Fraction(0)
        for s in range(1, n):
            if kappas[s - 1]:
                lower += kappas[s - 1] * _composition_sums(padded, s, n - s)
        kappas.append(ms.moment(n) - lower)
    return CumulantSeq(tuple(kappas))


@lru_cache(maxsize=2)  # the two legs of the input tensor_clt is reading
def _cumulants_of(ms: MomentSeq) -> tuple[Fraction, ...]:
    return free_cumulants_from_moments(ms).values


def integer_cumulants(ms: MomentSeq, order: int) -> tuple[int, list[int]]:
    """(D, [kappa_k D^k for k = 1..min(order, ms.order)]): only the first
    ``order`` moments are transformed, and D is the lcm of those free
    cumulants' denominators, so every entry is an integer."""
    kappas = _cumulants_of(MomentSeq(ms.values[:order]))
    scale = math.lcm(*(k.denominator for k in kappas))
    return scale, [k.numerator * (scale**size // k.denominator) for size, k in enumerate(kappas, 1)]
