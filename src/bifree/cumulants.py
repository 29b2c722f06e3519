"""Moment/cumulant calculus over exact rationals.

The single-variable free moment-cumulant transform pair is the workhorse: a
moment sequence and its free cumulant sequence determine each other through
sums over non-crossing partitions.  Both directions are implemented by the
triangular recursion obtained from splitting off the block of the first
element, which is the same sum reorganised; the literal partition-sum
formulas are exercised against it in the tests.

On top of that sit the pieces the tensor CLT engine consumes:

* coloured free moments of identically distributed free copies: sums over
  non-crossing partitions with monochromatic blocks, evaluated by the same
  first-block recursion (the block of the first letter may hold only that
  letter's colour, and the gaps between its members are shorter words) and
  memoised per law by canonical colour word;
* evaluation of a vertically split bi-non-crossing cumulant with variable or
  scalar operands on either side.  Two vanishing rules are enforced rather
  than re-derived: blocks mixing colours give zero (mixed cumulants vanish)
  and blocks of size at least two containing a scalar give zero.  A scalar in
  a singleton block contributes itself.

Everything is exact rational arithmetic (the coloured-moment memo keeps
integers over a common denominator); floats never appear.  Module-level
caches are behind ``functools.lru_cache`` (internally locked), so concurrent
readers get bit-identical results; a :class:`ColouredMoments` memo belongs to
whoever built it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .bichromatic import LEFT, RIGHT, BNCPartition, ChiMap, is_vertically_split
from .limits import InsufficientMomentsError
from .partitions import _noncrossing_list

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


@lru_cache(maxsize=16)  # the two legs of each of tensor_clt's 8 cached engines
def _cumulants_of(ms: MomentSeq) -> tuple[Fraction, ...]:
    return free_cumulants_from_moments(ms).values


def _canonical_colours(colours: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for c in colours:
        out.append(relabel.setdefault(c, len(relabel)))
    return tuple(out)


class ColouredMoments:
    """Joint moments phi(x_{c_1} ... x_{c_r}) of identically distributed free
    copies of one law, memoised by canonical colour word (colours renumbered
    0, 1, 2, ... in order of first appearance).

    Only non-crossing partitions with monochromatic blocks contribute, each
    as the product of the plain free cumulants over its block sizes.  A word
    is evaluated by splitting off the block of its first letter: that block
    holds positions of the first colour only and weighs kappa_|block|, and the
    gaps between its members are shorter words, evaluated independently.

    The memo holds integers.  With ``scale`` the lcm D of the cumulant
    denominators, kappa_k D^k is an integer, and the block sizes of a word of
    length r add up to r, so D^r times its moment is an integer too.
    """

    def __init__(self, ms: MomentSeq):
        kappas = _cumulants_of(ms)
        self.scale = math.lcm(*(k.denominator for k in kappas))
        self._kappas = [
            k.numerator * (self.scale**size // k.denominator)
            for size, k in enumerate(kappas, start=1)
        ]
        self._memo: dict[tuple[int, ...], int] = {(): 1}

    def word(self, word: tuple[int, ...]) -> int:
        """D^len(word) times the moment of a canonical word no longer than the
        law's moment order."""
        value = self._memo.get(word)
        if value is None:
            value = self._memo[word] = self._first_block(word)
        return value

    def _first_block(self, word: tuple[int, ...]) -> int:
        r = len(word)
        same = [i for i in range(1, r) if word[i] == 0]
        total = 0
        for size in range(len(same) + 1):
            kappa = self._kappas[size]
            if not kappa:
                continue
            for members in combinations(same, size):
                term = kappa
                lo = 0
                for hi in members + (r,):
                    term *= self.word(_canonical_colours(word[lo + 1 : hi]))
                    if not term:
                        break
                    lo = hi
                total += term
        return total


def free_coloured_moment(colours: Sequence[int], ms: MomentSeq) -> Fraction:
    """Joint moment of identically distributed free copies indexed by colour,
    by a fresh :class:`ColouredMoments` memo (hold one to evaluate many
    words of the same law)."""
    r = len(colours)
    if r > ms.order:
        raise InsufficientMomentsError(
            f"word of length {r} needs moments up to order {r}, have {ms.order}"
        )
    memo = ColouredMoments(ms)
    return Fraction(memo.word(_canonical_colours(colours)), memo.scale**r)


@dataclass(frozen=True)
class Operand:
    """One position of a two-sided word: a variable of a given colour on one
    side, or a scalar (whose value rides along)."""

    side: str
    colour: int = 0
    value: Fraction | None = None  # None marks a variable

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError("side must be 'L' or 'R'")
        if self.value is not None:
            object.__setattr__(self, "value", Fraction(self.value))


def _block_value(
    block: Sequence[int],
    ops: Sequence[Operand],
    kappas_left: tuple[Fraction, ...],
    kappas_right: tuple[Fraction, ...],
) -> Fraction:
    """Cumulant of the operands in one single-sided block."""
    members = [ops[x - 1] for x in block]
    kappas = kappas_left if members[0].side == LEFT else kappas_right
    if len(members) == 1:
        op = members[0]
        return op.value if op.value is not None else kappas[0]
    # order >= 2: scalar operands and mixed colours kill the block
    if any(op.value is not None for op in members):
        return Fraction(0)
    first = members[0].colour
    if any(op.colour != first for op in members[1:]):
        return Fraction(0)
    if len(members) > len(kappas):
        raise InsufficientMomentsError(
            f"block of size {len(members)} needs cumulants up to that order"
        )
    return kappas[len(members) - 1]


def kappa_bnc_vs(
    tau: BNCPartition,
    ops: Sequence[Operand],
    ms_left: MomentSeq,
    ms_right: MomentSeq,
) -> Fraction:
    """Bi-non-crossing cumulant of a vertically split partition: the product
    of single-sided free cumulants over its blocks, with the scalar and
    colour vanishing rules applied per block.

    Non-vertically-split input is a contract violation (callers prune those
    partitions, whose cumulants vanish identically in this setting).
    """
    if len(ops) != tau.n:
        raise ValueError("operand list does not match the partition's ground set")
    for pos in range(1, tau.n + 1):
        if ops[pos - 1].side != tau.chi.side(pos):
            raise ValueError(f"operand side at position {pos} contradicts the side map")
    if not is_vertically_split(tau):
        raise ValueError("kappa_bnc_vs requires a vertically split partition")
    kl, kr = _cumulants_of(ms_left), _cumulants_of(ms_right)
    result = Fraction(1)
    for block in tau.partition.blocks:
        result *= _block_value(block, ops, kl, kr)
        if not result:
            return result
    return result


def _vertically_split_position_partitions(chi: ChiMap):
    """Vertically split bi-non-crossing partitions for chi, as raw block
    tuples in position space (one non-crossing partition per side)."""
    lefts = chi.left_positions
    rights = chi.right_positions
    for lp, rp in product(_noncrossing_list(len(lefts)), _noncrossing_list(len(rights))):
        blocks = [tuple(lefts[x - 1] for x in b) for b in lp.blocks]
        blocks += [tuple(rights[x - 1] for x in b) for b in rp.blocks]
        yield blocks


def bnc_moment(
    chi: ChiMap,
    ops: Sequence[Operand],
    ms_left: MomentSeq,
    ms_right: MomentSeq,
) -> Fraction:
    """Expectation of a two-sided word via the bi-free moment-cumulant sum.

    All lefts are taken independent of all rights, so only vertically split
    partitions contribute; blocks mixing colours or touching scalars vanish
    inside the block evaluation.
    """
    if len(ops) != chi.n:
        raise ValueError("operand list does not match the side map")
    for pos in range(1, chi.n + 1):
        if ops[pos - 1].side != chi.side(pos):
            raise ValueError(f"operand side at position {pos} contradicts the side map")
    kl, kr = _cumulants_of(ms_left), _cumulants_of(ms_right)
    total = Fraction(0)
    for blocks in _vertically_split_position_partitions(chi):
        term = Fraction(1)
        for block in blocks:
            term *= _block_value(block, ops, kl, kr)
            if not term:
                break
        total += term
    return total
