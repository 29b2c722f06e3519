"""Left/right position maps and bi-non-crossing partitions.

A :class:`ChiMap` tags each position of a word as a left or a right operand.
Reading the left positions in increasing order and then the right positions in
decreasing order gives a permutation of the ground set; a partition is
bi-non-crossing when it becomes non-crossing after pulling it back through
that permutation.  The vertically split subfamily (no block mixes sides) is
what survives when every left operand is independent of every right operand,
and over the alternating map it factors into one non-crossing partition per
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

from .partitions import (
    SetPartition,
    blocks_cross,
    _noncrossing_list,
    enumerate_noncrossing,
    enumerate_pair_noncrossing,
    mobius_nc,
)

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class ChiMap:
    """Assignment of each position 1..n to the left or right side."""

    sides: tuple[str, ...]

    def __post_init__(self):
        if any(s not in (LEFT, RIGHT) for s in self.sides):
            raise ValueError("sides must be 'L' or 'R'")

    @property
    def n(self) -> int:
        return len(self.sides)

    @classmethod
    def from_string(cls, text: str) -> "ChiMap":
        return cls(tuple(text.upper()))

    def to_string(self) -> str:
        return "".join(self.sides)

    @classmethod
    def all_left(cls, n: int) -> "ChiMap":
        return cls((LEFT,) * n)

    @classmethod
    def all_right(cls, n: int) -> "ChiMap":
        return cls((RIGHT,) * n)

    def side(self, position: int) -> str:
        return self.sides[position - 1]

    @cached_property
    def left_positions(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sides, start=1) if s == LEFT)

    @cached_property
    def right_positions(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sides, start=1) if s == RIGHT)

    @cached_property
    def permutation(self) -> tuple[int, ...]:
        """Image tuple of the reading permutation: left positions ascending,
        then right positions descending (entry k-1 is the image of k)."""
        return self.left_positions + tuple(reversed(self.right_positions))

    @cached_property
    def inverse_permutation(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for k, image in enumerate(self.permutation, start=1):
            inv[image - 1] = k
        return tuple(inv)

    def precedes(self, a: int, b: int) -> bool:
        """The total order induced by the reading permutation."""
        inv = self.inverse_permutation
        return inv[a - 1] < inv[b - 1]


def chi_alternating(m: int) -> ChiMap:
    """The alternating map on [2m]: odd positions left, even positions right."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return ChiMap((LEFT, RIGHT) * m)


def unshuffle(pi: SetPartition, chi: ChiMap) -> SetPartition:
    """Pull a partition back through the reading permutation (apply its
    inverse to every element)."""
    inv = chi.inverse_permutation
    return SetPartition(pi.n, [tuple(inv[x - 1] for x in b) for b in pi.blocks])


def shuffle(pi: SetPartition, chi: ChiMap) -> SetPartition:
    """Push a partition forward through the reading permutation."""
    perm = chi.permutation
    return SetPartition(pi.n, [tuple(perm[x - 1] for x in b) for b in pi.blocks])


def is_bnc(pi: SetPartition, chi: ChiMap) -> bool:
    """Bi-non-crossing test: the pulled-back partition is non-crossing."""
    if pi.n != chi.n:
        raise ValueError("partition and side map sizes differ")
    return unshuffle(pi, chi).is_noncrossing()


def is_bnc_interleaving(pi: SetPartition, chi: ChiMap) -> bool:
    """Equivalent direct test: no two blocks interleave in the side order.
    Kept as an independent route for the conjugation-based test above."""
    if pi.n != chi.n:
        raise ValueError("partition and side map sizes differ")
    inv = chi.inverse_permutation
    reordered = [tuple(inv[x - 1] for x in b) for b in pi.blocks]
    for i in range(len(reordered)):
        for j in range(i + 1, len(reordered)):
            if blocks_cross(reordered[i], reordered[j]):
                return False
    return True


@dataclass(frozen=True)
class BNCPartition:
    """A partition paired with a side map under which it is bi-non-crossing."""

    partition: SetPartition
    chi: ChiMap

    def __post_init__(self):
        if not is_bnc(self.partition, self.chi):
            raise ValueError("partition is not bi-non-crossing for this side map")

    @property
    def n(self) -> int:
        return self.partition.n


def enumerate_bnc(chi: ChiMap) -> Iterator[BNCPartition]:
    """All bi-non-crossing partitions for a side map, as the image of the
    non-crossing family under the reading permutation; Catalan(n) of them."""
    for nc in enumerate_noncrossing(chi.n):
        yield BNCPartition(shuffle(nc, chi), chi)


def is_vertically_split(p: BNCPartition) -> bool:
    """True iff no block mixes left and right positions."""
    sides = p.chi.sides
    for b in p.partition.blocks:
        first = sides[b[0] - 1]
        if any(sides[x - 1] != first for x in b[1:]):
            return False
    return True


def _split_blocks(left_part: SetPartition, right_part: SetPartition, m: int):
    """Map node partitions on each side of the alternating map to position
    blocks: left node k sits at position 2k-1, right node k at 2k."""
    blocks = [tuple(2 * x - 1 for x in b) for b in left_part.blocks]
    blocks += [tuple(2 * x for x in b) for b in right_part.blocks]
    return SetPartition(2 * m, blocks)


def enumerate_bnc_vs_alt(m: int) -> Iterator[BNCPartition]:
    """Vertically split bi-non-crossing partitions over the alternating map on
    [2m]: one non-crossing partition of the m left nodes paired with one of
    the m right nodes; Catalan(m)^2 elements."""
    chi = chi_alternating(m)
    parts = _noncrossing_list(m)
    for lp, rp in product(parts, parts):
        yield BNCPartition(_split_blocks(lp, rp, m), chi)


def enumerate_bnc_vs2_alt(m: int) -> Iterator[BNCPartition]:
    """The pair-block subfamily of enumerate_bnc_vs_alt; empty for odd m."""
    chi = chi_alternating(m)
    left_pairings = list(enumerate_pair_noncrossing(m))
    for lp, rp in product(left_pairings, left_pairings):
        yield BNCPartition(_split_blocks(lp, rp, m), chi)


def mobius_bnc(pi: BNCPartition, sigma: BNCPartition) -> int:
    """Mobius function on the bi-non-crossing lattice, delegated through the
    reading permutation to the non-crossing one."""
    if pi.chi != sigma.chi:
        raise ValueError("side maps differ")
    return mobius_nc(unshuffle(pi.partition, pi.chi), unshuffle(sigma.partition, sigma.chi))
