"""Left/right position maps and bi-non-crossing partitions.

A :class:`ChiMap` tags each position of a word as a left or a right operand.
Reading the left positions in increasing order and then the right positions in
decreasing order gives a permutation of the ground set; a partition is
bi-non-crossing when it becomes non-crossing after pulling it back through
that permutation, so the family is the image of NC(n) and its lattice is the
non-crossing one.  The vertically split subfamily (no block mixes sides) is
what survives when every left operand is independent of every right operand;
over the alternating map it is one non-crossing partition per side, the pairs
(lp, rp) that :mod:`bifree.tensor_clt` sums over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

from .partitions import SetPartition, _noncrossing_list, enumerate_noncrossing

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


def enumerate_bnc_vs_alt(m: int) -> Iterator[BNCPartition]:
    """Vertically split bi-non-crossing partitions over the alternating map on
    [2m]: one non-crossing partition of the m left nodes (node k at position
    2k-1) paired with one of the m right nodes (node k at position 2k);
    Catalan(m)^2 elements."""
    chi = chi_alternating(m)
    parts = _noncrossing_list(m)
    for lp, rp in product(parts, parts):
        blocks = [tuple(2 * x - 1 for x in b) for b in lp.blocks]
        blocks += [tuple(2 * x for x in b) for b in rp.blocks]
        yield BNCPartition(SetPartition(2 * m, blocks), chi)
