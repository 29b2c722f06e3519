"""Left/right position maps and bi-non-crossing partitions.

A :class:`ChiMap` tags each position of a word as a left or a right operand.
Reading the left positions in increasing order and then the right positions in
decreasing order gives a permutation of the ground set; a partition is
bi-non-crossing when its block labels, read in that permutation's order, form
a non-crossing word, so the family is the image of NC(n) and its lattice is
the non-crossing one.  A bi-non-crossing partition is a plain
:class:`~bifree.partitions.SetPartition`, read against the side map the
caller holds: :func:`enumerate_bnc` yields the images and :func:`is_bnc`
tests any partition.  The vertically split subfamily (no block mixes sides) is
what survives when every left operand is independent of every right operand;
over the alternating map it is one non-crossing partition per side, the pairs
(lp, rp) that :mod:`bifree.tensor_clt` sums over.
"""

from __future__ import annotations

from typing import Iterator

from .limits import Record
from .partitions import SetPartition, enumerate_noncrossing, is_noncrossing_word

LEFT = "L"
RIGHT = "R"


class ChiMap(Record):
    """Assignment of each position 1..n to the left or right side; immutable.
    Its reading permutation is computed once, at construction."""

    __slots__ = ("sides", "permutation")
    _fields = ("sides",)

    def __init__(self, sides: tuple[str, ...]):
        if any(s not in (LEFT, RIGHT) for s in sides):
            raise ValueError("sides must be 'L' or 'R'")
        # image tuple of the reading permutation: left positions ascending,
        # then right positions descending (entry k-1 is the image of k)
        left = (i for i, s in enumerate(sides, start=1) if s == LEFT)
        right = (i for i in range(len(sides), 0, -1) if sides[i - 1] == RIGHT)
        self._set(sides, (*left, *right))

    @property
    def n(self) -> int:
        return len(self.sides)

    @classmethod
    def from_string(cls, text: str) -> "ChiMap":
        return cls(tuple(text.upper()))

    def to_string(self) -> str:
        return "".join(self.sides)


def shuffle(pi: SetPartition, chi: ChiMap) -> SetPartition:
    """Push a partition forward through the reading permutation."""
    perm = chi.permutation
    return SetPartition(pi.n, [tuple(perm[x - 1] for x in b) for b in pi.blocks])


def is_bnc(pi: SetPartition, chi: ChiMap) -> bool:
    """Bi-non-crossing test: the block labels, read in the reading
    permutation's order, form a non-crossing word."""
    if pi.n != chi.n:
        raise ValueError("partition and side map sizes differ")
    index = pi.block_index()
    return is_noncrossing_word([index[x - 1] for x in chi.permutation])


def enumerate_bnc(chi: ChiMap) -> Iterator[SetPartition]:
    """All bi-non-crossing partitions for a side map, as the image of the
    non-crossing family under the reading permutation; Catalan(n) of them,
    each bi-non-crossing by construction."""
    for nc in enumerate_noncrossing(chi.n):
        yield shuffle(nc, chi)
