"""Set partitions of {1, ..., n} and their lattice structure.

A bi-non-crossing partition is a canonical :class:`SetPartition`, a
meandric system a pair of them, and the tests' oracles are built on it too.
This module provides

* the non-crossing test, one scan with a stack of open blocks over a word of
  block labels (:func:`is_noncrossing_word`), read in position order for a
  partition and in a side map's reading order for a bi-non-crossing one;
* enumeration of all partitions (restricted-growth strings), of the
  non-crossing family (the same walk, pruned by the open-block stack) and of
  non-crossing pairings;
* the size of a join of partitions (one union-find, behind the loop count
  of one meandric system).

The sum over pairs of non-crossing partitions behind the finite-n tensor-sum
moments and the meander loop histogram never lists them: it is the transfer
matrix of :mod:`bifree.transfer`.

The refinement order with its bottom and top (the partitions into
singletons and into one block), the Mobius function of NC(n) and the crossing
graphs of pairings are test oracles and live in the tests.

Ground sets are 1-indexed.  All values are exact (ints); nothing here touches
floating point.  Every object is immutable, so concurrent use is safe.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator, Sequence

from .limits import Record

Block = tuple[int, ...]


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (binomial recurrence)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    """n-th Catalan number, the size of the non-crossing family NC(n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


class SetPartition(Record):
    """A partition of {1, ..., n} in canonical form.

    Blocks are stored as tuples sorted ascending, and the list of blocks is
    ordered by each block's minimum, so equal partitions compare and hash
    equal.  Instances are immutable.
    """

    __slots__ = _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not (1 <= x <= n):
                    raise ValueError(f"element {x} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} repeated")
                seen.add(x)
        if len(seen) != n:
            raise ValueError("blocks do not cover the ground set")
        object.__setattr__(self, "n", n)  # not _set: every enumerated partition comes here
        object.__setattr__(self, "blocks", canon)

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {self.to_text()!r})"

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "SetPartition":
        """Build from a per-element label vector (labels[i-1] for element i)."""
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels, start=1):
            groups.setdefault(lab, []).append(i)
        return cls(len(labels), groups.values())

    def block_index(self) -> tuple[int, ...]:
        """Per-element index of the containing block (element i at [i-1])."""
        index = [0] * self.n
        for bi, b in enumerate(self.blocks):
            for x in b:
                index[x - 1] = bi
        return tuple(index)

    def is_pair_partition(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def is_noncrossing(self) -> bool:
        """No two blocks interleave: its block-index word is non-crossing."""
        return is_noncrossing_word(self.block_index())

    def to_text(self) -> str:
        """Serialize as blocks joined by '|', elements by ',': "1,4|2,5|3,6"."""
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "SetPartition":
        """Parse :meth:`to_text` output.  Without ``n`` the ground set is
        1..(number of listed elements), so a label past that count is refused
        before anything is sized by it."""
        text = text.strip()
        blocks = []
        if text:
            for part in text.split("|"):
                blocks.append(tuple(int(tok) for tok in part.split(",")))
        size = n if n is not None else sum(map(len, blocks))
        return cls(size, blocks)


def is_noncrossing_word(labels: Sequence[Hashable]) -> bool:
    """True iff no i < j < k < l has labels[i] == labels[k] != labels[j] ==
    labels[l], that is, iff grouping the positions by label gives a
    non-crossing partition.

    One scan with a stack of open blocks: a label seen before may recur only
    while its block is on top, since a block opened after it and still open
    would interleave with it.  A block leaves the stack at its last position.
    The labels may be any hashable values, in any order of first appearance.
    """
    last = {lab: pos for pos, lab in enumerate(labels)}
    opened = set()
    stack = []
    for pos, lab in enumerate(labels):
        if lab in opened:
            if stack[-1] != lab:
                return False
        else:
            opened.add(lab)
            stack.append(lab)
        if pos == last[lab]:
            stack.pop()
    return True


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of [n] in canonical form, via restricted-growth strings.

    Yields Bell(n) partitions; n = 0 yields the single empty partition.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    labels = [0] * n

    def rec(pos: int, top: int) -> Iterator[SetPartition]:
        if pos == n:
            yield SetPartition.from_labels(labels)
            return
        for lab in range(top + 1):
            labels[pos] = lab
            yield from rec(pos + 1, max(top, lab + 1))

    yield from rec(0, 0)


def enumerate_noncrossing(n: int) -> Iterator[SetPartition]:
    """All non-crossing partitions of [n]; count = Catalan(n).

    A restricted-growth walk that prunes crossing prefixes with the open-block
    stack of :func:`is_noncrossing_word`: an existing label may be reused only
    while its block is on the stack, and reusing it pops every block above it
    (those can never continue without a crossing).  Stack labels ascend, so
    the partitions come in the same order as filtering
    :func:`enumerate_partitions`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    labels = [0] * n

    def rec(pos: int, stack: tuple[int, ...], top: int) -> Iterator[SetPartition]:
        if pos == n:
            yield SetPartition.from_labels(labels)
            return
        for depth, lab in enumerate(stack):
            labels[pos] = lab
            yield from rec(pos + 1, stack[: depth + 1], top)
        labels[pos] = top
        yield from rec(pos + 1, stack + (top,), top + 1)

    yield from rec(0, (), 0)


def enumerate_pair_noncrossing(n: int) -> Iterator[SetPartition]:
    """Non-crossing pairings of [n]; empty for odd n, Catalan(n/2) otherwise."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return

    def gen(points: tuple[int, ...]) -> Iterator[tuple[Block, ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        for j in range(1, len(points), 2):
            partner = points[j]
            inside = points[1:j]
            outside = points[j + 1:]
            for a in gen(inside):
                for b in gen(outside):
                    yield ((first, partner),) + a + b

    for blocks in gen(tuple(range(1, n + 1))):
        yield SetPartition(n, blocks)


def join_size(n: int, blocks: Iterable[Sequence[int]]) -> int:
    """Number of blocks of the finest partition of [n] that contains every
    given block in one of its blocks (the join of the partitions the blocks
    come from), by union-find over the n elements."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for block in blocks:
        root = find(block[0])
        for x in block[1:]:
            other = find(x)
            if other != root:
                parent[other] = root
                count -= 1
    return count
