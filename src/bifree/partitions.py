"""Set partitions of {1, ..., n} and their lattice structure.

Everything downstream (bi-non-crossing families, cumulant transforms, the
tensor CLT engine) is built on the canonical :class:`SetPartition`.  This
module provides

* enumeration of all partitions (restricted-growth strings), of the
  non-crossing family (the same walk, pruned by the open-block stack), of
  non-crossing pairings, and of all pairings;
* a cached tuple of NC(n) for the latest two n, which every caller that
  needs the whole family reads instead of enumerating again;
* the refinement order and the Mobius function of the non-crossing lattice,
  computed by recursion with a memo local to one call;
* the size of a join of partitions (one union-find, behind the loop count
  of one meandric system);
* the sum of w(sigma) w(tau) x^|sigma v tau| over pairs of non-crossing
  partitions, by one transfer matrix over positions: the finite-n tensor-sum
  moments and the meander loop histogram are both this sum;
* the intersection (crossing) graph of a partition and the classification of
  pairings by connectivity / bipartiteness of that graph.  The exhaustive
  bipartite-connected count is the test oracle for the closed form in
  :mod:`bifree.limit_law`.

Ground sets are 1-indexed.  All values are exact (ints); nothing here touches
floating point.  Every object is immutable, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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


class SetPartition:
    """A partition of {1, ..., n} in canonical form.

    Blocks are stored as tuples sorted ascending, and the list of blocks is
    ordered by each block's minimum, so equal partitions compare and hash
    equal.  Instances are immutable.
    """

    __slots__ = ("n", "blocks", "_index", "_hash", "_nc")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        index = [0] * n
        seen: set[int] = set()
        for bi, b in enumerate(canon):
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not (1 <= x <= n):
                    raise ValueError(f"element {x} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} repeated")
                seen.add(x)
                index[x - 1] = bi
        if len(seen) != n:
            raise ValueError("blocks do not cover the ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", canon)
        object.__setattr__(self, "_index", tuple(index))
        object.__setattr__(self, "_hash", hash((n, canon)))
        object.__setattr__(self, "_nc", None)

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {self.to_text()!r})"

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls(n, [(i,) for i in range(1, n + 1)])

    @classmethod
    def full(cls, n: int) -> "SetPartition":
        if n == 0:
            return cls(0, [])
        return cls(n, [tuple(range(1, n + 1))])

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "SetPartition":
        """Build from a per-element label vector (labels[i-1] for element i)."""
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels, start=1):
            groups.setdefault(lab, []).append(i)
        return cls(len(labels), groups.values())

    def block_index(self) -> tuple[int, ...]:
        """Per-element index of the containing block (element i at [i-1])."""
        return self._index

    def is_pair_partition(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def is_noncrossing(self) -> bool:
        """Linear scan with a stack of open blocks: a block may only continue
        when it sits on top, otherwise two blocks interleave."""
        if self._nc is None:
            object.__setattr__(self, "_nc", self._compute_noncrossing())
        return self._nc

    def _compute_noncrossing(self) -> bool:
        idx = self._index
        last = [b[-1] for b in self.blocks]
        opened: set[int] = set()
        stack: list[int] = []
        for x in range(1, self.n + 1):
            b = idx[x - 1]
            if b in opened:
                if not stack or stack[-1] != b:
                    return False
            else:
                opened.add(b)
                stack.append(b)
            if x == last[b]:
                stack.pop()
        return True

    def to_text(self) -> str:
        """Serialize as blocks joined by '|', elements by ',': "1,4|2,5|3,6"."""
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "SetPartition":
        text = text.strip()
        blocks = []
        if text:
            for part in text.split("|"):
                blocks.append(tuple(int(tok) for tok in part.split(",")))
        size = n if n is not None else max((x for b in blocks for x in b), default=0)
        return cls(size, blocks)


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of [n] in canonical form, via restricted-growth strings.

    Yields Bell(n) partitions; n = 0 yields the single empty partition.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield SetPartition(0, [])
        return
    labels = [0] * n

    def rec(pos: int, top: int) -> Iterator[SetPartition]:
        if pos == n:
            yield SetPartition.from_labels(labels)
            return
        for lab in range(top + 1):
            labels[pos] = lab
            yield from rec(pos + 1, max(top, lab + 1))

    yield from rec(1, 1)  # labels[0] is fixed at 0


def enumerate_noncrossing(n: int) -> Iterator[SetPartition]:
    """All non-crossing partitions of [n]; count = Catalan(n).

    A restricted-growth walk that prunes crossing prefixes with the open-block
    stack of :meth:`SetPartition.is_noncrossing`: an existing label may be
    reused only while its block is on the stack, and reusing it pops every
    block above it (those can never continue without a crossing).  Stack
    labels ascend, so the partitions come in the same order as filtering
    :func:`enumerate_partitions`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield SetPartition(0, [])
        return
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

    yield from rec(1, (0,), 1)  # labels[0] is fixed at 0


def enumerate_pair_noncrossing(n: int) -> Iterator[SetPartition]:
    """Non-crossing pairings of [n]; empty for odd n, Catalan(n/2) otherwise."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return
    if n == 0:
        yield SetPartition(0, [])
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


def enumerate_pairings(n: int) -> Iterator[SetPartition]:
    """All pair partitions of [n] (crossing allowed); (n-1)!! of them."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return
    if n == 0:
        yield SetPartition(0, [])
        return

    def gen(points: tuple[int, ...]) -> Iterator[tuple[Block, ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        for j in range(1, len(points)):
            partner = points[j]
            rest = points[1:j] + points[j + 1:]
            for tail in gen(rest):
                yield ((first, partner),) + tail

    for blocks in gen(tuple(range(1, n + 1))):
        yield SetPartition(n, blocks)


def is_refinement(sigma: SetPartition, pi: SetPartition) -> bool:
    """True iff every block of sigma lies inside a single block of pi."""
    if sigma.n != pi.n:
        raise ValueError("partitions live on different ground sets")
    idx = pi.block_index()
    for b in sigma.blocks:
        target = idx[b[0] - 1]
        for x in b[1:]:
            if idx[x - 1] != target:
                return False
    return True


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


def _side_moves(
    needs: tuple[int, ...], labels: tuple[int, ...], weights: Sequence[int], rest: int
) -> list[tuple]:
    """A side's moves at one position, with ``rest`` positions after it, from
    its stack of open blocks (members each still needs, component labels):
    (weight, needs, labels, label of the position's block).  The position
    joins the top block, or opens a block of a size s that the pending members
    leave room for, with weight weights[s - 1].  A new block of size >= 2 is
    labelled -1 and a singleton None."""
    moves = []
    if needs:
        if needs[-1] > 1:
            moves.append((1, needs[:-1] + (needs[-1] - 1,), labels, labels[-1]))
        else:
            moves.append((1, needs[:-1], labels[:-1], labels[-1]))
    room = rest - sum(needs)
    for size, weight in enumerate(weights[: room + 1], 1):
        if weight and size == 1:
            moves.append((weight, needs, labels, None))
        elif weight:
            moves.append((weight, needs + (size - 1,), labels + (-1,), -1))
    return moves


def nc_pair_join_counts(
    m: int, left_weights: Sequence[int], right_weights: Sequence[int]
) -> dict[int, int]:
    """{b: sum of w_L(sigma) w_R(tau) over the pairs (sigma, tau) of NC(m)
    with |sigma v tau| = b and no common singleton}, w(sigma) the product of
    weights[|block| - 1] over the blocks of sigma; zero totals are left out.

    A transfer matrix over positions 1..m (I. Jensen, J. Phys. A 33 (2000)
    5953, for meanders).  Each side keeps a stack of its open blocks, each
    with the members it still needs and a join-component label; being
    non-crossing, the next position may only join the top block or open a
    new one, whose size is chosen (and weighed) when it opens.  The position
    merges the components of its two blocks.  A component closes, adding one
    power of x, when no open block on either side carries its label.  Labels
    are renumbered by first appearance, so states equal up to naming merge,
    and no state has more pending members than positions left.

    A state's polynomial in x is one integer, its value at x = 2^bits: sums
    and shifts act on the packed coefficients exactly, and a side's
    |weights| over all move sequences add up to at most (1 + sum |w|)^m, so
    bits above the bit length of the two sides' product decode every
    coefficient of the result as a signed digit.
    """
    left_weights, right_weights = left_weights[:m], right_weights[:m]
    bound = (1 + sum(map(abs, left_weights))) ** m * (1 + sum(map(abs, right_weights))) ** m
    bits = bound.bit_length() + 1
    states = {((), (), (), ()): 1}  # (left needs, labels, right needs, labels) -> packed
    for pos in range(m):
        rest = m - 1 - pos
        reached: dict[tuple, int] = {}
        canonical: dict[tuple, tuple] = {}  # labels -> labels renumbered by first appearance
        left_moves: dict[tuple, list] = {}  # (needs, labels) -> that side's moves here
        right_moves: dict[tuple, list] = {}
        for (lneeds, llabels, rneeds, rlabels), value in states.items():
            if (lneeds, llabels) not in left_moves:
                left_moves[lneeds, llabels] = _side_moves(lneeds, llabels, left_weights, rest)
            if (rneeds, rlabels) not in right_moves:
                right_moves[rneeds, rlabels] = _side_moves(rneeds, rlabels, right_weights, rest)
            rmoves = right_moves[rneeds, rlabels]
            for lw, lneeds_next, lmoved, la in left_moves[lneeds, llabels]:
                lvalue = lw * value
                for rw, rneeds_next, rmoved, ra in rmoves:
                    ls, rs = lmoved, rmoved
                    if la is None:  # a left singleton
                        if ra is None:
                            continue  # a common singleton
                        label = ra
                    elif ra is None or ra == la:
                        label = la
                    elif la == -1:  # a new left block joins the right block's component
                        ls, label = ls[:-1] + (ra,), ra
                    elif ra == -1:
                        rs, label = rs[:-1] + (la,), la
                    else:  # the position merges two components
                        ls = tuple(la if x == ra else x for x in ls)
                        rs = tuple(la if x == ra else x for x in rs)
                        label = la
                    renumbered = canonical.get((ls, rs))
                    if renumbered is None:
                        first: dict[int, int] = {}
                        renumbered = canonical[ls, rs] = (
                            tuple(first.setdefault(x, len(first)) for x in ls),
                            tuple(first.setdefault(x, len(first)) for x in rs),
                        )
                    key = (lneeds_next, renumbered[0], rneeds_next, renumbered[1])
                    term = rw * lvalue
                    if label not in ls and label not in rs:  # its component closes
                        term <<= bits
                    reached[key] = reached.get(key, 0) + term
        states = reached
    packed = states.get(((), (), (), ()), 0)
    counts = {}
    for size in range(m + 1):
        digit = packed & ((1 << bits) - 1)
        if digit >> (bits - 1):
            digit -= 1 << bits
        if digit:
            counts[size] = digit
        packed = (packed - digit) >> bits
    return counts


# the latest two orders: the vertically split family reads one order for both
# sides, and a sweep over n reads each n once (NC(10) alone is 16,796 partitions)
@lru_cache(maxsize=2)
def _noncrossing_list(n: int) -> tuple[SetPartition, ...]:
    """NC(n), enumerated once for consecutive callers and shared by them."""
    return tuple(enumerate_noncrossing(n))


def mobius_nc(pi: SetPartition, sigma: SetPartition) -> int:
    """Mobius function of the non-crossing partition lattice.

    Defined by the recursion sum_{pi <= tau <= sigma} mu(tau, sigma) =
    [pi == sigma], and zero when pi is not a refinement of sigma.
    """
    if pi.n != sigma.n:
        raise ValueError("partitions live on different ground sets")
    if not pi.is_noncrossing() or not sigma.is_noncrossing():
        raise ValueError("mobius_nc requires non-crossing arguments")
    if not is_refinement(pi, sigma):
        return 0
    interval = [
        tau
        for tau in _noncrossing_list(pi.n)
        if is_refinement(pi, tau) and is_refinement(tau, sigma)
    ]
    memo: dict[SetPartition, int] = {sigma: 1}  # sigma is fixed: key by tau alone

    def mu(tau: SetPartition) -> int:
        # mu(tau, sigma) = -sum over tau < rho <= sigma of mu(rho, sigma)
        if tau not in memo:
            memo[tau] = -sum(mu(rho) for rho in interval if rho != tau and is_refinement(tau, rho))
        return memo[tau]

    return mu(pi)


def blocks_cross(a: Sequence[int], b: Sequence[int]) -> bool:
    """Interleaving test: blocks cross iff the merged order switches between
    them at least three times (the pattern a < b < a < b or its mirror)."""
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    switches = 0
    prev = merged[0][1]
    for _, lab in merged[1:]:
        if lab != prev:
            switches += 1
            prev = lab
    return switches >= 3


@dataclass(frozen=True)
class IntersectionGraph:
    """Crossing graph of a partition: one vertex per block, an edge when two
    blocks interleave.  Irreflexive and symmetric by construction."""

    num_vertices: int
    edges: frozenset[tuple[int, int]]  # pairs (i, j) with i < j

    def neighbours(self, v: int) -> set[int]:
        out = set()
        for i, j in self.edges:
            if i == v:
                out.add(j)
            elif j == v:
                out.add(i)
        return out

    def is_connected(self) -> bool:
        if self.num_vertices <= 1:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in self.neighbours(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.num_vertices

    def is_bipartite(self) -> bool:
        colour: dict[int, int] = {}
        for start in range(self.num_vertices):
            if start in colour:
                continue
            colour[start] = 0
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for w in self.neighbours(v):
                    if w not in colour:
                        colour[w] = colour[v] ^ 1
                        frontier.append(w)
                    elif colour[w] == colour[v]:
                        return False
        return True


def intersection_graph(pi: SetPartition) -> IntersectionGraph:
    """Graph on the blocks of pi with edges between interleaving blocks."""
    edges = set()
    for i in range(len(pi.blocks)):
        for j in range(i + 1, len(pi.blocks)):
            if blocks_cross(pi.blocks[i], pi.blocks[j]):
                edges.add((i, j))
    return IntersectionGraph(len(pi.blocks), frozenset(edges))


@dataclass(frozen=True)
class PairPartitionClass:
    """Membership flags for the pairing families classified by the
    intersection graph: all pairings, connected ones, bipartite-connected."""

    is_pair: bool
    is_connected: bool
    is_bipartite_connected: bool


def classify_pair_partition(pi: SetPartition) -> PairPartitionClass:
    g = intersection_graph(pi)
    connected = g.is_connected()
    return PairPartitionClass(
        is_pair=pi.is_pair_partition(),
        is_connected=connected,
        is_bipartite_connected=connected and g.is_bipartite(),
    )


@lru_cache(maxsize=None)
def count_bicon_pairs(two_j: int) -> int:
    """Number of pairings of [two_j] whose intersection graph is connected
    and bipartite, by exhaustive classification of all (two_j - 1)!! pairings.
    """
    if two_j < 2 or two_j % 2 == 1:
        raise ValueError("argument must be even and >= 2")
    count = 0
    for p in enumerate_pairings(two_j):
        c = classify_pair_partition(p)
        if c.is_bipartite_connected:
            count += 1
    return count
