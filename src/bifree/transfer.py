"""The transfer matrix over pairs of non-crossing partitions.

The finite-n tensor-sum moments (:mod:`bifree.tensor_clt`) and the meander
loop histogram (:mod:`bifree.meanders`) are both the sum of
w_L(sigma) w_R(tau) x^|sigma v tau| over pairs of non-crossing partitions, and
one run of :func:`nc_pair_join_counts` gives it for every order up to the
requested one.  The module imports nothing from the package, so the exact
engine loads it without the partition objects and their enumerators.
"""

from __future__ import annotations

from typing import Sequence


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


def _renumber(first_side: tuple[int, ...], second_side: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Both sides' labels renumbered by first appearance, reading
    ``first_side`` and then ``second_side``."""
    first: dict[int, int] = {}
    return (
        tuple(first.setdefault(x, len(first)) for x in first_side),
        tuple(first.setdefault(x, len(first)) for x in second_side),
    )


def nc_pair_join_counts(
    m: int, left_weights: Sequence[int], right_weights: Sequence[int]
) -> list[dict[int, int]]:
    """[counts_0, ..., counts_m], where counts_k is {b: sum of
    w_L(sigma) w_R(tau) over the pairs (sigma, tau) of NC(k) with
    |sigma v tau| = b and no common singleton}, w(sigma) the product of
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

    The pairs of NC(k) are the paths that reach the empty state after
    position k, so one run reads every order off it.  Pruning by the
    positions left to m keeps every such path, since a path that closes
    by position k never has more pending members than positions left to k.

    When the two sides' weights are equal, swapping the sides maps each pair
    (sigma, tau) to (tau, sigma) with the same weight and join, and moves
    commute with the swap.  Each state is then keyed by the smaller of
    itself and its swap, and its value is the sum over that orbit, so the
    run keeps about half the states.

    A state's polynomial in x is one integer, its value at x = 2^bits: sums
    and shifts act on the packed coefficients exactly, and a side's
    |weights| over all move sequences add up to at most (1 + sum |w|)^m, so
    bits above the bit length of the two sides' product decode every
    coefficient of every order as a signed digit.
    """
    left_weights, right_weights = tuple(left_weights[:m]), tuple(right_weights[:m])
    swap = left_weights == right_weights
    bound = (1 + sum(map(abs, left_weights))) ** m * (1 + sum(map(abs, right_weights))) ** m
    bits = bound.bit_length() + 1
    empty = ((), (), (), ())  # (left needs, labels, right needs, labels)
    states = {empty: 1}  # state -> packed polynomial
    packed_by_order = [1]
    for pos in range(m):
        rest = m - 1 - pos
        reached: dict[tuple, int] = {}
        canonical: dict[tuple, tuple] = {}  # (ls, rs) -> renumbered, then swapped and renumbered
        left_moves: dict[tuple, list] = {}  # (needs, labels) -> that side's moves here
        right_moves = left_moves if swap else {}
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
                    named = canonical.get((ls, rs))
                    if named is None:
                        named = _renumber(ls, rs)
                        if swap:  # and the swapped state's, reading the right side first
                            named += _renumber(rs, ls)
                        canonical[ls, rs] = named
                    key = (lneeds_next, named[0], rneeds_next, named[1])
                    if swap:  # an orbit is keyed by its lesser state
                        swapped = (rneeds_next, named[2], lneeds_next, named[3])
                        if swapped < key:
                            key = swapped
                    term = rw * lvalue
                    if label not in ls and label not in rs:  # its component closes
                        term <<= bits
                    reached[key] = reached.get(key, 0) + term
        states = reached
        packed_by_order.append(states.get(empty, 0))
    return [_unpack(packed, bits, order) for order, packed in enumerate(packed_by_order)]


def _unpack(packed: int, bits: int, order: int) -> dict[int, int]:
    """{b: coefficient of x^b} for b = 0..order, read as signed bits-wide
    digits of ``packed``; zero coefficients are left out."""
    counts = {}
    for size in range(order + 1):
        digit = packed & ((1 << bits) - 1)
        if digit >> (bits - 1):
            digit -= 1 << bits
        if digit:
            counts[size] = digit
        packed = (packed - digit) >> bits
    return counts
