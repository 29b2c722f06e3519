import math
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.partitions import (
    SetPartition,
    bell_number,
    catalan_number,
    enumerate_noncrossing,
    enumerate_pair_noncrossing,
    enumerate_partitions,
    is_noncrossing_word,
    join_size,
)
from bifree.transfer import nc_pair_join_counts
from helpers import (
    all_singletons,
    blocks_cross,
    brute_force_bicon,
    is_refinement,
    mobius_nc,
    one_block,
    pairings_oracle,
)

# ---------------------------------------------------------------------------
# independent oracles, kept deliberately naive
# ---------------------------------------------------------------------------


def crossing_oracle(p: SetPartition) -> bool:
    """Quadruple scan straight from the definition: v1 < w1 < v2 < w2 with
    v's and w's in different blocks."""
    idx = p.block_index()
    n = p.n
    for v1 in range(1, n + 1):
        for w1 in range(v1 + 1, n + 1):
            if idx[v1 - 1] == idx[w1 - 1]:
                continue
            for v2 in range(w1 + 1, n + 1):
                if idx[v2 - 1] != idx[v1 - 1]:
                    continue
                for w2 in range(v2 + 1, n + 1):
                    if idx[w2 - 1] == idx[w1 - 1]:
                        return True
    return False


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


# ---------------------------------------------------------------------------
# canonical form and serialization
# ---------------------------------------------------------------------------


def test_canonical_form_unique():
    a = SetPartition(4, [[3, 1], [4, 2]])
    b = SetPartition(4, [(2, 4), (1, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.blocks == ((1, 3), (2, 4))


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2, 3], []])
    with pytest.raises(ValueError):
        SetPartition(2, [[1, 2, 3]])


def test_text_round_trip():
    p = SetPartition.from_text("1,4|2,5|3,6")
    assert p.n == 6
    assert p.to_text() == "1,4|2,5|3,6"
    assert SetPartition.from_text(p.to_text()) == p
    assert SetPartition.from_text("", n=0) == SetPartition(0, [])


def test_from_text_sizes_the_ground_set_by_the_listed_elements():
    # a label past the element count is refused before anything is sized by it
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="element 10000000 outside 1..2"):
            SetPartition.from_text("1,10000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_noncrossing_word_matches_the_definition_on_any_labels():
    # is_bnc scans block labels in a side map's reading order, so its words
    # are not labelled by first appearance
    assert is_noncrossing_word((3, 1, 3))
    assert not is_noncrossing_word((2, 0, 2, 0))
    for length in range(8):
        for word in product(range(4), repeat=length):
            assert is_noncrossing_word(word) != crossing_oracle(SetPartition.from_labels(word)), word


# ---------------------------------------------------------------------------
# enumeration counts
# ---------------------------------------------------------------------------


def test_enumerate_partitions_counts():
    # frozen Bell numbers, cross-checked against the binomial recurrence
    expected = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n, count in enumerate(expected):
        assert bell_number(n) == count
        if n <= 7:
            seen = list(enumerate_partitions(n))
            assert len(seen) == count
            assert len(set(seen)) == count


def test_enumerate_partitions_n3_exhaustive():
    texts = {p.to_text() for p in enumerate_partitions(3)}
    assert texts == {"1|2|3", "1,2|3", "1,3|2", "1|2,3", "1,2,3"}


def test_noncrossing_counts_match_catalan_and_filter():
    for n in range(9):
        nc = list(enumerate_noncrossing(n))
        assert len(nc) == catalan_number(n)
        assert {p.to_text() for p in nc} == {
            p.to_text() for p in enumerate_partitions(n) if not crossing_oracle(p)
        }


def test_noncrossing_walk_matches_filter_in_order():
    for n in range(11):
        filt = [p for p in enumerate_partitions(n) if p.is_noncrossing()]
        assert list(enumerate_noncrossing(n)) == filt
    assert sum(1 for _ in enumerate_noncrossing(11)) == catalan_number(11)


def test_pair_noncrossing():
    assert [p.to_text() for p in enumerate_pair_noncrossing(2)] == ["1,2"]
    assert list(enumerate_pair_noncrossing(3)) == []
    four = {p.to_text() for p in enumerate_pair_noncrossing(4)}
    assert four == {"1,2|3,4", "1,4|2,3"}
    for n in (0, 2, 4, 6, 8, 10):
        got = list(enumerate_pair_noncrossing(n))
        assert len(got) == catalan_number(n // 2)
        oracle = {
            p.to_text()
            for p in enumerate_noncrossing(n)
            if p.is_pair_partition()
        } if n <= 8 else None
        if oracle is not None:
            assert {p.to_text() for p in got} == oracle


# ---------------------------------------------------------------------------
# refinement order
# ---------------------------------------------------------------------------


def test_refinement_examples():
    singles = all_singletons(3)
    assert is_refinement(singles, SetPartition(3, [[1, 2], [3]]))
    assert is_refinement(SetPartition(3, [[1, 2], [3]]), one_block(3))
    assert not is_refinement(
        SetPartition(3, [[1, 3], [2]]), SetPartition(3, [[1, 2], [3]])
    )
    with pytest.raises(ValueError):
        is_refinement(all_singletons(2), all_singletons(3))


def test_refinement_is_partial_order():
    for n in range(6):
        parts = list(enumerate_partitions(n))
        for p in parts:
            assert is_refinement(p, p)
        for p in parts:
            for q in parts:
                if is_refinement(p, q) and is_refinement(q, p):
                    assert p == q
        les = {
            (i, j)
            for i, p in enumerate(parts)
            for j, q in enumerate(parts)
            if is_refinement(p, q)
        }
        for i, j in les:
            for k in range(len(parts)):
                if (j, k) in les:
                    assert (i, k) in les


def test_join_size_is_the_finest_common_coarsening():
    # the join is the finest partition above both, so it has the most blocks
    # among the common upper bounds
    for n in range(5):
        parts = list(enumerate_partitions(n))
        for p in parts:
            for q in parts:
                upper = [x for x in parts if is_refinement(p, x) and is_refinement(q, x)]
                assert join_size(n, p.blocks + q.blocks) == max(len(x.blocks) for x in upper)
    assert join_size(3, []) == 3


def pair_join_counts_by_enumeration(m, left_weights, right_weights):
    """The sum behind `nc_pair_join_counts`, pair by pair over NC(m)^2 with
    one union-find per pair."""

    def weighted(weights):
        for part in enumerate_noncrossing(m):
            singletons = {b[0] for b in part.blocks if len(b) == 1}
            yield math.prod(weights[len(b) - 1] for b in part.blocks), singletons, part.blocks

    counts = {}
    for lw, lsingles, lblocks in weighted(left_weights):
        for rw, rsingles, rblocks in weighted(right_weights):
            if lw * rw and not lsingles & rsingles:
                b = join_size(m, lblocks + rblocks)
                counts[b] = counts.get(b, 0) + lw * rw
    return {b: total for b, total in counts.items() if total}


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=5),
    left=st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    right=st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    equal=st.booleans(),
)
def test_nc_pair_join_counts_matches_pair_enumeration(m, left, right, equal):
    # one run gives every order up to m; equal sides (drawn half the time,
    # as a copy) take the swap quotient
    if equal:
        right = list(left)
    counts = nc_pair_join_counts(m, left, right)
    assert len(counts) == m + 1
    for k in range(m + 1):
        assert counts[k] == pair_join_counts_by_enumeration(k, left, right), k


def test_nc_pair_join_counts_examples():
    assert nc_pair_join_counts(0, [], []) == [{0: 1}]
    # the one pair of NC(1) shares its singleton
    assert nc_pair_join_counts(1, [1], [1]) == [{0: 1}, {}]
    # NC(2)^2 less the pair of singleton partitions; each join is one block
    assert nc_pair_join_counts(2, [1, 1], [1, 1])[2] == {1: 3}
    # pairs on one side against singletons on the other: one component per pair
    assert nc_pair_join_counts(4, [0, 1], [1, 0]) == [{0: 1}, {}, {1: 1}, {}, {2: 2}]
    # signed totals that cancel are left out
    assert nc_pair_join_counts(2, [0, 1], [1, -1])[2] == {}
    # the loop histograms of meander sizes 1..3 from one run; odd orders have none
    meanders = nc_pair_join_counts(6, (0, 1), (0, 1))
    assert meanders[2::2] == [{1: 1}, {1: 2, 2: 2}, {1: 8, 2: 12, 3: 5}]
    assert meanders[1::2] == [{}, {}, {}]


# ---------------------------------------------------------------------------
# Mobius function of the non-crossing lattice
# ---------------------------------------------------------------------------


def test_mobius_base_cases():
    for n in range(1, 5):
        for p in enumerate_noncrossing(n):
            assert mobius_nc(p, p) == 1
    assert mobius_nc(all_singletons(2), one_block(2)) == -1
    assert mobius_nc(all_singletons(4), one_block(4)) == -5
    # incomparable arguments give 0
    assert mobius_nc(SetPartition(4, [[1, 2], [3, 4]]), SetPartition(4, [[1], [2, 3, 4]])) == 0


def test_mobius_full_interval_closed_form():
    for n in range(1, 8):
        expected = (-1) ** (n - 1) * catalan_number(n - 1)
        assert mobius_nc(all_singletons(n), one_block(n)) == expected


def test_mobius_rejects_crossing_input():
    crossing = SetPartition(4, [[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        mobius_nc(crossing, one_block(4))


def test_mobius_recursions_hold():
    # both defining recursions, checked on every comparable pair up to n = 6
    for n in range(1, 7):
        ncs = list(enumerate_noncrossing(n))
        above = [
            [j for j, s in enumerate(ncs) if is_refinement(p, s)] for p in ncs
        ]
        above_sets = [set(row) for row in above]
        for i, p in enumerate(ncs):
            for j in above[i]:
                s = ncs[j]
                interval = [k for k in above[i] if j in above_sets[k]]
                expected = 1 if i == j else 0
                assert sum(mobius_nc(ncs[k], s) for k in interval) == expected
                assert sum(mobius_nc(p, ncs[k]) for k in interval) == expected


# ---------------------------------------------------------------------------
# crossing blocks and bipartite-connected pairings
# ---------------------------------------------------------------------------


def test_blocks_cross_matches_definition():
    for n in range(2, 7):
        for p in enumerate_partitions(n):
            any_cross = any(
                blocks_cross(a, b) for a, b in combinations(p.blocks, 2)
            )
            assert any_cross == crossing_oracle(p)


def test_count_bicon_pairs():
    assert brute_force_bicon(2) == 1
    assert brute_force_bicon(4) == 1
    assert brute_force_bicon(6) == 3
    for n in (0, 2, 4, 6, 8):
        pairings = pairings_oracle(n)
        assert len(set(pairings)) == len(pairings) == double_factorial(n - 1)
