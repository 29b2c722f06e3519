from itertools import product

import pytest

from bifree.bichromatic import ChiMap, enumerate_bnc, is_bnc, shuffle
from bifree.partitions import (
    SetPartition,
    catalan_number,
    enumerate_noncrossing,
    enumerate_partitions,
)
from helpers import (
    all_singletons,
    chi_alternating,
    enumerate_bnc_vs_alt,
    inverse_permutation,
    is_bnc_interleaving,
    is_vertically_split,
)


def all_side_maps(n):
    return [ChiMap(sides) for sides in product("LR", repeat=n)]


def test_chi_string_round_trip():
    chi = ChiMap.from_string("LRRLLR")
    assert chi.to_string() == "LRRLLR"
    assert ChiMap.from_string(chi.to_string().lower()) == chi


def test_chi_permutation_examples():
    assert ChiMap.from_string("LLLL").permutation == (1, 2, 3, 4)
    assert ChiMap.from_string("RRR").permutation == (3, 2, 1)
    # left block {1,4,5} ascending, right block {2,3,6} descending
    assert ChiMap.from_string("LRRLLR").permutation == (1, 4, 5, 6, 3, 2)


def test_chi_alternating():
    assert chi_alternating(1).to_string() == "LR"
    chi = chi_alternating(2)
    assert chi.to_string() == "LRLR"
    assert chi.permutation == (1, 3, 4, 2)
    chi = chi_alternating(3)
    assert chi.to_string() == "LRLRLR"
    assert chi.permutation == (1, 3, 5, 6, 4, 2)


def test_precedes_matches_permutation():
    # the reading order: a precedes b when inverse_permutation ranks a first
    chi = ChiMap.from_string("LRRLLR")
    inv = inverse_permutation(chi)
    order = sorted(range(1, 7), key=lambda a: inv[a - 1])
    assert order == [1, 4, 5, 6, 3, 2]


def test_is_bnc_examples():
    pi = SetPartition(6, [[1, 4], [2, 5], [3, 6]])
    assert is_bnc(pi, ChiMap.from_string("LRRLLR"))
    assert not is_bnc(pi, ChiMap.from_string("LLLLLL"))  # plain crossing partition
    assert is_bnc(all_singletons(5), ChiMap.from_string("LRLRL"))
    with pytest.raises(ValueError):
        is_bnc(all_singletons(3), ChiMap.from_string("LLLL"))


def test_is_bnc_agrees_with_interleaving_test():
    for n in range(7):
        partitions = list(enumerate_partitions(n))
        for chi in all_side_maps(n):
            for p in partitions:
                assert is_bnc(p, chi) == is_bnc_interleaving(p, chi)


def test_enumerate_bnc_matches_filter():
    for n in range(7):
        partitions = list(enumerate_partitions(n))
        for chi in all_side_maps(n):
            built = set(enumerate_bnc(chi))
            assert len(built) == catalan_number(n)
            filtered = {p for p in partitions if is_bnc(p, chi)}
            assert built == filtered


def test_shuffle_of_noncrossing_is_bnc():
    for n in range(7):
        ncs = list(enumerate_noncrossing(n))
        for chi in all_side_maps(n):
            for nc in ncs:
                assert is_bnc(shuffle(nc, chi), chi)


def test_vertically_split_examples():
    chi = ChiMap.from_string("LRRLLR")
    mixed = SetPartition(6, [[1, 4], [2, 5], [3, 6]])
    assert not is_vertically_split(mixed, chi)  # {2,5} spans both sides
    tau_lr = SetPartition(4, [[1, 3], [2, 4]])
    assert is_vertically_split(tau_lr, chi_alternating(2))
    assert is_vertically_split(all_singletons(4), chi_alternating(2))


def test_bnc_vs_alt_m2_is_the_four_partitions():
    got = {p.to_text() for p in enumerate_bnc_vs_alt(2)}
    assert got == {
        "1|2|3|4",      # all singletons
        "1,3|2|4",      # left nodes paired
        "1|2,4|3",      # right nodes paired
        "1,3|2,4",      # both sides paired
    }


def test_bnc_vs_alt_counts_and_membership():
    assert sum(1 for _ in enumerate_bnc_vs_alt(1)) == 1
    assert sum(1 for _ in enumerate_bnc_vs_alt(3)) == catalan_number(3) ** 2
    for m in range(5):
        chi = chi_alternating(m)
        elems = list(enumerate_bnc_vs_alt(m))
        assert len(elems) == catalan_number(m) ** 2
        assert len(set(elems)) == len(elems)  # injective
        for e in elems:
            assert is_vertically_split(e, chi)
            assert is_bnc(e, chi)


def test_bnc_vs_alt_matches_filter():
    for m in range(4):
        chi = chi_alternating(m)
        filtered = {p for p in enumerate_bnc(chi) if is_vertically_split(p, chi)}
        built = set(enumerate_bnc_vs_alt(m))
        assert built == filtered
