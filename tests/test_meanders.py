import pytest

from bifree import meanders
from bifree.limits import ResourceLimitError
from bifree.meanders import (
    MeandricSystem,
    enumerate_systems,
    loop_count,
    loop_count_by_tracing,
    loop_distribution,
)
from bifree.partitions import SetPartition, catalan_number


def system(top, bottom):
    n = sum(map(len, top))
    return MeandricSystem(SetPartition(n, top), SetPartition(n, bottom))


def test_validation():
    with pytest.raises(ValueError):
        system([[1, 3], [2, 4]], [[1, 2], [3, 4]])  # crossing top
    with pytest.raises(ValueError):
        system([[1, 2]], [[1], [2]])  # bottom not a pairing
    for top, bottom in (
        (SetPartition(2, [[1, 2]]), SetPartition(4, [[1, 2], [3, 4]])),  # sizes differ
        (SetPartition(1, [[1]]), SetPartition(1, [[1]])),  # odd size
    ):
        with pytest.raises(ValueError, match="same even point count"):
            MeandricSystem(top, bottom)


def test_enumerated_systems_skip_the_checks(monkeypatch):
    # enumerate_systems pairs the non-crossing pairings it has just
    # enumerated, so it re-checks none of them; each system equals the one
    # the checking constructor builds, which still checks outside input
    checked = [MeandricSystem(s.top, s.bottom) for s in enumerate_systems(3)]

    def refuse(self):
        raise AssertionError("re-checked an enumerated pairing")

    monkeypatch.setattr(SetPartition, "is_pair_partition", refuse)
    monkeypatch.setattr(SetPartition, "is_noncrossing", refuse)
    assert list(enumerate_systems(3)) == checked and len(checked) == catalan_number(3) ** 2
    with pytest.raises(AssertionError, match="re-checked"):
        MeandricSystem(checked[0].top, checked[0].bottom)


def test_text_round_trip():
    s = system([[1, 2], [3, 4]], [[1, 4], [2, 3]])
    assert s.to_text() == "top=1,2|3,4;bottom=1,4|2,3"
    assert MeandricSystem.from_text(s.to_text()) == s
    with pytest.raises(ValueError):
        MeandricSystem.from_text("nonsense")


def test_loop_count_examples():
    assert loop_count(system([[1, 2]], [[1, 2]])) == 1
    assert loop_count(system([[1, 2], [3, 4]], [[1, 4], [2, 3]])) == 1
    # top == bottom gives the maximal count m
    for m in (1, 2, 3):
        for s in enumerate_systems(m):
            if s.top == s.bottom:
                assert loop_count(s) == m


def test_loop_count_top_equals_bottom_iff_maximal():
    for m in (1, 2, 3, 4):
        for s in enumerate_systems(m):
            assert (loop_count(s) == m) == (s.top == s.bottom)


def test_loop_counters_agree():
    for m in (1, 2, 3, 4):
        for s in enumerate_systems(m):
            assert loop_count(s) == loop_count_by_tracing(s)


def test_loop_count_reflection_symmetry():
    for m in (1, 2, 3):
        for s in enumerate_systems(m):
            flipped = MeandricSystem(s.bottom, s.top)
            assert loop_count(s) == loop_count(flipped)


# OEIS A005315: closed meanders with 2m crossings, which are the one-loop systems
# (Di Francesco, Golinelli and Guitter, Nucl. Phys. B 570 (2000))
MEANDERS = (1, 2, 8, 42, 262, 1828, 13820, 110954, 933458)


def test_loop_distribution():
    assert loop_distribution(1) == {1: 1}
    assert loop_distribution(2) == {1: 2, 2: 2}
    for m in range(1, meanders.DEFAULT_MAX_SIZE + 1):
        hist = loop_distribution(m)
        assert sum(hist.values()) == catalan_number(m) ** 2
        assert hist[m] == catalan_number(m)
        assert all(1 <= c <= m for c in hist)
        if m <= len(MEANDERS):
            assert hist[1] == MEANDERS[m - 1], m


def test_loop_distribution_matches_tracing_every_system():
    for m in range(1, 7):
        hist = {}
        for s in enumerate_systems(m):
            loops = loop_count_by_tracing(s)
            hist[loops] = hist.get(loops, 0) + 1
        assert loop_distribution(m) == hist, m


def test_loop_distribution_cap(monkeypatch):
    # the cap alone decides: the transfer matrix is a stub
    monkeypatch.setattr(
        meanders, "nc_pair_join_counts", lambda m, *weights: [{1: k} for k in range(m + 1)]
    )
    with pytest.raises(ResourceLimitError):
        loop_distribution(13)
    monkeypatch.setenv("BIFREE_MAX_SIZE", "13")
    assert loop_distribution(13) == {1: 26}
