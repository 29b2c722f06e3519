from fractions import Fraction as Fr
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifree.cumulants import (
    CumulantSeq,
    MomentSeq,
    format_rational,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
    MAX_RATIONAL_CHARS,
    parse_rational,
)
from bifree.limits import InsufficientMomentsError
from bifree.partitions import enumerate_noncrossing, enumerate_partitions
from helpers import (
    coloured_moment_by_nc_sum,
    free_coloured_moment,
    mobius_nc,
    one_block,
    point_mass,
)

# ---------------------------------------------------------------------------
# literal partition-sum oracles (independent of the engine's recursion)
# ---------------------------------------------------------------------------


def moments_by_partition_sum(cs: CumulantSeq) -> list[Fr]:
    out = []
    for n in range(1, len(cs.values) + 1):
        total = Fr(0)
        for part in enumerate_noncrossing(n):
            term = Fr(1)
            for block in part.blocks:
                term *= cs.values[len(block) - 1]
            total += term
        out.append(total)
    return out


@lru_cache(maxsize=None)
def _mobius_terms(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(mu(pi, 1_n), block sizes of pi) for every pi in NC(n)."""
    full = one_block(n)
    return tuple(
        (mobius_nc(part, full), tuple(len(block) for block in part.blocks))
        for part in enumerate_noncrossing(n)
    )


def cumulants_by_mobius_sum(ms: MomentSeq) -> list[Fr]:
    out = []
    for n in range(1, ms.order + 1):
        total = Fr(0)
        for mu, sizes in _mobius_terms(n):
            term = Fr(mu)
            for size in sizes:
                term *= ms.moment(size)
            total += term
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------


def test_rational_round_trip():
    assert format_rational(Fr(3, 6)) == "1/2"
    assert format_rational(1) == "1/1"
    assert format_rational(Fr(-5, 10)) == "-1/2"
    assert parse_rational("7/3") == Fr(7, 3)
    assert parse_rational("0.25") == Fr(1, 4)
    assert parse_rational("4") == Fr(4)


def test_parse_rational_bounds():
    assert parse_rational(" 1e1000 ") == 10**1000
    assert parse_rational("25E-1_000") == Fr(25, 10**1000)
    # Fraction reads any Unicode decimal digit: 1001 in Arabic-Indic digits
    arabic_1001 = "\u0661\u0660\u0660\u0661"
    for text in ("1e1001", "-1.5E-1001", "1e100000000", "1" * (MAX_RATIONAL_CHARS + 1),
                 f"1e{arabic_1001}", f"2E-{arabic_1001}"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_moment_seq_json():
    ms = MomentSeq([Fr(1, 2), 3, Fr(-2, 7)])
    texts = [format_rational(v) for v in ms.values]
    assert texts == ["1/2", "3/1", "-2/7"]
    assert MomentSeq(tuple(parse_rational(t) for t in texts)) == ms


# ---------------------------------------------------------------------------
# the transform pair
# ---------------------------------------------------------------------------

SEMICIRCLE_6 = MomentSeq([0, 1, 0, 2, 0, 5])


def test_semicircle_has_only_second_cumulant():
    cs = free_cumulants_from_moments(SEMICIRCLE_6)
    assert cs.values == (Fr(0), Fr(1), Fr(0), Fr(0), Fr(0), Fr(0))


def test_point_mass_has_only_first_cumulant():
    lam = Fr(3, 2)
    ms = point_mass(lam, 6)
    cs = free_cumulants_from_moments(ms)
    assert cs.values == (lam, Fr(0), Fr(0), Fr(0), Fr(0), Fr(0))


def test_zero_moments_zero_cumulants():
    zeros = MomentSeq([0] * 5)
    assert free_cumulants_from_moments(zeros).values == (Fr(0),) * 5
    assert moments_from_free_cumulants(CumulantSeq((Fr(0),) * 5)).values == (Fr(0),) * 5


def test_second_cumulant_only_gives_catalan_moments():
    cs = CumulantSeq((Fr(0), Fr(1), Fr(0), Fr(0), Fr(0), Fr(0), Fr(0), Fr(0)))
    ms = moments_from_free_cumulants(cs)
    assert ms.values == (Fr(0), Fr(1), Fr(0), Fr(2), Fr(0), Fr(5), Fr(0), Fr(14))


def test_first_cumulant_only_gives_powers():
    lam = Fr(2, 3)
    cs = CumulantSeq((lam, Fr(0), Fr(0), Fr(0)))
    assert moments_from_free_cumulants(cs).values == tuple(lam**k for k in (1, 2, 3, 4))


# signed rationals with many exact zeros, which the power table skips
signed_with_zeros = st.lists(
    st.one_of(st.just(Fr(0)), st.fractions(min_value=-4, max_value=4, max_denominator=20)),
    max_size=7,
)


@settings(max_examples=60, deadline=None)
@given(signed_with_zeros)
@example([0, 1, 0, 2, 0, 5])  # semicircle
@example([Fr(1, 2), 2, Fr(-1, 3), 4, Fr(7, 5), 1])
@example([(-2) ** k for k in range(1, 7)])  # point mass at -2
def test_transforms_match_literal_partition_sums(values):
    ms = MomentSeq(values)
    assert list(free_cumulants_from_moments(ms).values) == cumulants_by_mobius_sum(ms)
    cs = CumulantSeq(tuple(values))
    assert list(moments_from_free_cumulants(cs).values) == moments_by_partition_sum(cs)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=20),
        min_size=1,
        max_size=10,
    )
)
def test_round_trip_exact(values):
    ms = MomentSeq(values)
    back = moments_from_free_cumulants(free_cumulants_from_moments(ms))
    assert back == ms
    cs = CumulantSeq(tuple(values))
    assert free_cumulants_from_moments(moments_from_free_cumulants(cs)) == cs


# ---------------------------------------------------------------------------
# coloured free moments
# ---------------------------------------------------------------------------


def test_coloured_constant_colouring_is_plain_moment():
    ms = MomentSeq([Fr(1, 2), 2, Fr(-1, 3), 4])
    for r in range(1, 5):
        assert free_coloured_moment([7] * r, ms) == ms.moment(r)


def test_coloured_alternating_centred_vanishes():
    assert free_coloured_moment([1, 2, 1, 2], SEMICIRCLE_6) == 0


def test_coloured_adjacent_blocks_factorise():
    # centred variable: only the pairing {1,2}{3,4} survives
    assert free_coloured_moment([1, 1, 2, 2], SEMICIRCLE_6) == SEMICIRCLE_6.moment(2) ** 2
    shifted = moments_from_free_cumulants(CumulantSeq((Fr(1), Fr(1), Fr(0), Fr(0))))
    # a_1 a_2 for free copies: kappa_1^2
    assert free_coloured_moment([1, 2], shifted) == 1


def test_coloured_all_distinct_centred_vanishes():
    for r in range(1, 5):
        assert free_coloured_moment(list(range(r)), SEMICIRCLE_6) == (
            SEMICIRCLE_6.moment(1) if r == 1 else 0
        )


# the semicircle (higher cumulants vanish), a shifted semicircle, and the
# equal-weight law on {-2, 0, 1}
COLOURED_LAWS = (
    SEMICIRCLE_6,
    moments_from_free_cumulants(CumulantSeq((Fr(1, 2), Fr(2, 3), Fr(0), Fr(0), Fr(0), Fr(0)))),
    MomentSeq([Fr((-2) ** k + 1, 3) for k in range(1, 7)]),
)


@pytest.mark.parametrize("ms", COLOURED_LAWS)
def test_coloured_first_block_matches_nc_sum(ms):
    # every canonical colour word of length 1..6: 1 + 2 + 5 + 15 + 52 + 203
    words = [part.block_index() for r in range(1, 7) for part in enumerate_partitions(r)]
    assert len(words) == 278
    for word in words:
        assert free_coloured_moment(word, ms) == coloured_moment_by_nc_sum(word, ms), word


def test_coloured_word_too_long():
    with pytest.raises(InsufficientMomentsError):
        free_coloured_moment([1, 1, 1], MomentSeq([0, 1]))
