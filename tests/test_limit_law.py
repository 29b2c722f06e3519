import io
from fractions import Fraction as Fr
from math import comb

import pytest

from bifree import bichromatic, cli, meanders, partitions, tensor_clt, transfer
from bifree.cli import TRANSFORM_CAP, run
from bifree.cumulants import moments_from_free_cumulants
from bifree.limit_law import (
    mu1_free_cumulants,
    mu_q_moments_cumulant_route,
    mu_q_moments_recurrence,
    z_free_cumulants,
)
from bifree.partitions import catalan_number
from helpers import brute_force_bicon, semicircle_moments


def test_mu1_cumulants():
    cs = mu1_free_cumulants(8)
    # cs.values[k - 1] is the cumulant of order k
    assert cs.values[0] == 0
    assert cs.values[1] == 1  # 2 * (1/2) * 1
    assert cs.values[2] == 0
    assert cs.values[3] == Fr(1, 2)  # 2 * (1/4) * 1
    assert cs.values[5] == Fr(3, 4)  # 2 * (1/8) * 3
    assert all(cs.values[n - 1] == 0 for n in (1, 3, 5, 7))


def test_mu1_cumulants_match_bicon_oracle():
    # closed form (semicircle convolution) against exhaustive classification
    cs = mu1_free_cumulants(12)
    for j in range(1, 7):
        assert cs.values[2 * j - 1] == 2 * Fr(1, 2) ** j * brute_force_bicon(2 * j)


def test_mu1_cumulants_give_the_closed_form_moments():
    # the generic transform takes the cumulants back to the moments of two
    # classically added variance-1/2 semicircles, at every order up to the
    # cap: m_2k = 2^-k sum_i C(2k, 2i) Cat(i) Cat(k - i), odd moments zero
    moments = moments_from_free_cumulants(mu1_free_cumulants(TRANSFORM_CAP)).values
    for n, value in enumerate(moments, 1):
        k = n // 2
        terms = (comb(n, 2 * i) * catalan_number(i) * catalan_number(k - i) for i in range(k + 1))
        assert value == (0 if n % 2 else Fr(sum(terms), 2**k)), n


def test_limit_moments_enumerate_no_pairings(monkeypatch):
    def refuse(*args):
        raise AssertionError("partition enumeration on the limit-law path")

    # every enumerator of partitions, under each name a module imported it by
    for module in (partitions, bichromatic, cli, meanders, tensor_clt, transfer):
        for name in (
            "enumerate_partitions",
            "enumerate_noncrossing",
            "enumerate_pair_noncrossing",
            "nc_pair_join_counts",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run(["limit", "moments", "--q", "1/3", "--K", "14"], out=io.StringIO()) == 0
    mu_q_moments_cumulant_route(Fr(1, 3), 14)


def test_z_cumulants():
    for q in (Fr(0), Fr(1, 3), Fr(9, 10)):
        cs = z_free_cumulants(q, 8)
        assert cs.values[1] == 1  # order 2
        assert all(cs.values[n - 1] == 0 for n in (1, 3, 5, 7))
        assert cs.values[3] == q**2 / 2  # order 4
        assert cs.values[5] == 2 * (q / 2) ** 3 * 3  # order 6
    semi = z_free_cumulants(0, 8)
    assert all(semi.values[n - 1] == 0 for n in (4, 6, 8))
    with pytest.raises(ValueError):
        z_free_cumulants(1, 4)
    with pytest.raises(ValueError):
        z_free_cumulants(Fr(-1, 2), 4)


def test_moment_basics():
    for q in (Fr(0), Fr(1, 2)):
        ms = mu_q_moments_recurrence(q, 9)
        assert ms.moment(2) == 1
        assert ms.moment(1) == 0
        assert ms.moment(5) == 0
        assert ms.moment(9) == 0


def test_fourth_and_sixth_moment_closed_forms():
    # hand-expanded from the recurrence: M4 = 2 + q^2/2,
    # M6 = 5 + 3 q^2 + (3/4) q^3
    for q in (Fr(0), Fr(1, 3), Fr(2, 3), Fr(9, 10)):
        ms = mu_q_moments_recurrence(q, 6)
        assert ms.moment(4) == 2 + q**2 / 2
        assert ms.moment(6) == 5 + 3 * q**2 + Fr(3, 4) * q**3


def test_dual_routes_agree():
    for q in (Fr(0), Fr(1, 3), Fr(1, 2), Fr(9, 10)):
        assert mu_q_moments_recurrence(q, 12) == mu_q_moments_cumulant_route(q, 12)


@pytest.mark.parametrize("q", [Fr(1, 3), Fr(9, 10), Fr(0), Fr(2, 3), Fr(999, 1000)])
def test_dual_routes_agree_at_the_cap(q):
    # criterion 3 stops at K = 12; `limit moments` accepts K up to the cap
    assert mu_q_moments_recurrence(q, TRANSFORM_CAP) == mu_q_moments_cumulant_route(q, TRANSFORM_CAP)


def test_q_zero_is_semicircle():
    ms = mu_q_moments_recurrence(0, 12)
    assert ms == semicircle_moments(12)
    assert ms == mu_q_moments_cumulant_route(0, 12)
    assert ms.moment(8) == 14
    assert ms.moment(12) == catalan_number(6)


def test_semicircle_moments():
    ms = semicircle_moments(8)
    assert ms.values == (Fr(0), Fr(1), Fr(0), Fr(2), Fr(0), Fr(5), Fr(0), Fr(14))
    # q = 0 leaves only the order-2 cumulant, so the recurrence's integer line
    # must give the Catalan numbers up to the cap
    assert mu_q_moments_recurrence(0, TRANSFORM_CAP) == semicircle_moments(TRANSFORM_CAP)


def test_even_moments_increase_with_q():
    grid = [Fr(k, 10) for k in range(10)]
    for order in (4, 6, 8, 10):
        values = [mu_q_moments_recurrence(q, order).moment(order) for q in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
