from fractions import Fraction as Fr

import math

import pytest

from bifree.cumulants import (
    CumulantSeq,
    MomentSeq,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from bifree.limits import InsufficientMomentsError, ResourceLimitError
from bifree.limit_law import mu_q_moments_recurrence, semicircle_moments
from bifree.meanders import enumerate_systems, loop_count
from bifree import tensor_clt
from bifree.tensor_clt import (
    SqrtQuotient,
    TensorCLTInput,
    exact_moment_Sn,
    moment_from_coefficients,
    tensor_coefficients,
)
from bifree.partitions import catalan_number
from helpers import (
    asymmetric_legs,
    bernoulli_legs,
    centred_limit_moment,
    reference_inputs,
    semicircle_legs,
    tensor_route_coefficients,
    tensor_route_moment,
)


ATOMS = (Fr(-2), Fr(0), Fr(1))


def equal_weight_law(points, order: int = 8) -> MomentSeq:
    return MomentSeq([sum(x**k for x in points) / len(points) for k in range(1, order + 1)])


def mixed_sign_legs(order: int = 8) -> TensorCLTInput:
    """The equal-weight law on {-2, 0, 1} against its mirror image 2 lam - x:
    every free cumulant is non-zero, their signs mix, and the legs differ."""
    lam = sum(ATOMS) / len(ATOMS)
    mirror = [2 * lam - x for x in ATOMS]
    return TensorCLTInput(equal_weight_law(ATOMS, order), equal_weight_law(mirror, order))


ALL_INPUTS = reference_inputs() + [mixed_sign_legs()]


def test_input_validation():
    ms = semicircle_moments(4)
    shifted = MomentSeq([1, 2, 4, 8])
    with pytest.raises(ValueError):
        TensorCLTInput(ms, shifted)  # means differ
    with pytest.raises(ValueError):
        # zero variance
        TensorCLTInput(MomentSeq.point_mass(1, 4), MomentSeq.point_mass(1, 4))
    with pytest.raises(ValueError):
        # zero variance and zero mean
        TensorCLTInput(MomentSeq.point_mass(0, 4), MomentSeq.point_mass(0, 4))
    with pytest.raises(ValueError):
        TensorCLTInput(ms, MomentSeq([0, 2, 0, 8]))  # variances differ
    for legs in ([1, -1], [1, 0]):  # sigma2 = -2 lam^2 leaves q undefined; -lam^2 gives q = 2
        with pytest.raises(ValueError):
            TensorCLTInput(*[MomentSeq(legs)] * 2)


def test_derived_parameters():
    inp = bernoulli_legs()
    assert inp.lam == 1 and inp.sigma2 == 1
    assert inp.delta2 == 3 and inp.q == Fr(2, 3)
    inp = semicircle_legs()
    assert inp.lam == 0 and inp.delta2 == 1 and inp.q == 0
    inp = asymmetric_legs()
    assert inp.lam == Fr(1, 2) and inp.sigma2 == 1
    assert inp.delta2 == Fr(3, 2) and inp.q == Fr(1, 3)
    inp = mixed_sign_legs()
    assert inp.ms_a != inp.ms_b
    for ms in (inp.ms_a, inp.ms_b):
        kappas = free_cumulants_from_moments(ms).values
        assert all(kappas) and min(kappas) < 0 < max(kappas)


def test_first_moment_vanishes():
    for inp in ALL_INPUTS:
        for n in (1, 2, 7):
            value = exact_moment_Sn(1, n, inp)
            assert isinstance(value, SqrtQuotient)
            assert value.coeff == 0
            assert float(value) == 0.0


def test_second_moment_is_one_exactly():
    for inp in ALL_INPUTS:
        for n in range(1, 13):
            assert exact_moment_Sn(2, n, inp) == Fr(1)


def test_dual_routes_agree_small_grid():
    for inp in ALL_INPUTS:
        for m in range(1, 5):
            for n in (1, 2, 3, 5, 8):
                assert exact_moment_Sn(m, n, inp) == tensor_route_moment(m, n, inp)


def test_dual_routes_agree_orders_five_six():
    # each numerator is a polynomial in n of degree <= m, so m + 1 values of n
    # pin the two routes at every n
    for inp in ALL_INPUTS:
        for m in (5, 6):
            for n in range(1, m + 2):
                assert exact_moment_Sn(m, n, inp) == tensor_route_moment(m, n, inp)


def test_dual_routes_agree_orders_seven_eight():
    for inp in ALL_INPUTS:
        for m in (7, 8):
            for n in range(1, m + 2):
                assert exact_moment_Sn(m, n, inp) == tensor_route_moment(m, n, inp)


def test_dual_routes_agree_order_nine():
    # the coefficients of the numerator in n pin the routes at every n at once
    for inp in reference_inputs(order=9):
        assert tensor_coefficients(inp, [9])[9] == tensor_route_coefficients(inp, 9)
        assert exact_moment_Sn(9, 3, inp) == tensor_route_moment(9, 3, inp)


def spy_equal_sides(monkeypatch) -> list[bool]:
    """Whether each transfer-matrix run got equal weights on its two sides,
    the condition of its swap quotient."""
    runs = []
    run = tensor_clt.nc_pair_join_counts

    def transfer_matrix(m, left, right):
        runs.append(tuple(left[:m]) == tuple(right[:m]))
        return run(m, left, right)

    monkeypatch.setattr(tensor_clt, "nc_pair_join_counts", transfer_matrix)
    return runs


def test_equal_legs_through_the_swap_quotient_match_the_tensor_route(monkeypatch):
    # the law on {-2, 0, 1} on both legs: every cumulant non-zero, mixed signs
    runs = spy_equal_sides(monkeypatch)
    leg = equal_weight_law(ATOMS)
    inp = TensorCLTInput(leg, leg)
    for m, coeffs in tensor_coefficients(inp, range(1, 9)).items():
        assert coeffs == tensor_route_coefficients(inp, m), m
    assert runs == [True]


def test_a_law_against_its_reflection_takes_the_plain_path_and_matches_the_tensor_route(
    monkeypatch,
):
    runs = spy_equal_sides(monkeypatch)
    inp = mixed_sign_legs()
    for m, coeffs in tensor_coefficients(inp, range(1, 9)).items():
        assert coeffs == tensor_route_coefficients(inp, m), m
    assert runs == [False]


def test_legs_are_equal_by_value(monkeypatch):
    # a right leg whose moments are copied into a new list is the same leg:
    # it takes the quotient too, and the coefficients are identical
    runs = spy_equal_sides(monkeypatch)
    leg = equal_weight_law(ATOMS, order=10)
    copied = MomentSeq(list(leg.values))
    assert copied.values is not leg.values
    same = tensor_coefficients(TensorCLTInput(leg, leg), range(11))
    assert tensor_coefficients(TensorCLTInput(leg, copied), range(11)) == same
    assert runs == [True, True]


def test_centred_numerator_has_degree_at_most_half_the_order():
    # the centred factors have mean zero, so every term above n^(m/2) cancels
    for inp in ALL_INPUTS:
        for m, coeffs in tensor_coefficients(inp, range(1, 9)).items():
            assert len(coeffs) == m + 1
            assert all(c == 0 for c in coeffs[m // 2 + 1 :]), (m, coeffs)


def test_top_coefficient_is_the_limit_moment_up_to_order_ten():
    # numerator / (delta^m n^(m/2)) tends to the limit-law moment, so the
    # coefficient of n^(m/2) is delta^m times that moment
    inp = bernoulli_legs(order=10)
    limit = mu_q_moments_recurrence(inp.q, 10)
    for m, coeffs in tensor_coefficients(inp, range(2, 11, 2)).items():
        assert coeffs[m // 2] == inp.delta2 ** (m // 2) * limit.moment(m), m


def test_single_summand_closed_form_at_orders_nine_and_ten():
    # S_1 = (a (x) b - lam^2)/delta, and phi(a^k (x) b^k) = alpha_k beta_k
    inp = bernoulli_legs(order=10)
    lam2 = inp.lam**2
    for m in (9, 10):
        total = sum(
            math.comb(m, k) * (-lam2) ** (m - k) * inp.ms_a.moment(k) * inp.ms_b.moment(k)
            for k in range(m + 1)
        )
        want = total / inp.delta2 ** (m // 2)
        if m % 2:
            want = SqrtQuotient(want, inp.delta2)
        assert exact_moment_Sn(m, 1, inp) == want, m


def test_centred_limit_moment():
    assert centred_limit_moment(3, 1, 1) == 0
    assert centred_limit_moment(2, 1, 1) == 1
    assert centred_limit_moment(6, 1, 1) == 5
    assert centred_limit_moment(4, Fr(1, 2), 3) == 2 * Fr(1, 2) ** 2 * 9


def test_centred_case_matches_limit_theorem():
    inp = semicircle_legs()
    for m in (2, 4, 6):
        gaps = []
        for n in (10, 40, 160):
            value = exact_moment_Sn(m, n, inp)
            gaps.append(abs(float(value) - float(centred_limit_moment(m, 1, 1))))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[-1] < 0.1


def test_centred_fourth_moment_closed_form():
    # unit-variance semicircle legs: moment(4, n) = 2 + 2/n exactly
    inp = semicircle_legs()
    for n in (1, 2, 5, 50):
        assert exact_moment_Sn(4, n, inp) == 2 + Fr(2, n)


def test_centred_leading_coefficient_is_pairing_count():
    # numerator polynomial p(n) = moment * n^(m/2) is quadratic for m = 4;
    # its leading coefficient is the non-crossing pairing count
    inp = semicircle_legs()
    p = [exact_moment_Sn(4, n, inp) * n**2 for n in (1, 2, 3)]
    second_difference = p[2] - 2 * p[1] + p[0]
    assert second_difference / 2 == catalan_number(2) == 2


def test_centred_moments_match_meander_loop_counts():
    # for unit-variance centred semicircle legs every surviving partition is
    # a pairing, so the moment is a pure sum of n^(loops - m/2) over systems
    inp = semicircle_legs()
    for m in (2, 4, 6):
        for n in (2, 5):
            meander_sum = Fr(0)
            for system in enumerate_systems(m // 2):
                meander_sum += Fr(n) ** loop_count(system)
            expected = meander_sum / Fr(n) ** (m // 2)
            assert exact_moment_Sn(m, n, inp) == expected


def test_general_fourth_moment_approaches_limit():
    inp = bernoulli_legs()
    limit = mu_q_moments_recurrence(inp.q, 4).moment(4)
    assert limit == 2 + inp.q**2 / 2 == Fr(20, 9)
    for n in (50, 100):
        value = exact_moment_Sn(4, n, inp)
        assert abs(float(value) - float(limit)) <= 10 / n


def test_convergence_table():
    # the library calls behind clt table: one tensor_coefficients call, the
    # limit moments from one recurrence run, one value per (m, n)
    inp = bernoulli_legs()
    coefficients = tensor_coefficients(inp, [2, 3, 4])
    limits = (Fr(1),) + mu_q_moments_recurrence(inp.q, 4).values

    def gaps(m, sizes):
        return [
            abs(float(moment_from_coefficients(coefficients[m], m, n, inp)) - float(limits[m]))
            for n in sizes
        ]

    assert all(moment_from_coefficients(coefficients[2], 2, n, inp) == 1 for n in (1, 5, 25))
    assert limits[2] == 1 and gaps(2, [1, 5, 25]) == [0, 0, 0]
    assert limits[3] == 0
    four = gaps(4, [10, 20, 40])
    assert four[0] > four[1] > four[2]


def test_argument_errors(monkeypatch):
    def transfer_matrix(*args):
        raise AssertionError("the transfer matrix ran before the refusal")

    monkeypatch.setattr(tensor_clt, "nc_pair_join_counts", transfer_matrix)
    inp = bernoulli_legs(order=4)
    with pytest.raises(ValueError):
        exact_moment_Sn(2, 0, inp)
    entries = (
        lambda legs, m: exact_moment_Sn(m, 1, legs),
        lambda legs, m: tensor_coefficients(legs, [2, m]),  # a good order comes first
    )
    for entry in entries:
        with pytest.raises(ValueError):
            entry(inp, -1)
        with pytest.raises(ResourceLimitError):
            entry(bernoulli_legs(order=12), 11)
        with pytest.raises(InsufficientMomentsError):
            entry(inp, 5)
    # BIFREE_MAX_SIZE raises the cap: m = 11 gets past it to the moment check
    monkeypatch.setenv("BIFREE_MAX_SIZE", "12")
    for entry in entries:
        with pytest.raises(InsufficientMomentsError):
            entry(inp, 11)


def test_a_raised_order_cap_reads_more_leg_moments(monkeypatch):
    # kappa_11 is the only cumulant above order 2, and the coefficients built
    # under the default cap read 10 leg moments, too few for m = 11
    kappas = (Fr(1, 2), Fr(1)) + (Fr(0),) * 8 + (Fr(3),)
    legs = moments_from_free_cumulants(CumulantSeq(kappas))
    inp = TensorCLTInput(legs, legs)
    assert exact_moment_Sn(2, 1, inp) == 1
    monkeypatch.setenv("BIFREE_MAX_SIZE", "11")
    # S_1 = (a (x) b - lam^2)/delta, and phi(a^k (x) b^k) = alpha_k^2
    lam2 = inp.lam**2
    total = sum(math.comb(11, k) * (-lam2) ** (11 - k) * legs.moment(k) ** 2 for k in range(12))
    want = SqrtQuotient(total / inp.delta2**5, inp.delta2)
    assert exact_moment_Sn(11, 1, inp) == want


def test_moment_zero_is_one():
    assert exact_moment_Sn(0, 3, bernoulli_legs()) == 1
