"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything exact is asserted with rational equality;
statistical checks are seeded and use the stated tolerances.
"""

import contextlib
import random
import time
from fractions import Fraction as Fr
from itertools import product

import numpy as np

from bifree.bichromatic import ChiMap, enumerate_bnc, is_bnc
from bifree.cumulants import (
    MomentSeq,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from bifree.limit_law import mu_q_moments_cumulant_route, mu_q_moments_recurrence
from bifree.matrix_model import (
    EnsembleSpec,
    SimConfig,
    compare_to_prediction,
    exact_trace_predictions,
    matrix_rng,
)
from bifree.meanders import enumerate_systems, loop_count, loop_count_by_tracing, loop_distribution
from bifree.partitions import catalan_number, enumerate_partitions
from bifree.tensor_clt import exact_moment_Sn
from helpers import (
    all_singletons,
    assert_within_three_standard_errors,
    brute_force_bicon,
    enumerate_bnc_vs_alt,
    mobius_nc,
    one_block,
    reference_inputs,
    sample_hermitian,
    semicircle_legs,
    semicircle_moments,
    shifted_semicircle_legs,
    tensor_route_moment,
    transpose_trace_check,
)


@contextlib.contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_second_moment_is_one():
    with criterion(1, "exact second moment of S_n equals 1 for n in 1..50"):
        for inp in reference_inputs(order=2):
            for n in range(1, 51):
                assert exact_moment_Sn(2, n, inp) == Fr(1)


def test_criterion_2_dual_route_tensor_moments():
    with criterion(2, "bi-free route == tensor route, m <= 6, n in {1,2,3,5,8}, 3 inputs"):
        for inp in reference_inputs(order=6):
            for m in range(1, 7):
                for n in (1, 2, 3, 5, 8):
                    assert exact_moment_Sn(m, n, inp) == tensor_route_moment(m, n, inp)


def test_criterion_3_dual_route_limit_law():
    with criterion(3, "limit-law recurrence == cumulant route, K = 12; q = 0 is semicircle"):
        for q in (Fr(0), Fr(1, 3), Fr(1, 2), Fr(9, 10)):
            assert mu_q_moments_recurrence(q, 12) == mu_q_moments_cumulant_route(q, 12)
        assert mu_q_moments_recurrence(0, 12) == semicircle_moments(12)
        assert mu_q_moments_cumulant_route(0, 12) == semicircle_moments(12)


def test_criterion_4_convergence_to_limit_law():
    with criterion(4, "fourth moment within 10/n of the limit at q = 2/3"):
        inp = shifted_semicircle_legs(1, 1, order=4)
        assert inp.q == Fr(2, 3)
        limit = mu_q_moments_recurrence(inp.q, 4).moment(4)
        assert limit == 2 + inp.q**2 / 2
        for n in (50, 100, 200, 400, 800):
            value = exact_moment_Sn(4, n, inp)
            assert abs(float(value) - float(limit)) <= 10 / n


def test_criterion_5_centred_clt():
    with criterion(5, "centred case at n = 500 within 0.05 of the pairing-count limit"):
        inp = semicircle_legs(order=6)
        for m, count in ((2, 1), (4, 2), (6, 5)):
            value = exact_moment_Sn(m, 500, inp)
            assert abs(float(value) - count) <= 0.05
        for m in (1, 3, 5):
            value = exact_moment_Sn(m, 500, inp)
            assert abs(float(value)) <= 0.05


def test_criterion_6_meander_combinatorics():
    with criterion(6, "loop histograms and the two loop counters agree"):
        for m in range(1, 6):
            hist = loop_distribution(m)
            assert sum(hist.values()) == catalan_number(m) ** 2
            assert hist[m] == catalan_number(m)
        for m in range(1, 5):
            for system in enumerate_systems(m):
                assert loop_count(system) == loop_count_by_tracing(system)


def test_criterion_7_mobius_and_cumulant_suite():
    with criterion(7, "transform round trip, full-interval Mobius values, pairing counts"):
        rnd = random.Random(20260810)
        for _ in range(100):
            length = rnd.randint(1, 10)
            values = [Fr(rnd.randint(-40, 40), rnd.randint(1, 20)) for _ in range(length)]
            ms = MomentSeq(values)
            assert moments_from_free_cumulants(free_cumulants_from_moments(ms)) == ms
        for n in range(1, 8):
            assert mobius_nc(all_singletons(n), one_block(n)) == (
                (-1) ** (n - 1) * catalan_number(n - 1)
            )
        assert brute_force_bicon(2) == 1


def test_criterion_8_matrix_model_statistics():
    with criterion(8, "seeded GUE run matches exact predictions within 3 standard errors"):
        spec = EnsembleSpec(dim=100, sigma=1.0, lam=0.0)
        config = SimConfig(d=2, n=100, trials=200, seed=42, max_moment=4)
        exact = exact_trace_predictions(2, 0, 1, 4)
        assert_within_three_standard_errors(compare_to_prediction(config, spec, exact))

        for dim in (16, 32):
            samples = [
                sample_hermitian(EnsembleSpec(dim=dim, sigma=1.0, lam=0.3), matrix_rng(7, t, j))
                for t, j in product(range(2), range(2))
            ]
            word_rng = random.Random(99)
            words = [[word_rng.randrange(len(samples)) for _ in range(length)]
                     for length in range(1, 7)]
            words.append([2] * 5)  # repeated index: tr of a power is real
            for word in words:
                assert transpose_trace_check(samples, word) <= 1e-10


def test_criterion_9_structural_counts():
    with criterion(9, "vertically split family at m = 2 and Catalan counts for every side map"):
        four = {p.to_text() for p in enumerate_bnc_vs_alt(2)}
        assert four == {"1|2|3|4", "1,3|2|4", "1|2,4|3", "1,3|2,4"}
        for n in range(7):
            partitions = list(enumerate_partitions(n))
            for sides in product("LR", repeat=n):
                chi = ChiMap(sides)
                built = set(enumerate_bnc(chi))
                assert len(built) == catalan_number(n)
                assert built == {p for p in partitions if is_bnc(p, chi)}
