"""Reference leg distributions shared by the engine and acceptance tests,
the oracles the tests pin the library against (the interleaving test for
bi-non-crossing partitions, the literal partition-sum and fresh-memo routes
for coloured free moments, the centred limit moment, and the word walk for
the matrix model's traces of powers), and the Kraus operator that the matrix
model's Delta reduces to."""

import math
from fractions import Fraction as Fr
from typing import Sequence

import numpy as np

from bifree.bichromatic import BNCPartition, ChiMap
from bifree.cumulants import (
    ColouredMoments,
    CumulantSeq,
    MomentSeq,
    Rational,
    _canonical_colours,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
)
from bifree.limits import InsufficientMomentsError
from bifree.limit_law import semicircle_moments
from bifree.partitions import SetPartition, blocks_cross, catalan_number, enumerate_noncrossing
from bifree.tensor_clt import TensorCLTInput


def is_bnc_interleaving(pi: SetPartition, chi: ChiMap) -> bool:
    """Independent route for `bifree.bichromatic.is_bnc`: no two blocks
    interleave in the side order."""
    if pi.n != chi.n:
        raise ValueError("partition and side map sizes differ")
    inv = chi.inverse_permutation
    reordered = [tuple(inv[x - 1] for x in b) for b in pi.blocks]
    for i in range(len(reordered)):
        for j in range(i + 1, len(reordered)):
            if blocks_cross(reordered[i], reordered[j]):
                return False
    return True


def is_vertically_split(p: BNCPartition) -> bool:
    """True iff no block mixes left and right positions."""
    sides = p.chi.sides
    for b in p.partition.blocks:
        first = sides[b[0] - 1]
        if any(sides[x - 1] != first for x in b[1:]):
            return False
    return True


def free_coloured_moment(colours: Sequence[int], ms: MomentSeq) -> Fr:
    """Joint moment of identically distributed free copies indexed by colour,
    as a Fraction, by a fresh `ColouredMoments` memo."""
    r = len(colours)
    if r > ms.order:
        raise InsufficientMomentsError(
            f"word of length {r} needs moments up to order {r}, have {ms.order}"
        )
    memo = ColouredMoments(ms, r)
    return Fr(memo.word(_canonical_colours(colours)), memo.scale**r)


def centred_limit_moment(m: int, var_a: Rational, var_b: Rational) -> Fr:
    """Limit moment of the unnormalised centred tensor sum: zero at odd
    orders, the non-crossing pairing count times the variance powers at even
    orders."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m % 2:
        return Fr(0)
    half = m // 2
    return catalan_number(half) * Fr(var_a) ** half * Fr(var_b) ** half


def coloured_moment_by_nc_sum(colours: Sequence[int], ms: MomentSeq) -> Fr:
    """Joint moment of free identically distributed copies indexed by colour,
    as the literal sum over NC(r) of the products of free cumulants over the
    blocks, with every block that mixes colours dropped."""
    kappas = free_cumulants_from_moments(ms).values
    total = Fr(0)
    for part in enumerate_noncrossing(len(colours)):
        term = Fr(1)
        for block in part.blocks:
            if len({colours[x - 1] for x in block}) > 1:
                term = Fr(0)
                break
            term *= kappas[len(block) - 1]
        total += term
    return total


def traces_by_word_walk(matrices, means, max_moment: int) -> list[float]:
    """tr(Delta^k)/n^2, k = 1..max_moment, for the Delta of
    `bifree.matrix_model.build_delta`, by walking every word over its Kronecker
    summands: the trace of a product of Kronecker products splits into one
    trace per side, so the n^2 x n^2 operator is never formed."""
    d = len(matrices) // 2
    n = matrices[0].shape[0]
    scale = 1.0 / math.sqrt(d)
    gamma = -scale * sum(means[j] * means[j + d] for j in range(d))
    eye = np.eye(n, dtype=np.complex128)
    left = [scale * matrices[j] for j in range(d)]
    right = [matrices[j + d].conj() for j in range(d)]
    if gamma:
        left.append(gamma * eye)
        right.append(eye)
    acc = [0.0] * max_moment

    def walk(depth, left_prod, right_prod):
        for lm, rm in zip(left, right):
            lp = left_prod @ lm
            rp = right_prod @ rm
            acc[depth] += (np.trace(lp) * np.trace(rp)).real / (n * n)
            if depth + 1 < max_moment:
                walk(depth + 1, lp, rp)

    walk(0, eye, eye)
    return acc


def build_kraus(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kraus operator of a channel: sum_j K_j (x) conj(K_j)."""
    n = kraus_ops[0].shape[0]
    if any(k.shape != (n, n) for k in kraus_ops):
        raise ValueError("all Kraus operators must share the same square shape")
    total = np.zeros((n * n, n * n), dtype=np.complex128)
    for op in kraus_ops:
        total += np.kron(op, op.conj())
    return total


def semicircle_legs(order: int = 8) -> TensorCLTInput:
    """Centred unit-variance semicircle on both legs (lam = 0, q = 0)."""
    ms = semicircle_moments(order)
    return TensorCLTInput.from_legs(ms, ms)


def bernoulli_legs(order: int = 8) -> TensorCLTInput:
    """Two-point mass at 0 and 2 on both legs: lam = 1, sigma^2 = 1, q = 2/3."""
    ms = MomentSeq.from_rationals([Fr(2) ** (k - 1) for k in range(1, order + 1)])
    return TensorCLTInput.from_legs(ms, ms)


def asymmetric_legs(order: int = 8) -> TensorCLTInput:
    """Different leg distributions with equal mean 1/2 and variance 1:
    a shifted semicircle against a two-point mass (q = 1/3)."""
    kappas = (Fr(1, 2), Fr(1)) + (Fr(0),) * (order - 2)
    ms_a = moments_from_free_cumulants(CumulantSeq(kappas))
    ms_b = MomentSeq.from_rationals(
        [(Fr(-1, 2) ** k + Fr(3, 2) ** k) / 2 for k in range(1, order + 1)]
    )
    return TensorCLTInput.from_legs(ms_a, ms_b)


def shifted_semicircle_legs(lam, sigma2, order: int = 8) -> TensorCLTInput:
    """Semicircle of the given variance shifted by lam, on both legs."""
    kappas = (Fr(lam), Fr(sigma2)) + (Fr(0),) * (order - 2)
    ms = moments_from_free_cumulants(CumulantSeq(kappas))
    return TensorCLTInput.from_legs(ms, ms)


def reference_inputs(order: int = 8) -> list[TensorCLTInput]:
    return [semicircle_legs(order), bernoulli_legs(order), asymmetric_legs(order)]
