"""Independent oracles that the output checks compare the CLI against.

Each oracle reaches its answer by a different algorithm from the one the
CLI runs, so agreement is evidence that the output is right:

* coloured free moments by the first-block recursion (the CLI sums over a
  filtered list of non-crossing partitions);
* E tr(Delta^m) by meeting in the middle on the Kronecker words (the CLI
  walks every word of length m);
* bipartite-connected pairing counts from the semicircle-convolution
  identity (the CLI classifies every pairing).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from bifree.cumulants import MomentSeq, free_cumulants_from_moments


def set_partitions(m: int) -> Iterator[tuple[int, ...]]:
    """Every partition of m points as a restricted-growth label word."""
    if m == 0:
        yield ()
        return

    def grow(prefix: list[int], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for label in range(top + 1):
            prefix.append(label)
            yield from grow(prefix, max(top, label + 1))
            prefix.pop()

    yield from grow([0], 1)


def _canonical(word: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in word)


class ColouredMoments:
    """Joint moments of free identically distributed copies x_c of one law,
    phi(x_{c_1} ... x_{c_r}), by splitting off the block of the first letter:
    that block holds positions of the first colour only, weighs the free
    cumulant of its size, and leaves independent gaps between its members."""

    def __init__(self, kappas: Sequence[Fraction]):
        self.kappas = tuple(kappas)
        self.memo: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}

    def __call__(self, word: Sequence[int]) -> Fraction:
        key = _canonical(word)
        value = self.memo.get(key)
        if value is None:
            value = self._first_block(key)
            self.memo[key] = value
        return value

    def _first_block(self, word: tuple[int, ...]) -> Fraction:
        r = len(word)
        same = [i for i in range(1, r) if word[i] == word[0]]
        total = Fraction(0)
        for size in range(len(same) + 1):
            kappa = self.kappas[size]
            if not kappa:
                continue
            for members in combinations(same, size):
                bounds = (0,) + members + (r,)
                term = kappa
                for lo, hi in zip(bounds, bounds[1:]):
                    term *= self(word[lo + 1:hi])
                    if not term:
                        break
                total += term
        return total


def leg_kappas(moments: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return free_cumulants_from_moments(MomentSeq(tuple(moments))).values


def tensor_block_sums(
    m: int, moments_a: Sequence[Fraction], moments_b: Sequence[Fraction], lam: Fraction
) -> list[Fraction]:
    """F[k]: the sum over partitions p of [m] with k blocks of
    phi(p) = E[(a_{p_1} (x) b_{p_1} - lam^2) ... (a_{p_m} (x) b_{p_m} - lam^2)],
    expanding each centred factor binomially and factorising every word
    across the two legs."""
    phi_a = ColouredMoments(leg_kappas(moments_a))
    phi_b = ColouredMoments(leg_kappas(moments_b))
    lam2 = lam * lam
    sums = [Fraction(0)] * (m + 1)
    for labels in set_partitions(m):
        acc = Fraction(0)
        for mask in range(1 << m):
            word = [labels[i] for i in range(m) if mask >> i & 1]
            dropped = m - len(word)
            if dropped and not lam2:
                continue
            acc += (-lam2) ** dropped * phi_a(word) * phi_b(word)
        sums[max(labels) + 1] += acc
    return sums


def tensor_moment(
    block_sums: Sequence[Fraction], m: int, n: int, delta2: Fraction
) -> tuple[Fraction, Fraction | None]:
    """m-th moment of S_n = (sum of n centred tensor factors)/(delta sqrt n)
    as (coeff, base) meaning coeff/sqrt(base); base is None at even m."""
    numerator = sum(f * math.perm(n, k) for k, f in enumerate(block_sums) if k <= n)
    half = m // 2
    coeff = Fraction(numerator) / (delta2**half * Fraction(n) ** half)
    return coeff, (None if m % 2 == 0 else delta2 * n)


def closed_form_n1(
    m: int, moments_a: Sequence[Fraction], moments_b: Sequence[Fraction], lam: Fraction
) -> tuple[Fraction, Fraction | None]:
    """E[S_1^m] with S_1 = (a (x) b - lam^2)/delta, in the same (coeff, base)
    form as :func:`tensor_moment`."""
    alpha = [Fraction(1)] + list(moments_a)
    beta = [Fraction(1)] + list(moments_b)
    total = sum(
        math.comb(m, k) * (-lam * lam) ** (m - k) * alpha[k] * beta[k] for k in range(m + 1)
    )
    sigma2 = alpha[2] - lam * lam
    delta2 = sigma2 * (sigma2 + 2 * lam * lam)
    coeff = Fraction(total) / delta2 ** (m // 2)
    return coeff, (None if m % 2 == 0 else delta2)


def bicon_counts(j_max: int) -> list[int]:
    """Bipartite-connected pairing counts of [2j], j = 1..j_max: the free
    cumulants of the classical sum of two independent variance-1/2
    semicircles, divided by 2 (1/2)^j."""
    order = 2 * j_max
    semi = [
        Fraction(math.comb(k, k // 2), (k // 2 + 1) * 2 ** (k // 2)) if k % 2 == 0 else Fraction(0)
        for k in range(order + 1)
    ]
    moments = [
        sum(math.comb(n, k) * semi[k] * semi[n - k] for k in range(n + 1))
        for n in range(1, order + 1)
    ]
    kappas = leg_kappas(moments)
    counts = [kappas[2 * j - 1] / (2 * Fraction(1, 2) ** j) for j in range(1, j_max + 1)]
    if any(c.denominator != 1 for c in counts):
        raise ArithmeticError(f"non-integral pairing counts {counts}")
    return [int(c) for c in counts]


def _word_products(letters: np.ndarray, length: int) -> list[np.ndarray]:
    """products[l][w] = letters[w_1] @ ... @ letters[w_l] for every word w of
    length l <= `length`, words in lexicographic order."""
    n = letters.shape[-1]
    products = [np.eye(n, dtype=np.complex128)[None]]
    for _ in range(length):
        products.append((products[-1][:, None] @ letters[None]).reshape(-1, n, n))
    return products


def trace_moments(
    matrices: Sequence[np.ndarray], lam: float, max_moment: int
) -> list[float]:
    """tr(Delta^m)/n^2 for m = 1..max_moment, where
    Delta = (1/sqrt d) sum_j (W_j (x) conj(W_{j+d}) - lam^2 I).

    Delta is a sum of Kronecker letters L_i (x) R_i, so tr(Delta^m) is the sum
    over words u v of tr(L_u L_v) tr(R_u R_v); both factors are Gram matrices
    of the products of the two half-length words."""
    d = len(matrices) // 2
    n = matrices[0].shape[0]
    eye = np.eye(n, dtype=np.complex128)
    left = [W / math.sqrt(d) for W in matrices[:d]]
    right = [W.conj() for W in matrices[d:]]
    gamma = -math.sqrt(d) * lam * lam
    if gamma:
        left.append(gamma * eye)
        right.append(eye)
    half = (max_moment + 1) // 2
    sides = [_word_products(np.array(letters), half) for letters in (left, right)]
    out = []
    for m in range(1, max_moment + 1):
        a, b = m // 2, m - m // 2
        grams = [
            prods[a].reshape(len(prods[a]), -1)
            @ prods[b].swapaxes(1, 2).reshape(len(prods[b]), -1).T
            for prods in sides
        ]
        out.append(float(np.sum(grams[0] * grams[1]).real) / (n * n))
    return out
