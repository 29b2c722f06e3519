"""Reference leg distributions shared by the engine and acceptance tests (a
point mass and the semicircle's Catalan moments among them), the oracles the
tests pin the library against (the interleaving test for bi-non-crossing
partitions, the refinement order with its bottom and top partitions, the
size of a join by union-find, which counts the loops of one meandric system
and the transfer matrix's blocks, the Mobius function of NC(n), the
crossing-graph count of bipartite-connected pairings, the literal
partition-sum and first-block routes for coloured free moments, the tensor
route for finite-n tensor-sum moments, the centred limit moment, and the
word walk for the matrix model's traces of powers), criterion 8's verdict on
a Monte Carlo run, the vertically split family over the alternating side
map, single GUE samples and the transpose-trace identity they satisfy, the
Kraus operator that the matrix model's Delta reduces to, and a fresh
interpreter on this checkout's sources."""

import math
import os
import subprocess
import sys
from fractions import Fraction as Fr
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from bifree.bichromatic import LEFT, RIGHT, ChiMap
from bifree.cumulants import (
    CumulantSeq,
    MomentSeq,
    Rational,
    free_cumulants_from_moments,
    integer_cumulants,
    moments_from_free_cumulants,
)
from bifree.limits import InsufficientMomentsError
from bifree.matrix_model import (
    ComparisonRow,
    EnsembleSpec,
    SimConfig,
    _draw_hermitian,
    _SampleBuffer,
)
from bifree.partitions import SetPartition, catalan_number, enumerate_noncrossing
from bifree.tensor_clt import ExactMoment, TensorCLTInput, moment_from_coefficients


def blocks_cross(a: Sequence[int], b: Sequence[int]) -> bool:
    """Interleaving test: blocks cross iff the merged order switches between
    them at least three times (the pattern a < b < a < b or its mirror)."""
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    switches = 0
    prev = merged[0][1]
    for _, lab in merged[1:]:
        if lab != prev:
            switches += 1
            prev = lab
    return switches >= 3


def all_singletons(n: int) -> SetPartition:
    """The finest partition of [n], the bottom of the refinement order."""
    return SetPartition(n, [(i,) for i in range(1, n + 1)])


def one_block(n: int) -> SetPartition:
    """The coarsest partition of [n], the top of the refinement order."""
    return SetPartition(n, [tuple(range(1, n + 1))] if n else [])


def is_refinement(sigma: SetPartition, pi: SetPartition) -> bool:
    """True iff every block of sigma lies inside a single block of pi."""
    if sigma.n != pi.n:
        raise ValueError("partitions live on different ground sets")
    idx = pi.block_index()
    for b in sigma.blocks:
        target = idx[b[0] - 1]
        for x in b[1:]:
            if idx[x - 1] != target:
                return False
    return True


def join_size(n: int, blocks: Iterable[Sequence[int]]) -> int:
    """Number of blocks of the finest partition of [n] that contains every
    given block in one of its blocks (the join of the partitions the blocks
    come from), by union-find over the n elements."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for block in blocks:
        root = find(block[0])
        for x in block[1:]:
            other = find(x)
            if other != root:
                parent[other] = root
                count -= 1
    return count


@lru_cache(maxsize=None)
def _noncrossing_list(n: int) -> tuple[SetPartition, ...]:
    """NC(n), enumerated once for every Mobius column over it."""
    return tuple(enumerate_noncrossing(n))


@lru_cache(maxsize=None)
def _mobius_column(sigma: SetPartition) -> dict[SetPartition, int]:
    """{tau: mu(tau, sigma)} over the non-crossing tau below sigma, by the
    recursion mu(sigma, sigma) = 1, mu(tau, sigma) = -sum over tau < rho <=
    sigma of mu(rho, sigma).  Coarser partitions come first, so every rho above
    tau is in the column before tau."""
    below = [t for t in _noncrossing_list(sigma.n) if is_refinement(t, sigma)]
    below.sort(key=lambda t: len(t.blocks))
    column: dict[SetPartition, int] = {}
    for tau in below:
        if tau == sigma:
            column[tau] = 1
        else:
            column[tau] = -sum(mu for rho, mu in column.items() if is_refinement(tau, rho))
    return column


def mobius_nc(pi: SetPartition, sigma: SetPartition) -> int:
    """Mobius function of the non-crossing partition lattice, zero when pi
    does not refine sigma."""
    if pi.n != sigma.n:
        raise ValueError("partitions live on different ground sets")
    if not pi.is_noncrossing() or not sigma.is_noncrossing():
        raise ValueError("mobius_nc requires non-crossing arguments")
    return _mobius_column(sigma).get(pi, 0)


def pairings_oracle(n: int):
    """All pairings of [n] as frozensets of pairs: the first point paired with
    each other point in turn, then the rest recursively."""
    if n == 0:
        return [frozenset()]
    out = []

    def rec(points, acc):
        if not points:
            out.append(frozenset(acc))
            return
        first = points[0]
        for other in points[1:]:
            rest = tuple(x for x in points[1:] if x != other)
            rec(rest, acc + [(first, other)])

    rec(tuple(range(1, n + 1)), [])
    return out


def brute_force_bicon(two_j: int) -> int:
    """Number of pairings of [two_j] whose crossing graph is connected and
    bipartite: own pairing walk, own crossing test, own 2-colouring."""
    count = 0
    for pairing in pairings_oracle(two_j):
        blocks = sorted(tuple(sorted(b)) for b in pairing)
        edges = [
            (i, j)
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
            if blocks[i][0] < blocks[j][0] < blocks[i][1] < blocks[j][1]
            or blocks[j][0] < blocks[i][0] < blocks[j][1] < blocks[i][1]
        ]
        adj = {i: set() for i in range(len(blocks))}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        colour = {0: 0}
        stack = [0]
        ok = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = colour[v] ^ 1
                    stack.append(w)
                elif colour[w] == colour[v]:
                    ok = False
        if ok and len(colour) == len(blocks):
            count += 1
    return count


def inverse_permutation(chi: ChiMap) -> tuple[int, ...]:
    """Rank of each position 1..n in the side map's reading order (entry x-1
    is the rank of x), the inverse of `ChiMap.permutation`."""
    inv = [0] * chi.n
    for k, image in enumerate(chi.permutation, start=1):
        inv[image - 1] = k
    return tuple(inv)


def is_bnc_interleaving(pi: SetPartition, chi: ChiMap) -> bool:
    """Independent route for `bifree.bichromatic.is_bnc`: no two blocks
    interleave in the side order."""
    if pi.n != chi.n:
        raise ValueError("partition and side map sizes differ")
    inv = inverse_permutation(chi)
    reordered = [tuple(inv[x - 1] for x in b) for b in pi.blocks]
    for i in range(len(reordered)):
        for j in range(i + 1, len(reordered)):
            if blocks_cross(reordered[i], reordered[j]):
                return False
    return True


def is_vertically_split(pi: SetPartition, chi: ChiMap) -> bool:
    """True iff no block of pi mixes left and right positions of chi."""
    sides = chi.sides
    for b in pi.blocks:
        first = sides[b[0] - 1]
        if any(sides[x - 1] != first for x in b[1:]):
            return False
    return True


def chi_alternating(m: int) -> ChiMap:
    """The alternating map on [2m]: odd positions left, even positions right."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return ChiMap((LEFT, RIGHT) * m)


def enumerate_bnc_vs_alt(m: int) -> Iterator[SetPartition]:
    """Vertically split bi-non-crossing partitions over the alternating map on
    [2m]: one non-crossing partition of the m left nodes (node k at position
    2k-1) paired with one of the m right nodes (node k at position 2k);
    Catalan(m)^2 elements."""
    parts = tuple(enumerate_noncrossing(m))
    for lp, rp in product(parts, parts):
        blocks = [tuple(2 * x - 1 for x in b) for b in lp.blocks]
        blocks += [tuple(2 * x for x in b) for b in rp.blocks]
        yield SetPartition(2 * m, blocks)


def _canonical_colours(colours: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for c in colours:
        out.append(relabel.setdefault(c, len(relabel)))
    return tuple(out)


class ColouredMoments:
    """Joint moments phi(x_{c_1} ... x_{c_r}) of identically distributed free
    copies of one law, memoised by canonical colour word (colours renumbered
    0, 1, 2, ... in order of first appearance).

    Only non-crossing partitions with monochromatic blocks contribute, each
    as the product of the plain free cumulants over its block sizes.  A word
    is evaluated by splitting off the block of its first letter: that block
    holds positions of the first colour only and weighs kappa_|block|, and the
    gaps between its members are shorter words, evaluated independently.

    The memo holds integers.  With ``scale`` the lcm D of the cumulant
    denominators, kappa_k D^k is an integer, and the block sizes of a word of
    length r add up to r, so D^r times its moment is an integer too.  Only
    the law's first ``order`` moments are read, since no longer word is
    evaluated.
    """

    def __init__(self, ms: MomentSeq, order: int):
        self.scale, self._kappas = integer_cumulants(ms, order)
        self._memo: dict[tuple[int, ...], int] = {(): 1}

    def word(self, word: tuple[int, ...]) -> int:
        """D^len(word) times the moment of a canonical word no longer than
        both ``order`` and the law's moment order."""
        value = self._memo.get(word)
        if value is None:
            value = self._memo[word] = self._first_block(word)
        return value

    def _first_block(self, word: tuple[int, ...]) -> int:
        r = len(word)
        same = [i for i in range(1, r) if word[i] == 0]
        total = 0
        for size in range(len(same) + 1):
            kappa = self._kappas[size]
            if not kappa:
                continue
            for members in combinations(same, size):
                term = kappa
                lo = 0
                for hi in members + (r,):
                    term *= self.word(_canonical_colours(word[lo + 1 : hi]))
                    if not term:
                        break
                    lo = hi
                total += term
        return total


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


class TensorRoute:
    """Oracle for `bifree.tensor_clt.exact_moment_Sn`: the numerator of the
    m-th moment of S_n from moments of the uncentred sum
    T = sum_k a_k (x) b_k.

    The centred sum is T - n lam^2, so the numerator is
    sum_j C(m, j) (-n lam^2)^(m-j) phi(T^j), and
    phi(T^j) = sum_w n (n-1) ... (n - r(w) + 1) alpha(w) beta(w) over the
    restricted-growth words w of length j, r(w) the number of distinct
    letters: the j summand indices with kernel w can be chosen in that many
    ways, and phi (x) phi factorises into one coloured free moment per leg.
    The products alpha(w) beta(w) are summed per (j, r) in integers, and each
    falling factorial is expanded into powers of n once per r.  The word sums
    and the coloured-moment memos grow with m and are kept, so a sweep of
    orders walks each word once (m = 9: 21,147 words)."""

    def __init__(self, inp: TensorCLTInput):
        self.inp = inp
        self._alpha = ColouredMoments(inp.ms_a, inp.max_order)
        self._beta = self._alpha if inp.ms_b == inp.ms_a else ColouredMoments(inp.ms_b, inp.max_order)
        # _word_sums[j][r]: (D_a D_b)^j alpha(w) beta(w) summed over the
        # restricted-growth words w of length j with r letters; _words holds
        # the words of the longest length so far, with their letter counts
        self._word_sums: list[list[int]] = [[1]]
        self._words: list[tuple[tuple[int, ...], int]] = [((), 0)]

    def coefficients(self, m: int) -> tuple[Fr, ...]:
        """c[b] with numerator = sum_b c[b] n^b.  The numerator is
        sum_j C(m, j) (-n lam^2)^(m-j) sum_r n^(r) _word_sums[j][r] / (D_a D_b)^j,
        n^(r) the falling factorial; with lam^2 = p/q every term is an integer
        over (q D_a D_b)^m."""
        self._extend_word_sums(m)
        lam2 = self.inp.lam**2
        p, q = lam2.numerator, lam2.denominator
        scale = self._alpha.scale * self._beta.scale
        falling = [[1]]  # falling[r]: coefficients of n (n-1) ... (n-r+1), lowest power first
        for r in range(m):
            falling.append([a - r * b for a, b in zip([0] + falling[-1], falling[-1] + [0])])
        coeffs = [0] * (m + 1)
        for j in range(m + 1):
            weight = math.comb(m, j) * (-p) ** (m - j) * q**j * scale ** (m - j)
            for r, total in enumerate(self._word_sums[j]):
                for k, s in enumerate(falling[r]):
                    coeffs[m - j + k] += weight * total * s
        den = (q * scale) ** m
        return tuple(Fr(c, den) for c in coeffs)

    def _extend_word_sums(self, m: int) -> None:
        while len(self._word_sums) <= m:
            self._words = [
                (word + (c,), max(letters, c + 1))
                for word, letters in self._words
                for c in range(letters + 1)
            ]
            row = [0] * (len(self._word_sums) + 1)
            for word, letters in self._words:
                row[letters] += self._alpha.word(word) * self._beta.word(word)
            self._word_sums.append(row)


@lru_cache(maxsize=4)  # one test's inputs, so the next test extends their word sums
def _tensor_route(inp: TensorCLTInput) -> TensorRoute:
    return TensorRoute(inp)


def tensor_route_coefficients(inp: TensorCLTInput, m: int) -> tuple[Fr, ...]:
    """The numerator's coefficients in n by the tensor route."""
    return _tensor_route(inp).coefficients(m)


def tensor_route_moment(m: int, n: int, inp: TensorCLTInput) -> ExactMoment:
    """m-th moment of S_n by the tensor route, for m up to the legs' order."""
    return moment_from_coefficients(tensor_route_coefficients(inp, m), m, n, inp)


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


def traces_by_word_walk(matrices, lam: float, max_moment: int) -> list[float]:
    """tr(Delta^k)/n^2, k = 1..max_moment, for the Delta of
    `bifree.matrix_model.build_delta`, by walking every word over its Kronecker
    summands: the trace of a product of Kronecker products splits into one
    trace per side, so the n^2 x n^2 operator is never formed."""
    d = len(matrices) // 2
    n = matrices[0].shape[0]
    scale = 1.0 / math.sqrt(d)
    gamma = -scale * d * lam * lam
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


def sample_hermitian(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One Hermitian sample, drawn by the matrix model's own draw
    (`bifree.matrix_model._draw_hermitian`, which describes the entries)."""
    draw = _SampleBuffer(SimConfig(d=1, n=spec.dim, trials=1, seed=0), 1)
    _draw_hermitian(draw.samples[0].reshape(-1), spec, rng, draw.scratch)
    return draw.samples[0]


def transpose_trace_check(samples: Sequence[np.ndarray], word: Sequence[int]) -> float:
    """Relative deviation between tr(X_{w_k} ... X_{w_1}) and
    tr(conj(X_{w_1}) ... conj(X_{w_k})); exactly zero in exact arithmetic for
    Hermitian samples, so only float roundoff remains."""
    if not word:
        raise ValueError("word must be non-empty")
    n = samples[0].shape[0]
    reversed_prod = np.eye(n, dtype=np.complex128)
    for idx in reversed(word):
        reversed_prod = reversed_prod @ samples[idx]
    conj_prod = np.eye(n, dtype=np.complex128)
    for idx in word:
        conj_prod = conj_prod @ samples[idx].conj()
    t1 = np.trace(reversed_prod) / n
    t2 = np.trace(conj_prod) / n
    return abs(t1 - t2) / max(1.0, abs(t1), abs(t2))


def assert_within_three_standard_errors(rows: Sequence[ComparisonRow]) -> None:
    """Criterion 8's verdict on a Monte Carlo run: every order has a z-score,
    and max |z| <= 3."""
    assert all(row.z is not None and abs(row.z) <= 3 for row in rows), [(r.m, r.z) for r in rows]


def build_kraus(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kraus operator of a channel: sum_j K_j (x) conj(K_j)."""
    n = kraus_ops[0].shape[0]
    if any(k.shape != (n, n) for k in kraus_ops):
        raise ValueError("all Kraus operators must share the same square shape")
    total = np.zeros((n * n, n * n), dtype=np.complex128)
    for op in kraus_ops:
        total += np.kron(op, op.conj())
    return total


def point_mass(location: Rational, order: int) -> MomentSeq:
    """Moments of orders 1..order of the point mass at ``location``."""
    return MomentSeq([Fr(location) ** k for k in range(1, order + 1)])


def semicircle_moments(order: int) -> MomentSeq:
    """Centred unit-variance semicircle: the Catalan number C_(n/2) at each
    even order n, zero at the odd ones."""
    return MomentSeq(0 if n % 2 else catalan_number(n // 2) for n in range(1, order + 1))


def semicircle_legs(order: int = 8) -> TensorCLTInput:
    """Centred unit-variance semicircle on both legs (lam = 0, q = 0)."""
    ms = semicircle_moments(order)
    return TensorCLTInput(ms, ms)


def bernoulli_legs(order: int = 8) -> TensorCLTInput:
    """Two-point mass at 0 and 2 on both legs: lam = 1, sigma^2 = 1, q = 2/3."""
    ms = MomentSeq([Fr(2) ** (k - 1) for k in range(1, order + 1)])
    return TensorCLTInput(ms, ms)


def asymmetric_legs(order: int = 8) -> TensorCLTInput:
    """Different leg distributions with equal mean 1/2 and variance 1:
    a shifted semicircle against a two-point mass (q = 1/3)."""
    kappas = (Fr(1, 2), Fr(1)) + (Fr(0),) * (order - 2)
    ms_a = moments_from_free_cumulants(CumulantSeq(kappas))
    ms_b = MomentSeq([(Fr(-1, 2) ** k + Fr(3, 2) ** k) / 2 for k in range(1, order + 1)])
    return TensorCLTInput(ms_a, ms_b)


def shifted_semicircle_legs(lam, sigma2, order: int = 8) -> TensorCLTInput:
    """Semicircle of the given variance shifted by lam, on both legs."""
    kappas = (Fr(lam), Fr(sigma2)) + (Fr(0),) * (order - 2)
    ms = moments_from_free_cumulants(CumulantSeq(kappas))
    return TensorCLTInput(ms, ms)


def reference_inputs(order: int = 8) -> list[TensorCLTInput]:
    return [semicircle_legs(order), bernoulli_legs(order), asymmetric_legs(order)]


def _fresh_env(env: dict[str, str]) -> dict[str, str]:
    """This environment on this checkout's sources, with ``env`` added and
    PYTHONUNBUFFERED removed, so stdout is buffered as by default."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(inherited, PYTHONPATH=src, **env)


def run_fresh(args: Sequence[str], stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter (see :func:`_fresh_env`); text
    output captured, stdout unless ``stdout`` sends it elsewhere."""
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        env=_fresh_env(env),
    )


def start_fresh(args: Sequence[str], **env: str) -> subprocess.Popen:
    """``python args`` started in a fresh interpreter (see :func:`_fresh_env`)
    as the leader of a new session, so of its own process group, with its
    text output piped."""
    return subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_fresh_env(env), start_new_session=True,
    )
