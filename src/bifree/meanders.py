"""Meandric systems: two non-crossing arc systems over 2m points.

A system is a pair of non-crossing pairings of [2m], drawn above and below a
horizontal line; following arcs alternately up and down traces closed loops.
Vertically split alternating pair partitions on [4m] correspond bijectively
to these systems (left nodes give the top arcs, right nodes the bottom), and
the loop count is exactly what weights each partition in the centred tensor
CLT, so both the bijection and two independent loop counters live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bichromatic import BNCPartition, chi_alternating, is_vertically_split
from .limits import ResourceLimitError
from .partitions import SetPartition, enumerate_pair_noncrossing, join_size

DEFAULT_MAX_SIZE = 6


@dataclass(frozen=True)
class MeandricSystem:
    """Arcs above (`top`) and below (`bottom`) a line through 2m points."""

    m: int
    top: SetPartition
    bottom: SetPartition

    def __post_init__(self):
        for name, part in (("top", self.top), ("bottom", self.bottom)):
            if part.n != 2 * self.m:
                raise ValueError(f"{name} arcs must cover 2m = {2 * self.m} points")
            if not part.is_pair_partition() or not part.is_noncrossing():
                raise ValueError(f"{name} arcs must form a non-crossing pairing")

    def to_text(self) -> str:
        return f"top={self.top.to_text()};bottom={self.bottom.to_text()}"

    @classmethod
    def from_text(cls, text: str) -> "MeandricSystem":
        try:
            top_part, bottom_part = text.strip().split(";")
            top = SetPartition.from_text(top_part.removeprefix("top="))
            bottom = SetPartition.from_text(bottom_part.removeprefix("bottom="))
        except Exception as exc:
            raise ValueError(f"malformed meandric system text: {text!r}") from exc
        if top.n != bottom.n or top.n % 2:
            raise ValueError("top and bottom must pair the same even point count")
        return cls(top.n // 2, top, bottom)


def from_bnc(p: BNCPartition) -> MeandricSystem:
    """Convert an alternating, vertically split pair partition on [4m] into a
    meandric system: the pairing of the left nodes (positions 2k-1, relabelled
    to k) becomes the top arcs, the right-node pairing the bottom arcs.

    The left-to-top choice is a serialization convention only; the loop count
    does not depend on it.
    """
    n = p.n
    if n % 4 or p.chi != chi_alternating(n // 2):
        raise ValueError("expected the alternating side map on [4m]")
    if not p.partition.is_pair_partition():
        raise ValueError("expected a pair partition")
    if not is_vertically_split(p):
        raise ValueError("expected a vertically split partition")
    m = n // 4
    top_blocks = []
    bottom_blocks = []
    for a, b in p.partition.blocks:
        if a % 2:  # left node positions are odd
            top_blocks.append(((a + 1) // 2, (b + 1) // 2))
        else:
            bottom_blocks.append((a // 2, b // 2))
    return MeandricSystem(
        m, SetPartition(2 * m, top_blocks), SetPartition(2 * m, bottom_blocks)
    )


def to_bnc(system: MeandricSystem) -> BNCPartition:
    """Inverse of :func:`from_bnc`."""
    blocks = [tuple(2 * x - 1 for x in b) for b in system.top.blocks]
    blocks += [tuple(2 * x for x in b) for b in system.bottom.blocks]
    return BNCPartition(
        SetPartition(4 * system.m, blocks), chi_alternating(2 * system.m)
    )


def loop_count(system: MeandricSystem) -> int:
    """Number of closed loops: each loop is a block of the join of the top
    and bottom arc systems, so the count is |top v bottom|."""
    return join_size(2 * system.m, system.top.blocks + system.bottom.blocks)


def loop_count_by_tracing(system: MeandricSystem) -> int:
    """Independent loop counter: walk each loop explicitly, alternating
    between top and bottom arcs until it closes."""
    top_partner = _partner_map(system.top)
    bottom_partner = _partner_map(system.bottom)
    unvisited = set(range(1, 2 * system.m + 1))
    loops = 0
    while unvisited:
        start = min(unvisited)
        x = start
        use_top = True
        while True:
            unvisited.discard(x)
            x = top_partner[x] if use_top else bottom_partner[x]
            use_top = not use_top
            if x == start and use_top:
                break
            unvisited.discard(x)
        loops += 1
    return loops


def _partner_map(pairing: SetPartition) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, b in pairing.blocks:
        out[a] = b
        out[b] = a
    return out


def enumerate_systems(m: int) -> Iterator[MeandricSystem]:
    """All Catalan(m)^2 meandric systems of size m."""
    pairings = list(enumerate_pair_noncrossing(2 * m))
    for top in pairings:
        for bottom in pairings:
            yield MeandricSystem(m, top, bottom)


def loop_distribution(m: int, max_size: int = DEFAULT_MAX_SIZE) -> dict[int, int]:
    """Histogram of loop counts over all systems of size m.

    Enumerates Catalan(m)^2 systems, so m is capped (default 6); raise the cap
    explicitly to go further.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > max_size:
        raise ResourceLimitError(
            f"meander size {m} exceeds the cap {max_size} "
            f"(Catalan(m)^2 systems would be enumerated)"
        )
    hist: dict[int, int] = {}
    for system in enumerate_systems(m):
        c = loop_count(system)
        hist[c] = hist.get(c, 0) + 1
    return hist
