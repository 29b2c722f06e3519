"""Meandric systems: two non-crossing arc systems over 2m points.

A system of size m is a pair of non-crossing pairings of [2m], drawn above and
below a horizontal line; following arcs alternately up and down traces closed
loops.  A :class:`MeandricSystem` holds only the two pairings, and its size is
half their point count.  Over the alternating side map the pair is a
vertically split bi-non-crossing pair partition of [4m] (left nodes give the
top arcs, right nodes the bottom), and its loop count |top v bottom| is the
power of n that weights it in the centred tensor CLT.  One system's loops
are counted by the join (production) or by tracing them (the oracle).  The
histogram over all Catalan(m)^2 systems comes from the transfer matrix
:func:`bifree.transfer.nc_pair_join_counts` with weight 1 on pairs and 0 on
every other block on both sides, so no system is built and the run keeps one
state per swap of top and bottom; enumerating the systems and tracing each
one is its oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .limits import Record, ResourceLimitError, env_cap
from .transfer import nc_pair_join_counts

if TYPE_CHECKING:  # partitions loads where a system is parsed, joined or enumerated
    from .partitions import SetPartition

# the transfer matrix of meander dist --size 12 makes 59,983 transitions over
# 22,633 states (summed over the positions), size 13 146,096 over 55,041
DEFAULT_MAX_SIZE = 12


class MeandricSystem(Record):
    """Arcs above (`top`) and below (`bottom`) a line through the same even
    number of points, 2m for a system of size m; immutable."""

    __slots__ = _fields = ("top", "bottom")

    def __init__(self, top: SetPartition, bottom: SetPartition):
        self._set(top, bottom)
        if top.n != bottom.n or top.n % 2:
            raise ValueError("top and bottom must pair the same even point count")
        for name, part in (("top", top), ("bottom", bottom)):
            if not part.is_pair_partition() or not part.is_noncrossing():
                raise ValueError(f"{name} arcs must form a non-crossing pairing")

    def to_text(self) -> str:
        return f"top={self.top.to_text()};bottom={self.bottom.to_text()}"

    @classmethod
    def from_text(cls, text: str) -> "MeandricSystem":
        from .partitions import SetPartition

        try:
            top_part, bottom_part = text.strip().split(";")
            top = SetPartition.from_text(top_part.removeprefix("top="))
            bottom = SetPartition.from_text(bottom_part.removeprefix("bottom="))
        except ValueError as exc:
            raise ValueError(f"malformed meandric system text: {text!r}") from exc
        return cls(top, bottom)


def loop_count(system: MeandricSystem) -> int:
    """Number of closed loops: each loop is a block of the join of the top
    and bottom arc systems, so the count is |top v bottom|."""
    from .partitions import join_size

    return join_size(system.top.n, system.top.blocks + system.bottom.blocks)


def loop_count_by_tracing(system: MeandricSystem) -> int:
    """Independent loop counter: walk each loop explicitly, alternating
    between top and bottom arcs until it closes."""
    top_partner = _partner_map(system.top)
    bottom_partner = _partner_map(system.bottom)
    unvisited = set(range(1, system.top.n + 1))
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
    """All Catalan(m)^2 meandric systems of size m.  Their arcs are the
    non-crossing pairings just enumerated, so no system re-checks them."""
    from .partitions import enumerate_pair_noncrossing

    pairings = list(enumerate_pair_noncrossing(2 * m))
    for top in pairings:
        for bottom in pairings:
            system = object.__new__(MeandricSystem)
            system._set(top, bottom)
            yield system


def loop_distribution(m: int) -> dict[int, int]:
    """Histogram {loops: systems} over all systems of size m, by the transfer
    matrix over pairs of non-crossing pairings of [2m].

    Its cost grows 2- to 3-fold per size, so m is capped at DEFAULT_MAX_SIZE
    unless BIFREE_MAX_SIZE raises the cap.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cap = env_cap(DEFAULT_MAX_SIZE)
    if m > cap:
        raise ResourceLimitError(
            f"meander size {m} exceeds the cap {cap} "
            f"(the transfer matrix grows 2- to 3-fold per size)"
        )
    return nc_pair_join_counts(2 * m, (0, 1), (0, 1))[2 * m]
