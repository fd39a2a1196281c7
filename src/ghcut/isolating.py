"""Minimum isolating cuts for disjoint vertex groups.

Given g >= 2 disjoint groups, computes for every group the minimum-weight
cut separating it from all other groups, using ceil(log2 g) bipartition
max-flows to localise each group's region followed by one max-flow per
group inside its region.  Each reported side is the unique minimal optimal
one (the residual-reachability side nearest the group), so the sides are
pairwise disjoint.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Cut, Graph, contract
from .maxflow import max_flow


@dataclass(frozen=True)
class GroupCut:
    """Minimal optimal isolating cut for one group."""

    group: frozenset[int]
    side: frozenset[int]  # W with group <= W, disjoint from all other groups
    value: int

    def as_cut(self) -> Cut:
        return Cut(self.side, self.value)


def isolating_cuts(g: Graph, groups: Sequence[Iterable[int]]) -> list[GroupCut]:
    gsets = [frozenset(grp) for grp in groups]
    if len(gsets) < 2:
        raise ValueError(f"need at least 2 groups, got {len(gsets)}")
    seen: set[int] = set()
    for grp in gsets:
        if not grp:
            raise ValueError("isolating group may not be empty")
        for v in grp:
            if type(v) is not int:
                raise ValueError(f"group vertex {v!r} is not an integer")
            if not (0 <= v < g.n):
                raise ValueError(f"group vertex {v} out of range for n={g.n}")
            if v in seen:
                raise ValueError(f"groups overlap on vertex {v}")
            seen.add(v)

    quotient, cmap = contract(g, gsets)
    anchors = [cmap.forward[min(grp)] for grp in gsets]
    all_q = frozenset(range(quotient.n))

    # Localisation: for every index bit, one max-flow separating the groups
    # whose indices have the bit clear from those with it set.  Each group's
    # region is the intersection of its sides of these cuts.
    regions = [set(all_q) for _ in gsets]
    nbits = (len(gsets) - 1).bit_length()
    for bit in range(nbits):
        zeros = frozenset(anchors[i] for i in range(len(gsets)) if not (i >> bit) & 1)
        ones = frozenset(anchors[i] for i in range(len(gsets)) if (i >> bit) & 1)
        split, smap = contract(quotient, [zeros, ones])
        res = max_flow(split, smap.forward[min(zeros)], smap.forward[min(ones)])
        one_side = smap.lift_side(res.mincut.side)
        zero_side = all_q - one_side
        for i in range(len(gsets)):
            regions[i] &= one_side if (i >> bit) & 1 else zero_side

    results: list[GroupCut] = []
    for i, grp in enumerate(gsets):
        outside = all_q - frozenset(regions[i])
        local, lmap = contract(quotient, [outside])
        res = max_flow(local, lmap.forward[anchors[i]], lmap.forward[min(outside)])
        w_quotient = frozenset(range(local.n)) - res.mincut.side
        side = cmap.lift_side(lmap.lift_side(w_quotient))
        results.append(GroupCut(grp, side, res.value))
    return results
