"""Minimum isolating cuts for disjoint vertex groups.

Given g >= 2 disjoint groups, computes for every group the minimum-weight
cut separating it from all other groups, using ceil(log2 g) bipartition
max-flows to localise each group's region followed by one max-flow per
group against everything outside its region, all on `g` with the vertex
sets merged.  Each reported side is the unique minimal optimal one (the
residual-reachability side nearest the group), so the sides are pairwise
disjoint.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Cut, Graph
from .maxflow import _merged_flow


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

    everything = frozenset(range(g.n))

    # Localisation: for every index bit, one max-flow separating the groups
    # whose indices have the bit clear from those with it set.  Each group's
    # region is the intersection of its sides of these cuts.
    regions = [everything] * len(gsets)
    nbits = (len(gsets) - 1).bit_length()
    for bit in range(nbits):
        zeros = [v for i, grp in enumerate(gsets) if not (i >> bit) & 1 for v in grp]
        ones = [v for i, grp in enumerate(gsets) if (i >> bit) & 1 for v in grp]
        one_side = _merged_flow(g, zeros, ones).mincut.side
        zero_side = everything - one_side
        for i in range(len(gsets)):
            regions[i] &= one_side if (i >> bit) & 1 else zero_side

    results: list[GroupCut] = []
    for grp, region in zip(gsets, regions):
        res = _merged_flow(g, grp, everything - region)
        results.append(GroupCut(grp, everything - res.mincut.side, res.value))
    return results
