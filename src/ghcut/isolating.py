"""Minimum isolating cuts for disjoint vertex groups.

Given g >= 2 disjoint groups, computes for every group the minimum-weight
cut separating it from all other groups, using ceil(log2 g) bipartition
max-flows to localise each group's region, then one max-flow per group
against everything outside its region, all on `g` with the vertex sets
merged.  A group whose region is the group itself needs no flow: its only
isolating cut inside the region is its own boundary.  Each reported side
is the unique minimal optimal one (the residual-reachability side nearest
the group), so the sides are pairwise disjoint.  The guided search asks
`_isolating_cuts` for the sides it reads: all but the source group's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Cut, Graph, _vertex_groups
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
    """Minimal optimal isolating cut of each group, in the given order.

    There must be at least two groups.  Each must be a nonempty set of int
    vertex ids of `g` (bool refused), and no vertex may be in two groups;
    vertices in no group may fall on any side.
    """
    gsets, _ = _vertex_groups(g.n, groups, "isolating")
    if len(gsets) < 2:
        raise ValueError(f"need at least 2 groups, got {len(gsets)}")
    return _isolating_cuts(g, gsets, 0)


def _isolating_cuts(g: Graph, gsets: Sequence[frozenset[int]], first: int) -> list[GroupCut]:
    """`isolating_cuts` of checked groups, for `gsets[first:]` only: every
    group still takes part in the localisation, but the groups before
    `first` get no flow of their own."""
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
    for grp, region in zip(gsets[first:], regions[first:]):
        if region == grp:
            # the group's own boundary is the only cut inside its region
            value = sum(g.cap0[e] for v in grp for e in g.adj[v] if g.to[e] not in grp)
            results.append(GroupCut(grp, grp, value))
            continue
        res = _merged_flow(g, grp, everything - region)
        results.append(GroupCut(grp, everything - res.mincut.side, res.value))
    return results
