"""Exhaustive ground truth for cut values on small graphs.

Every routine here enumerates all candidate vertex sides outright, so the
answers are trustworthy by construction and serve as the reference for the
polynomial implementations and for test fixtures.  Hard size guards keep
the exponential enumeration from running away: callers must stay at or
below 16 vertices (14 for the per-group isolating variant).

Enumeration walks subsets in Gray-code order so each step updates the cut
value by one vertex flip; the visited family is still every subset exactly
once.  Each oracle filters those steps by its own constraint and hands the
rest to one collector, `_optimum`, which keeps the least value and every
side achieving it.  Vertex ids, terminal pairs and groups go through the
same checks as the library's own entry points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import Cut, Graph, _check_pair, _vertex_groups
from .steiner import SteinerTree, _check_guide

ORACLE_MAX_N = 16
ORACLE_MAX_N_ISOLATING = 14


@dataclass(frozen=True)
class OracleAnswer:
    """Optimal value plus every side achieving it.

    `value` is `math.inf` when the constrained family admits no cut at all
    (for example a crossing budget of zero between two tree vertices).
    Witnesses are sorted by side size, then lexicographically.
    """

    value: float
    witnesses: tuple[Cut, ...]

    def minimal_side(self) -> frozenset[int]:
        """The optimal side contained in every other optimal side.

        Exists whenever the optimal family is closed under intersection
        (plain and isolating minimum cuts are); raises otherwise.
        """
        if not self.witnesses:
            raise ValueError("answer has no witnesses")
        cand = min(self.witnesses, key=lambda c: len(c.side))
        for other in self.witnesses:
            if not cand.side <= other.side:
                raise ValueError("witness sides have no unique minimal element")
        return cand.side

    def maximal_side(self) -> frozenset[int]:
        """The optimal side containing every other optimal side."""
        if not self.witnesses:
            raise ValueError("answer has no witnesses")
        cand = max(self.witnesses, key=lambda c: len(c.side))
        for other in self.witnesses:
            if not cand.side >= other.side:
                raise ValueError("witness sides have no unique maximal element")
        return cand.side


def _guard(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"oracle enumeration is capped at n={cap}, got n={n}")


def _gray_sides(
    g: Graph,
    base: Iterable[int],
    free: Sequence[int],
    guide_edges: Sequence[tuple[int, int]] = (),
) -> Iterator[tuple[int, int, list[bool]]]:
    """Yield (cut value, guide-edge crossings, membership) for every side
    formed as base plus a subset of `free`.

    The membership list is reused between steps; callers must copy out of
    it before advancing.
    """
    n = g.n
    inside = [False] * n
    for v in base:
        inside[v] = True
    adj = g.adjacency()
    gadj: list[list[int]] = [[] for _ in range(n)]
    for u, v in guide_edges:
        gadj[u].append(v)
        gadj[v].append(u)
    value = sum(w for u, v, w in g.edges if inside[u] != inside[v])
    crossings = sum(1 for u, v in guide_edges if inside[u] != inside[v])
    yield value, crossings, inside
    for i in range(1, 1 << len(free)):
        v = free[(i & -i).bit_length() - 1]
        side_v = inside[v]
        for u, w in adj[v]:
            value += w if inside[u] == side_v else -w
        for u in gadj[v]:
            crossings += 1 if inside[u] == side_v else -1
        inside[v] = not side_v
        yield value, crossings, inside


def _optimum(n: int, steps: Iterable[tuple[int, list[bool]]]) -> OracleAnswer:
    """The least value among `steps`, (cut value, membership) pairs, with
    every side achieving it; `math.inf` and no witnesses when there are no
    steps."""
    best: float = math.inf
    sides: list[frozenset[int]] = []
    for value, inside in steps:
        if value <= best:
            side = frozenset(v for v in range(n) if inside[v])
            if value < best:
                best, sides = value, [side]
            else:
                sides.append(side)
    sides.sort(key=lambda side: (len(side), tuple(sorted(side))))
    return OracleAnswer(best, tuple(Cut(side, best) for side in sides))


def _check_respecting(g: Graph, tree: SteinerTree, t: int, k: int) -> None:
    _check_guide(g, tree, k)
    if t not in tree.vertices:
        raise ValueError(f"terminal {t} is not a tree vertex")


def brute_min_cut(g: Graph, s: int, t: int) -> OracleAnswer:
    """Minimum (s, t)-cut by enumerating every side containing t but not s."""
    _guard(g.n, ORACLE_MAX_N)
    _check_pair(g.n, s, t)
    free = [v for v in range(g.n) if v != s and v != t]
    return _optimum(g.n, ((value, inside) for value, _, inside in _gray_sides(g, [t], free)))


def brute_respecting_min_cut(
    g: Graph, tree: SteinerTree, s: int, t: int, k: int
) -> OracleAnswer:
    """Minimum (s, t)-cut crossing at most k tree edges.

    Returns value `math.inf` with no witnesses when no side satisfies the
    crossing budget.
    """
    _guard(g.n, ORACLE_MAX_N)
    _check_pair(g.n, s, t)
    _check_respecting(g, tree, t, k)
    free = [v for v in range(g.n) if v != s and v != t]
    return _optimum(g.n, (
        (value, inside)
        for value, crossings, inside in _gray_sides(g, [t], free, tree.edges)
        if crossings <= k
    ))


def brute_leaf_respecting_min_cut(
    g: Graph, tree: SteinerTree, s: int, t: int, k: int
) -> OracleAnswer:
    """As `brute_respecting_min_cut`, additionally requiring the cut to
    cross the source leaf's own tree edge (s, p): p must land on t's side."""
    _guard(g.n, ORACLE_MAX_N)
    _check_pair(g.n, s, t)
    if s != tree.source or tree.degree(s) != 1:
        raise ValueError("s must be the tree's source and a leaf of it")
    _check_respecting(g, tree, t, k)
    p = next(u + v - s for u, v in tree.edges if s in (u, v))
    free = [v for v in range(g.n) if v != s and v != t]
    return _optimum(g.n, (
        (value, inside)
        for value, crossings, inside in _gray_sides(g, [t], free, tree.edges)
        if crossings <= k and inside[p]
    ))


def brute_isolating_cuts(g: Graph, groups: Sequence[Iterable[int]]) -> list[OracleAnswer]:
    """Per group: the minimum cut separating it from every other group,
    with all optimal sides enumerated.  Groups follow `isolating_cuts`'s
    rule."""
    _guard(g.n, ORACLE_MAX_N_ISOLATING)
    gsets, owner = _vertex_groups(g.n, groups, "isolating")
    if len(gsets) < 2:
        raise ValueError(f"need at least 2 groups, got {len(gsets)}")
    free = [v for v in range(g.n) if v not in owner]
    return [
        _optimum(g.n, ((value, inside) for value, _, inside in _gray_sides(g, sorted(grp), free)))
        for grp in gsets
    ]


def brute_steiner_min_cut(g: Graph, terminals: Iterable[int]) -> OracleAnswer:
    """Minimum cut splitting the terminal set: the cheapest cut with
    terminals on both sides.  The stored side is the one avoiding the
    smallest terminal."""
    _guard(g.n, ORACLE_MAX_N)
    terminals = tuple(terminals)  # checked before the set merges 1.0 or True into vertex 1
    for v in terminals:
        if type(v) is not int or not (0 <= v < g.n):
            raise ValueError(f"terminal {v!r} out of range for n={g.n}")
    tset = sorted(set(terminals))
    if len(tset) < 2:
        raise ValueError(f"need at least two terminals, got {len(tset)}")
    anchor, others = tset[0], tset[1:]
    free = [v for v in range(g.n) if v != anchor]
    return _optimum(g.n, (
        (value, inside)
        for value, _, inside in _gray_sides(g, [], free)
        if any(inside[u] for u in others)
    ))
