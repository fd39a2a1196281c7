"""Exhaustive ground truth for cut values on small graphs.

Every routine here enumerates all candidate vertex sides outright, so the
answers are trustworthy by construction and serve as the reference for the
polynomial implementations and for test fixtures.  Hard size guards keep
the exponential enumeration from running away: callers must stay at or
below 16 vertices (14 for the per-group isolating variant).

Enumeration walks subsets in Gray-code order so each step updates the cut
value by one vertex flip; the visited family is still every subset exactly
once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import Cut, Graph
from .steiner import SteinerTree

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


def _collect(answers: list[frozenset[int]], best: float) -> tuple[Cut, ...]:
    ordered = sorted(answers, key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(Cut(side, int(best)) for side in ordered)


def _check_terminals(g: Graph, s: int, t: int) -> None:
    if type(s) is not int or type(t) is not int or not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"terminal out of range: s={s!r}, t={t!r}, n={g.n}")
    if s == t:
        raise ValueError("terminals must differ")


def _check_guide(g: Graph, tree: SteinerTree, t: int, k: int) -> None:
    if type(k) is not int or k < 0:
        raise ValueError(f"crossing budget must be a non-negative integer, got {k!r}")
    if tree.vertices[0] < 0 or tree.vertices[-1] >= g.n:
        raise ValueError("tree vertices leave the graph's vertex range")
    if t not in tree.vertices:
        raise ValueError(f"terminal {t} is not a tree vertex")


def brute_min_cut(g: Graph, s: int, t: int) -> OracleAnswer:
    """Minimum (s, t)-cut by enumerating every side containing t but not s."""
    _guard(g.n, ORACLE_MAX_N)
    _check_terminals(g, s, t)
    free = [v for v in range(g.n) if v != s and v != t]
    best: float = math.inf
    sides: list[frozenset[int]] = []
    for value, _, inside in _gray_sides(g, [t], free):
        if value < best:
            best = value
            sides = [frozenset(v for v in range(g.n) if inside[v])]
        elif value == best:
            sides.append(frozenset(v for v in range(g.n) if inside[v]))
    return OracleAnswer(int(best), _collect(sides, best))


def brute_respecting_min_cut(
    g: Graph, tree: SteinerTree, s: int, t: int, k: int
) -> OracleAnswer:
    """Minimum (s, t)-cut crossing at most k tree edges.

    Returns value `math.inf` with no witnesses when no side satisfies the
    crossing budget.
    """
    _guard(g.n, ORACLE_MAX_N)
    _check_terminals(g, s, t)
    _check_guide(g, tree, t, k)
    free = [v for v in range(g.n) if v != s and v != t]
    best: float = math.inf
    sides: list[frozenset[int]] = []
    for value, crossings, inside in _gray_sides(g, [t], free, tree.edges):
        if crossings > k:
            continue
        if value < best:
            best = value
            sides = [frozenset(v for v in range(g.n) if inside[v])]
        elif value == best:
            sides.append(frozenset(v for v in range(g.n) if inside[v]))
    if not sides:
        return OracleAnswer(math.inf, ())
    return OracleAnswer(int(best), _collect(sides, best))


def brute_leaf_respecting_min_cut(
    g: Graph, tree: SteinerTree, s: int, t: int, k: int
) -> OracleAnswer:
    """As `brute_respecting_min_cut`, additionally requiring the cut to
    cross the source leaf's own tree edge (s, p): p must land on t's side."""
    _guard(g.n, ORACLE_MAX_N)
    _check_terminals(g, s, t)
    if s != tree.source or tree.degree(s) != 1:
        raise ValueError("s must be the tree's source and a leaf of it")
    _check_guide(g, tree, t, k)
    p = next(u + v - s for u, v in tree.edges if s in (u, v))
    free = [v for v in range(g.n) if v != s and v != t]
    best: float = math.inf
    sides: list[frozenset[int]] = []
    for value, crossings, inside in _gray_sides(g, [t], free, tree.edges):
        if crossings > k or not inside[p]:
            continue
        if value < best:
            best = value
            sides = [frozenset(v for v in range(g.n) if inside[v])]
        elif value == best:
            sides.append(frozenset(v for v in range(g.n) if inside[v]))
    if not sides:
        return OracleAnswer(math.inf, ())
    return OracleAnswer(int(best), _collect(sides, best))


def brute_isolating_cuts(g: Graph, groups: Sequence[Iterable[int]]) -> list[OracleAnswer]:
    """Per group: the minimum cut separating it from every other group,
    with all optimal sides enumerated."""
    _guard(g.n, ORACLE_MAX_N_ISOLATING)
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
    free = [v for v in range(g.n) if v not in seen]
    answers = []
    for grp in gsets:
        best: float = math.inf
        sides: list[frozenset[int]] = []
        for value, _, inside in _gray_sides(g, sorted(grp), free):
            if value < best:
                best = value
                sides = [frozenset(v for v in range(g.n) if inside[v])]
            elif value == best:
                sides.append(frozenset(v for v in range(g.n) if inside[v]))
        answers.append(OracleAnswer(int(best), _collect(sides, best)))
    return answers


def brute_steiner_min_cut(g: Graph, terminals: Iterable[int]) -> OracleAnswer:
    """Minimum cut splitting the terminal set: the cheapest cut with
    terminals on both sides.  The stored side is the one avoiding the
    smallest terminal."""
    _guard(g.n, ORACLE_MAX_N)
    tset = set(terminals)
    if len(tset) < 2:
        raise ValueError(f"need at least two terminals, got {len(tset)}")
    for v in tset:
        if type(v) is not int or not (0 <= v < g.n):
            raise ValueError(f"terminal {v!r} out of range for n={g.n}")
    tset = sorted(tset)
    anchor = tset[0]
    others = [v for v in tset if v != anchor]
    free = [v for v in range(g.n) if v != anchor]
    best: float = math.inf
    sides: list[frozenset[int]] = []
    for value, _, inside in _gray_sides(g, [], free):
        if not any(inside[u] for u in others):
            continue
        if value < best:
            best = value
            sides = [frozenset(v for v in range(g.n) if inside[v])]
        elif value == best:
            sides.append(frozenset(v for v in range(g.n) if inside[v]))
    return OracleAnswer(int(best), _collect(sides, best))
