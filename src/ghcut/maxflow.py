"""Exact s-t maximum flow / minimum cut by shortest augmenting paths
(Edmonds-Karp), pushed in batches along the search's own trees.

A graph is stored as its residual arcs (see `Graph`): undirected edge i
is arcs 2i and 2i+1, mutual reverses, both starting at the edge weight.
Every flow solves on those arcs directly, and each solve works on its own
copy of the capacities.  Graphs are immutable, so nothing is built, kept or
looked up per graph, and any number of threads can solve on one graph.

Flows between vertex sets (`max_flow_multi`, `isolating_cuts`) solve on a
per-call view of the graph's arcs (`_merged_flow`): each set is merged into
its smallest vertex by copying only the arc heads and the adjacency lists,
so the cut comes back in the graph's ids.

Each search (`_levels`) grows two trees, one from each terminal, a level
at a time on the side whose frontier is smaller, as Boykov and
Kolmogorov's min-cut solver does (IEEE TPAMI 2004).  Every vertex keeps
the tree arc by which it was labelled.  The search stops at the level
where the two sides meet and returns every meeting arc, so it scans the
arcs near either terminal rather than every arc closer to the source than
the sink is.  Each meeting arc runs from the frontier being expanded into
the other side's frontier, which has not been expanded yet: a vertex of
an expanded level would have labelled the arc's far end, or met it, when
that level was expanded.  So the tree path through any meeting arc is a
shortest augmenting path.  The solve (`_dinic`) walks each one in turn
and pushes its bottleneck if every arc on it still has capacity, and
skips it otherwise, then searches again.  The first path always goes
through, and pushing along shortest paths never shortens the s-t
distance, so every push is along a shortest augmenting path and
Edmonds and Karp's O(nm) bound on augmentations holds.  The solve and the
search keep the names of the Dinic solver they replaced, `_dinic` and
`_levels`, which the tests wrap to count solves and searches.

The solve ends in one of two ways.  Once the flow equals the capacity
out of the source, every arc out of s is saturated, so s reaches nothing
and the sink side is every other vertex, with no search to show it.
Otherwise the search that finds the sink out of reach ends the solve.
When the sink's side runs out first, the source's side is searched to the
end, so either way that search has labelled exactly the vertices the
source can reach in the final residual network.  It returns them as a
list, built a level at a time, and the reported sink side is the rest of
the n vertex ids: one set difference in C, with no Python pass over all n
vertices.  The side's complement is the unique minimal source side among
minimum cuts, so the side does not depend on which maximum flow the solve
found, nor on the order of the arcs or on parallel ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .graph import Cut, Graph, _check_pair


@dataclass(frozen=True)
class FlowResult:
    """Max-flow value plus the canonical minimum cut (sink side stored)."""

    value: int
    mincut: Cut


def _levels(to: Sequence[int], adj: Sequence[Sequence[int]], cap: list[int], s: int,
            t: int) -> tuple[list, list[int] | None]:
    """One search for shortest augmenting paths, grown from both terminals.

    Returns `(par, meets)` when the two sides meet, and `(reached, None)`
    when t is out of reach, `reached` listing every vertex s can reach.

    Each step expands one level of the smaller frontier: from s along
    residual arcs, or from t backwards along residual arcs into it.
    `par[v]` is None for a vertex not yet labelled.  On the source side it
    is the residual arc into v from the level before; on the sink side it
    is `~e` for the arc e scanned out of the level before, whose reverse
    `e ^ 1` is the residual arc from v toward t.  `par[s]` and `par[t]`
    only mark the sides (0 and ~0) and are never followed.  The first step
    that finds a residual arc from a source-side vertex into a sink-side
    one finishes its level and returns every such arc as `meets`, each
    from the source frontier into the sink frontier; the tree paths
    through them are the shortest augmenting paths that the trees hold.

    When the sink side runs out first, no source-side vertex can reach it,
    and the source side's search goes on alone until it runs out too.  It
    ends with every vertex s can reach labelled, and `reached`, which is
    [s] plus each source level's new vertices, lists them all.
    """
    par: list = [None] * len(adj)
    par[s] = 0
    par[t] = ~0
    front, back = [s], [t]
    reached = [s]
    while True:
        if back and len(back) < len(front):
            # expand the sink side: residual arcs into the sink frontier
            nxt, meets = [], []
            for v in back:
                for e in adj[v]:
                    if cap[e ^ 1]:
                        u = to[e]
                        p = par[u]
                        if p is None:
                            par[u] = ~e
                            nxt.append(u)
                        elif p >= 0:
                            meets.append(e ^ 1)
            if meets:
                return par, meets
            back = nxt
        elif front:
            # expand the source side: residual arcs out of its frontier
            nxt, meets = [], []
            for u in front:
                for e in adj[u]:
                    if cap[e]:
                        v = to[e]
                        p = par[v]
                        if p is None:
                            par[v] = e
                            nxt.append(v)
                        elif p < 0:
                            meets.append(e)
            if meets:
                return par, meets
            front = nxt
            reached += nxt
        else:
            return reached, None


def _dinic(to: Sequence[int], adj: Sequence[Sequence[int]], cap0: Sequence[int], s: int,
           t: int) -> tuple[int, list[int]]:
    """Max-flow value plus the vertices the source reaches in the final
    residual network: [s] alone once the arcs out of s are saturated, and
    otherwise as the last search listed them.

    Each search's meeting arcs are augmented through in the order the
    search found them, each along its tree path to s and to t.  The arcs
    are a graph's (see `Graph`) or a view of them; `cap0` is copied, and no
    argument is written.  Every vertex not in the list is on the sink side.
    """
    cap = list(cap0)
    # the flow out of s is `room` less the capacity left on adj[s], so at
    # flow == room every arc out of s is saturated and s reaches nothing:
    # the solve ends with [s], the merged node alone in a view, whose other
    # members the caller adds by name.  A source without arcs makes no search
    room = sum(map(cap0.__getitem__, adj[s]))
    flow = 0
    while flow < room:
        par, meets = _levels(to, adj, cap, s, t)
        if meets is None:
            return flow, par
        for e in meets:
            bott = cap[e]
            if not bott:
                continue
            # walk the tree path through e to s, then to t, and skip e if an
            # earlier push saturated an arc on it
            path = [e]
            u = to[e ^ 1]
            while u != s:
                a = par[u]
                c = cap[a]
                if not c:
                    break
                if c < bott:
                    bott = c
                path.append(a)
                u = to[a ^ 1]
            else:
                v = to[e]
                while v != t:
                    a = ~par[v] ^ 1
                    c = cap[a]
                    if not c:
                        break
                    if c < bott:
                        bott = c
                    path.append(a)
                    v = to[a]
                else:
                    for a in path:
                        cap[a] -= bott
                        cap[a ^ 1] += bott
                    flow += bott
                    if flow == room:
                        break
    return flow, [s]


def max_flow(g: Graph, s: int, t: int) -> FlowResult:
    """Minimum s-t cut value and the cut with the minimal source side.

    Disconnected s and t yield value 0 with the component of s as the source
    side.  s == t is rejected.
    """
    _check_pair(g.n, s, t)
    value, reached = _dinic(g.to, g.adj, g.cap0, s, t)
    return FlowResult(value, Cut(frozenset(range(g.n)).difference(reached), value))


def _merged_flow(g: Graph, sources: Collection[int], sinks: Collection[int]) -> FlowResult:
    """Minimum cut of `g` between two disjoint nonempty vertex sets, each
    merged into one node, solved on a view of g's arcs.

    The view shares `cap0` and copies `to` and `adj`.  Each arc leaving a
    set gets the set's smallest member as its tail: its reverse, the arc
    entering the set, gets that member as its head, and the member's
    adjacency lists the arcs leaving the set, in arc order, which is the
    order a graph built from the merged edges would list them in.  The
    other members get no arcs and no arc points to them, so the search
    never reaches them: a source member goes to the source side by name,
    and a sink member stays on the sink side.  So a solve that saturates
    the source set's arcs out, and lists the merged node alone, still
    reports the whole set on the source side.  Arcs inside a set are left
    out, as self-loops would be.  The graph is never written.
    """
    to, adj = list(g.to), list(g.adj)
    s, t = min(sources), min(sinks)
    for members, end in ((sources, s), (sinks, t)):
        inside = frozenset(members)
        out = [e for v in inside for e in g.adj[v] if g.to[e] not in inside]
        for e in out:
            to[e ^ 1] = end
        for v in inside:
            adj[v] = ()
        out.sort()
        adj[end] = tuple(out)
    # tuples, as a graph's arrays are: the solver's subscripts then meet one
    # type, which CPython's specialised bytecode runs measurably faster
    value, reached = _dinic(tuple(to), tuple(adj), g.cap0, s, t)
    return FlowResult(value, Cut(frozenset(range(g.n)).difference(reached, sources), value))


def max_flow_multi(g: Graph, s: int, sinks) -> FlowResult:
    """Minimum cut separating s from every vertex in `sinks` at once.

    Equivalent to merging `sinks` into one vertex; the cut is in g's ids.
    """
    if type(s) is not int:
        raise ValueError(f"source must be an integer, got {s!r}")
    if not 0 <= s < g.n:
        raise ValueError(f"terminal out of range: s={s}, n={g.n}")
    try:
        sinks = list(sinks)
    except TypeError:
        raise ValueError(f"sinks must be a collection of vertex ids, got {sinks!r}") from None
    if not sinks:
        raise ValueError("need at least one sink")
    for v in sinks:
        if type(v) is not int:
            raise ValueError(f"sink {v!r} is not an integer")
        if not 0 <= v < g.n:
            raise ValueError(f"sink out of range: {v}, n={g.n}")
    if s in sinks:
        raise ValueError("source may not be a sink")
    return _merged_flow(g, (s,), sinks)
