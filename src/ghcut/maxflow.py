"""Exact s-t maximum flow / minimum cut via blocking flows (Dinic).

Undirected edges become paired residual arcs (arc i and arc i^1 are mutual
reverses, both starting at the edge weight).  The arcs live in a
`ResidualNetwork`, which is built from an edge list and never mutated:
each solve works on its own copy of the capacities, so one network can be
reused across flows and shared between threads.

Who keeps a network: `max_flow` uses the one attached to the graph when
there is one and otherwise builds a throwaway one.  Callers that run many
flows on one graph attach it once with `attach_network`, as Gusfield's
construction and the Gomory-Hu verifier do (n-1 and n(n-1)/2 flows on the
same graph).  The guided search in `treemincuts` does not: its per-call
cache keeps every contracted child it builds alive until the call returns
(7,422 child graphs in one n=512 `tree_mincuts` call), and a network on
each would hold every arc a second time.  Such a network per cached graph
is faster (five `sst-guided`-shaped operations took 0.935 s rather than
1.01 s, and the n=512 call 4.3 s rather than 4.8 s) but raised that
call's peak memory from 151 to 256 MB; ROADMAP direction 4 tracks the
trade.

Flows between vertex sets (`max_flow_multi`, `isolating_cuts`) build the
network straight from the graph's edges, each set relabelled to its
smallest vertex (`_merged_flow`), so the cut comes back in the graph's ids.

Each phase's levels come from one search grown from both terminals
(`_levels`), a level at a time on the side whose frontier is smaller, as
Boykov and Kolmogorov's min-cut solver grows its two search trees (IEEE
TPAMI 2004).  It stops at the level where the two sides meet, so it scans
the arcs near either terminal rather than every arc closer to the source
than the sink is.  Every vertex on a shortest augmenting path gets its
distance from the source as its level; the vertices the search can show
to lie on none get level -1, and the DFS never enters them.  A push only
adds residual capacity on arcs that go down a level, so no vertex gains a
way on within the phase.  A vertex off every shortest path is a dead end
whatever its level, so the DFS finds the same augmenting paths, in the
same order, as over a plain BFS's levels, and the solve takes the same
phases.  After an augmentation the DFS resumes from the first arc the push
saturated rather than from the source.
The search that finds the sink out of reach ends the solve.  When the
sink's side runs out first, the source's side is searched to the end, so
either way that search has labelled exactly the vertices the source can
reach in the final residual network.  It returns them as a list, built a
level at a time, and the reported sink side is the rest of the network's
`vertices`: one set difference in C, with no Python pass over all n
vertices.  The side's complement is the unique minimal source side among
minimum cuts, so the side does not depend on which maximum flow the solve
found, nor on the order of the arcs or on parallel ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .graph import Cut, Graph, _check_pair


@dataclass(frozen=True)
class FlowResult:
    """Max-flow value plus the canonical minimum cut (sink side stored)."""

    value: int
    mincut: Cut


class ResidualNetwork:
    """Residual arcs at zero flow, built once and never mutated.

    Edge i becomes arcs 2i and 2i+1, heads `to[2i] = v` and `to[2i+1] = u`,
    both with capacity `cap0` equal to the edge weight; `adj[v]` lists the
    ids of the arcs leaving v.  Every solve copies `cap0`, so one network
    can serve any number of flows, in any order and from any thread.
    `vertices` holds all n ids; each solve's sink side is what is left of
    it once the vertices the source reaches are taken out.
    """

    __slots__ = ("n", "vertices", "to", "cap0", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        adj: list[list[int]] = [[] for _ in range(n)]
        to: list[int] = []
        cap0: list[int] = []
        for u, v, w in edges:
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += (v, u)
            cap0 += (w, w)
        self.n = n
        self.vertices = frozenset(range(n))
        self.to = to
        self.cap0 = cap0
        self.adj = adj


def attach_network(g: Graph) -> ResidualNetwork:
    """Build g's residual network once and keep it on g for later flows."""
    net = g._net
    if net is None:
        net = g._net = ResidualNetwork(g.n, g.edges)
    return net


def _levels(net: ResidualNetwork, cap: list[int], s: int,
            t: int) -> tuple[list[int], list[int] | None]:
    """Levels of one phase, searched from both terminals, plus the vertices
    s can reach when t is out of reach (None when it is not).

    Each step expands one level of the smaller frontier: from s along
    residual arcs, or from t backwards along residual arcs into it.  The
    sink side is labelled -2 - (distance to t) while the search runs.  The
    first step that finds a residual arc from a source-side vertex into a
    sink-side one finds every such arc, all of them from the source
    frontier (at distance a from s) into the sink frontier (at distance b
    from t), and fixes the s-t distance at D = a + b + 1.  The sink side
    then takes level D - (distance to t), so every vertex on a shortest
    path has its distance from s as its level.  Two kinds of vertex that
    lie on none get level -1: the labels this last step made beyond the
    frontier it expanded, and the source frontier's vertices with no arc
    into the sink side.  A sink-frontier vertex with no arc from the source
    frontier lies on none either, but needs no hiding, since nothing at
    level a has an arc into it.  Every sink-side vertex has a residual path
    to t.

    When the sink side runs out first, no source-side vertex can reach it,
    and the source side's search goes on alone until it runs out too.
    Either way the search ends with every vertex s can reach labelled, and
    `reached`, which is [s] plus each source level's new vertices, lists
    them all.
    """
    to, adj = net.to, net.adj
    level = [-1] * net.n
    level[s] = 0
    level[t] = -2
    front, back = [s], [t]
    a = b = 0
    sink = [t]
    reached = [s]
    while True:
        if back and len(back) < len(front):
            # expand the sink side: residual arcs into the sink frontier
            nxt, joined = [], []
            lb = -3 - b
            for v in back:
                for e in adj[v]:
                    if cap[e ^ 1]:
                        u = to[e]
                        lu = level[u]
                        if lu == -1:
                            level[u] = lb
                            nxt.append(u)
                        elif lu >= 0:
                            joined.append(u)
            if joined:
                break
            back = nxt
            sink += nxt
            b += 1
        elif front:
            # expand the source side: residual arcs out of its frontier
            nxt, joined = [], []
            la = a + 1
            for u in front:
                hit = False
                for e in adj[u]:
                    if cap[e]:
                        v = to[e]
                        lv = level[v]
                        if lv == -1:
                            level[v] = la
                            nxt.append(v)
                        elif lv < -1:
                            hit = True
                if hit:
                    joined.append(u)
            if joined:
                break
            front = nxt
            reached += nxt
            a += 1
        else:
            return level, reached
    # the sides met at distance D = a + b + 1: hide what lies on no
    # shortest path, and give the sink side level D - (distance to t)
    for v in nxt:
        level[v] = -1
    for u in front:
        level[u] = -1
    for u in joined:
        level[u] = a
    top = a + b + 3  # D + 2
    for v in sink:
        level[v] += top
    return level, None


def _dinic(net: ResidualNetwork, s: int, t: int) -> tuple[int, list[int]]:
    """Max-flow value plus the vertices the source reaches in the final
    residual network, as the last level search listed them.

    Every vertex not in the list is on the sink side.
    """
    n, to, adj = net.n, net.to, net.adj
    cap = net.cap0[:]
    flow = 0
    while True:
        level, reached = _levels(net, cap, s, t)
        if reached is not None:
            return flow, reached
        it = [0] * n
        path: list[int] = []
        v = s
        while True:
            if v == t:
                bott = cap[path[0]]
                for a in path:
                    if cap[a] < bott:
                        bott = cap[a]
                for a in path:
                    cap[a] -= bott
                    cap[a ^ 1] += bott
                flow += bott
                # resume from the tail of the first arc the push saturated
                k = 0
                while cap[path[k]]:
                    k += 1
                v = to[path[k] ^ 1]
                del path[k:]
                continue
            arcs = adj[v]
            i = it[v]
            na = len(arcs)
            lv = level[v] + 1
            while i < na:
                a = arcs[i]
                if cap[a] and level[to[a]] == lv:
                    break
                i += 1
            it[v] = i
            if i < na:
                path.append(a)
                v = to[a]
            elif v == s:
                break
            else:
                level[v] = -1  # dead end inside this phase
                v = to[path.pop() ^ 1]
                it[v] += 1


def max_flow(g: Graph, s: int, t: int) -> FlowResult:
    """Minimum s-t cut value and the cut with the minimal source side.

    Disconnected s and t yield value 0 with the component of s as the source
    side.  s == t is rejected.  Solves on the residual network attached to
    `g` when there is one (see `attach_network`), else on a throwaway one.
    """
    _check_pair(g.n, s, t)
    net = g._net
    if net is None:
        net = ResidualNetwork(g.n, g.edges)
    value, reached = _dinic(net, s, t)
    return FlowResult(value, Cut(net.vertices.difference(reached), value))


def _merged_flow(g: Graph, sources: Collection[int], sinks: Collection[int]) -> FlowResult:
    """Minimum cut of `g` between two disjoint nonempty vertex sets, each
    merged into one node; self-loops are skipped, parallel arcs kept.

    Every set member but the one its set is relabelled to keeps no arc, so
    the search never reaches it: a source member goes to the source side
    by name, and a sink member stays on the sink side.
    """
    label = list(range(g.n))
    s, t = min(sources), min(sinks)
    for v in sources:
        label[v] = s
    for v in sinks:
        label[v] = t
    net = ResidualNetwork(g.n, ((label[u], label[v], w) for u, v, w in g.edges
                                if label[u] != label[v]))
    value, reached = _dinic(net, s, t)
    return FlowResult(value, Cut(net.vertices.difference(reached, sources), value))


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
