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
(each once, about 460 graphs per n=72 `tree_mincuts` call), next to every
flow, multi-sink flow and isolating result the call computes, on graphs of
any size, and the compact answers of its budget-1 children (about 440
per n=72 call).  A cached graph sees about four flows, and a network on
each one raised the `sst-guided` benchmark's peak memory by about 7% (22.5
to 24.0 MB) without making it faster.

Flows between vertex sets (`max_flow_multi`, `isolating_cuts`) build the
network straight from the graph's edges, each set relabelled to its
smallest vertex (`_merged_flow`), so the cut comes back in the graph's ids.

Each phase's BFS stops as soon as the sink is labelled, at some level L,
since every vertex the phase can use is labelled by then.  Before its DFS
the phase hides two kinds of dead end by setting their level to -1: every
other vertex at level L, which has no level L+1 to go on to, and every
vertex at level L-1 with no residual arc into the sink.  A push only adds
residual capacity on arcs that go down a level, so no hidden vertex gains
a way on within the phase.  Hiding saves the DFS entering, scanning and
leaving each of them, and since a dead end lies on no path, the DFS finds
the augmenting paths it would find without the hiding, in the same order.
After an augmentation the DFS resumes from the first arc the push
saturated rather than from the source.
The BFS that fails to reach the sink ends the solve, and the vertices it
left unlabelled are the reported sink side: the vertices NOT reachable
from the source in the final residual network.  Its complement is the
unique minimal source side among minimum cuts, so the side does not depend
on which maximum flow the solve found, nor on the order of the arcs or on
parallel ones.
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
    """

    __slots__ = ("n", "to", "cap0", "adj")

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
        self.to = to
        self.cap0 = cap0
        self.adj = adj


def attach_network(g: Graph) -> ResidualNetwork:
    """Build g's residual network once and keep it on g for later flows."""
    net = g._net
    if net is None:
        net = g._net = ResidualNetwork(g.n, g.edges)
    return net


def _dinic(net: ResidualNetwork, s: int, t: int) -> tuple[int, list[int]]:
    """Max-flow value plus the BFS levels of the final residual network.

    Vertices left at level -1 are exactly those the source cannot reach.
    """
    n, to, adj = net.n, net.to, net.adj
    cap = net.cap0[:]
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        # vertices labelled before t have their final level; the rest are
        # no use to this phase, so stop as soon as t is labelled
        for u in queue:
            lv = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if cap[a] and level[v] < 0:
                    level[v] = lv
                    queue.append(v)
            if level[t] >= 0:
                break
        else:
            return flow, level
        # hide the dead ends at the sink's level lt and at lt-1: the tail
        # of the queue, back to the first vertex below lt-1
        lt = level[t]
        into_t = {to[a] for a in adj[t] if cap[a ^ 1]}
        k = len(queue) - 1
        while level[queue[k]] == lt:
            level[queue[k]] = -1
            k -= 1
        level[t] = lt  # hidden with the rest of its level
        while k >= 0 and level[queue[k]] == lt - 1:
            if queue[k] not in into_t:
                level[queue[k]] = -1
            k -= 1
        it = [0] * n
        path: list[int] = []
        v = s
        while True:
            if v == t:
                bott = min(cap[a] for a in path)
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
    value, level = _dinic(net, s, t)
    side = frozenset(v for v in range(g.n) if level[v] < 0)
    return FlowResult(value, Cut(side, value))


def _merged_flow(g: Graph, sources: Collection[int], sinks: Collection[int]) -> FlowResult:
    """Minimum cut of `g` between two disjoint nonempty vertex sets, each
    merged into one node; self-loops are skipped, parallel arcs kept."""
    label = list(range(g.n))
    s, t = min(sources), min(sinks)
    for v in sources:
        label[v] = s
    for v in sinks:
        label[v] = t
    net = ResidualNetwork(g.n, ((label[u], label[v], w) for u, v, w in g.edges
                                if label[u] != label[v]))
    value, level = _dinic(net, s, t)
    side = frozenset(v for v in range(g.n) if level[label[v]] < 0)
    return FlowResult(value, Cut(side, value))


def max_flow_multi(g: Graph, s: int, sinks) -> FlowResult:
    """Minimum cut separating s from every vertex in `sinks` at once.

    Equivalent to merging `sinks` into one vertex; the cut is in g's ids.
    """
    if type(s) is not int:
        raise ValueError(f"source must be an integer, got {s!r}")
    if not 0 <= s < g.n:
        raise ValueError(f"terminal out of range: s={s}, n={g.n}")
    sinks = list(sinks)
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
