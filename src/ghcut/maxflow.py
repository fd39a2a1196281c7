"""Exact s-t maximum flow / minimum cut via blocking flows (Dinic).

Undirected edges become paired residual arcs (arc i and arc i^1 are mutual
reverses, both starting at the edge weight).  The arcs live in a
`ResidualNetwork`, which is built from a graph and never mutated: each
solve works on its own copy of the capacities, so one network can be
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

Each phase's BFS stops as soon as the sink is labelled, since every vertex
the phase can use is labelled by then; after an augmentation the DFS
resumes from the first arc the push saturated rather than from the source.
The BFS that fails to reach the sink ends the solve, and the vertices it
left unlabelled are the reported sink side: the vertices NOT reachable
from the source in the final residual network.  Its complement is the
unique minimal source side among minimum cuts, so the side does not depend
on which maximum flow the solve found.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import ContractionMap, Cut, Graph, contract


@dataclass(frozen=True)
class FlowResult:
    """Max-flow value plus the canonical minimum cut (sink side stored)."""

    value: int
    mincut: Cut


class ResidualNetwork:
    """A graph's residual arcs at zero flow, built once and never mutated.

    Edge i becomes arcs 2i and 2i+1, heads `to[2i] = v` and `to[2i+1] = u`,
    both with capacity `cap0` equal to the edge weight; `adj[v]` lists the
    ids of the arcs leaving v.  Every solve copies `cap0`, so one network
    can serve any number of flows, in any order and from any thread.
    """

    __slots__ = ("n", "to", "cap0", "adj")

    def __init__(self, g: Graph):
        adj: list[list[int]] = [[] for _ in range(g.n)]
        to: list[int] = []
        cap0: list[int] = []
        for u, v, w in g.edges:
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += (v, u)
            cap0 += (w, w)
        self.n = g.n
        self.to = to
        self.cap0 = cap0
        self.adj = adj


def attach_network(g: Graph) -> ResidualNetwork:
    """Build g's residual network once and keep it on g for later flows."""
    net = g._net
    if net is None:
        net = g._net = ResidualNetwork(g)
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
    if type(s) is not int or type(t) is not int:
        raise ValueError(f"terminals must be integers, got s={s!r}, t={t!r}")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"terminal out of range: s={s}, t={t}, n={g.n}")
    if s == t:
        raise ValueError("source and sink must differ")
    # Contraction drives most recursive calls down to two or three vertices,
    # where the minimal source side has a closed form; skip the solver there.
    if g.n == 2:
        value = g.edges[0][2] if g.edges else 0
        return FlowResult(value, Cut(frozenset((t,)), value))
    if g.n == 3:
        x = 3 - s - t
        a = b = c = 0
        for u, v, w in g.edges:
            if {u, v} == {s, t}:
                a = w
            elif {u, v} == {s, x}:
                b = w
            else:
                c = w
        value = a + min(b, c)
        side = frozenset((t,)) if c < b else frozenset((t, x))
        return FlowResult(value, Cut(side, value))
    net = g._net
    if net is None:
        net = ResidualNetwork(g)
    value, level = _dinic(net, s, t)
    side = frozenset(v for v in range(g.n) if level[v] < 0)
    return FlowResult(value, Cut(side, value))


def max_flow_multi(g: Graph, s: int, sinks) -> FlowResult:
    """Minimum cut separating s from every vertex in `sinks` at once.

    Equivalent to contracting `sinks` to one vertex; the cut is lifted back
    to original vertex ids.
    """
    if type(s) is not int:
        raise ValueError(f"source must be an integer, got {s!r}")
    if not 0 <= s < g.n:
        raise ValueError(f"terminal out of range: s={s}, n={g.n}")
    sink_set = frozenset(sinks)
    if not sink_set:
        raise ValueError("need at least one sink")
    if s in sink_set:
        raise ValueError("source may not be a sink")
    quotient, cmap = contract(g, [sink_set])
    res = max_flow(quotient, cmap.forward[s], cmap.forward[min(sink_set)])
    side = cmap.lift_side(res.mincut.side)
    return FlowResult(res.value, Cut(side, res.value))
