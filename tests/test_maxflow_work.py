"""The flow solver's searches per solve, bounded and pinned on small cases.

Each search of a solve (`maxflow._levels`) pushes at least one shortest
augmenting path, so Edmonds and Karp's bound on augmentations bounds the
searches, but no theorem caps them at the vertex count n.  n is a checked
work bound here, on the golden batteries and on every shape and weight
kind of the layered graphs that the networkx differential solves.

A solve whose flow saturates the arcs out of its source ends without the
search that would find the sink out of reach: the source alone is its
side, and a merged source set's other members join it by name.
"""
import pytest

import ghcut.maxflow
from ghcut import Graph, max_flow, max_flow_multi
from test_against_networkx import SHAPES, WEIGHTS, layered_graph
from test_gomoryhu_golden import flow_solves, gusfield_trees


@pytest.fixture
def searches(monkeypatch):
    """`[n, searches]` of every solve made while the test runs, in order."""
    counts = []
    dinic, levels = ghcut.maxflow._dinic, ghcut.maxflow._levels

    def counted_dinic(to, adj, cap0, s, t):
        counts.append([len(adj), 0])
        return dinic(to, adj, cap0, s, t)

    def counted_levels(*args):
        counts[-1][1] += 1
        return levels(*args)

    monkeypatch.setattr(ghcut.maxflow, "_dinic", counted_dinic)
    monkeypatch.setattr(ghcut.maxflow, "_levels", counted_levels)
    return counts


def test_searches_at_most_n_on_golden_batteries(searches):
    gusfield_trees()
    flow_solves()
    assert len(searches) == 4019
    assert [i for i, (n, k) in enumerate(searches) if k > n] == []
    # the most in any one solve, pinned so a solver that drifts toward the
    # bound shows here before it crosses it
    assert max(k for _, k in searches) == 16


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_searches_at_most_n_on_layered_graphs(searches, shape, weights):
    for seed in range(10):
        g, s, t, layers = layered_graph(shape, weights, seed)
        max_flow(g, s, t)
        # the sink's whole layer merged: the sink side starts wide
        max_flow_multi(g, s, layers[SHAPES[shape][1]])
    assert len(searches) == 20
    assert [i for i, (n, k) in enumerate(searches) if k > n] == []


def test_saturated_source_ends_after_one_search(searches):
    # s - x - t with weights 1 and 5: one search finds the path, and its push
    # saturates s's only arc, so no search looks for t again
    g = Graph(3, [(0, 1, 1), (1, 2, 5)])
    res = max_flow(g, 0, 2)
    assert (res.value, res.mincut.side) == (1, frozenset({1, 2}))
    # weights 5 and 1: the arc into t saturates and s keeps room, so a
    # second search finds t out of reach and lists {s, x}
    res = max_flow(Graph(3, [(0, 1, 5), (1, 2, 1)]), 0, 2)
    assert (res.value, res.mincut.side) == (1, frozenset({2}))
    assert searches == [[3, 1], [3, 2]]


def test_source_without_arcs_makes_no_search(searches):
    res = max_flow(Graph(4, [(1, 2, 3), (2, 3, 4)]), 0, 3)
    assert (res.value, res.mincut.side) == (0, frozenset({1, 2, 3}))
    assert searches == [[4, 0]]


def test_saturated_source_through_merged_flows(searches):
    # s's arcs (to x and y) saturate behind wide arcs into two sinks
    g = Graph(5, [(0, 1, 2), (0, 2, 3), (1, 3, 9), (2, 4, 9), (1, 2, 1)])
    res = max_flow_multi(g, 0, [3, 4])
    assert (res.value, res.mincut.side) == (5, frozenset({1, 2, 3, 4}))
    assert searches == [[5, 1]]
    # the source set {0, 1}, as `isolating_cuts` solves one: its smallest
    # member stands for it, the edge inside it is left out, and the second
    # search's push saturates the set's arcs out (0-2, 1-2 and 1-3), so 1
    # joins the source side by name with no third search
    del searches[:]
    g = Graph(5, [(0, 1, 7), (0, 2, 1), (1, 2, 1), (1, 3, 2), (2, 4, 9), (3, 4, 9)])
    res = ghcut.maxflow._merged_flow(g, (0, 1), (4,))
    assert (res.value, res.mincut.side) == (4, frozenset({2, 3, 4}))
    assert searches == [[5, 2]]
