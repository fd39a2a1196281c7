"""Differential checks against networkx, past the brute-force oracles' reach.

The oracles enumerate cuts and stop at about 16 vertices; here max flows,
isolating cuts and Gomory-Hu trees are compared with networkx's own flow
code on random graphs of up to 80 vertices.  Graphs are drawn from a seeded
rng in the test, not from the library's generators, and may be
disconnected.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from ghcut import Graph, build_gusfield, isolating_cuts, max_flow

nx = pytest.importorskip("networkx")
from networkx.algorithms.flow import preflow_push  # noqa: E402


def random_graph(n, seed, connected=False):
    """Random weighted graph with a random density; `connected` first lays
    down a random spanning tree."""
    rng = random.Random(f"nxdiff|{n}|{seed}")
    p = rng.uniform(0.5, 4.0) / n
    edges = []
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        edges += [(order[i], rng.choice(order[:i]), rng.randint(1, 20)) for i in range(1, n)]
    edges += [(u, v, rng.randint(1, 20)) for u in range(n) for v in range(u + 1, n)
              if rng.random() < p]
    return Graph(n, edges), rng


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_weighted_edges_from(g.edges, weight="capacity")
    return h


def residual_source_side(h, s, t):
    """Flow value and the vertices reachable from s in networkx's final
    residual network: the unique minimal source side of a minimum cut."""
    r = preflow_push(h, s, t, capacity="capacity")
    reach = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v, arc in r[u].items():
            if v not in reach and arc["flow"] < arc["capacity"]:
                reach.add(v)
                stack.append(v)
    return r.graph["flow_value"], reach


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), seed=st.integers(0, 2**32))
def test_max_flow_value_and_side(n, seed):
    g, rng = random_graph(n, seed)
    s, t = rng.sample(range(n), 2)
    res = max_flow(g, s, t)
    value, source_side = residual_source_side(to_nx(g), s, t)
    assert res.value == res.mincut.value == value
    assert res.mincut.side == frozenset(range(n)) - source_side


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 80), seed=st.integers(0, 2**32), data=st.data())
def test_isolating_cuts_against_super_sink_flows(n, seed, data):
    g, rng = random_graph(n, seed)
    count = data.draw(st.integers(2, min(8, n)))
    picked = rng.sample(range(n), rng.randint(count, min(n, 3 * count)))
    # cut the picked vertices into `count` nonempty groups
    bounds = sorted(rng.sample(range(1, len(picked)), count - 1))
    groups = [frozenset(picked[a:b]) for a, b in zip([0] + bounds, bounds + [len(picked)])]
    results = isolating_cuts(g, groups)
    assert [gc.group for gc in results] == groups
    for i, gc in enumerate(results):
        # edges without a capacity are infinite in networkx
        h = to_nx(g)
        h.add_edges_from(("src", v) for v in groups[i])
        h.add_edges_from((v, "sink") for j, grp in enumerate(groups) if j != i for v in grp)
        value, source_side = residual_source_side(h, "src", "sink")
        assert gc.value == value
        assert gc.side == frozenset(source_side - {"src"})


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**32))
def test_build_gusfield_all_pairs_against_gomory_hu_tree(n, seed):
    g, _ = random_graph(n, seed, connected=True)
    tree = build_gusfield(g)
    ref = nx.gomory_hu_tree(to_nx(g), capacity="capacity")
    for a in range(n):
        paths = nx.single_source_shortest_path(ref, a)
        for b in range(a + 1, n):
            path = paths[b]
            expected = min(ref[u][v]["weight"] for u, v in zip(path, path[1:]))
            assert tree.query(a, b) == expected
