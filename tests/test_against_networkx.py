"""Differential checks against networkx, past the brute-force oracles' reach.

The oracles enumerate cuts and stop at about 16 vertices; here max flows,
multi-sink flows, isolating cuts and Gomory-Hu trees are compared with
networkx's own flow code on random graphs of up to 80 vertices.  Graphs
are drawn from a seeded rng in the test, not from the library's
generators, and may be disconnected.

The layered graphs at the end are shaped around the solver's level search,
which grows from both terminals, one level at a time on the side with the
smaller frontier, and stops where the two sides meet.  The sides meet
while the sink's side grows (narrow around the sink, wide around the
source) or while the source's does (a wide sink level), and at distance 1
when the source is next to the sink.  With the sink in a small pocket
behind light edges, or in a component of its own, the sink's side runs out
first and the cut comes from finishing the source's side.  Merged sinks
are reached by parallel arcs, or take a third of the graph.  Weights are
units, small, or near `WEIGHT_CAP`.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from ghcut import WEIGHT_CAP, Graph, build_gusfield, isolating_cuts, max_flow, max_flow_multi

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


def merged_source_side(g, sources, sinks):
    """As `residual_source_side`, for the cut between two vertex sets: each
    set is joined to a super terminal by edges without a capacity, which
    are infinite in networkx."""
    h = to_nx(g)
    h.add_edges_from(("src", v) for v in sources)
    h.add_edges_from((v, "sink") for v in sinks)
    value, reach = residual_source_side(h, "src", "sink")
    return value, frozenset(reach - {"src"})


def check_isolating_cuts(g, groups):
    """Every group's value and side against a networkx flow from the group
    to all the other groups."""
    results = isolating_cuts(g, groups)
    assert [gc.group for gc in results] == [frozenset(grp) for grp in groups]
    for i, gc in enumerate(results):
        others = [v for j, grp in enumerate(groups) if j != i for v in grp]
        assert (gc.value, gc.side) == merged_source_side(g, groups[i], others), i


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
@given(n=st.integers(3, 80), seed=st.integers(0, 2**32), data=st.data())
def test_max_flow_multi_value_and_side(n, seed, data):
    g, rng = random_graph(n, seed)
    count = data.draw(st.integers(1, min(8, n - 1)))
    s, *sinks = rng.sample(range(n), count + 1)
    res = max_flow_multi(g, s, sinks)
    # edges without a capacity are infinite in networkx
    h = to_nx(g)
    h.add_edges_from((v, "sink") for v in sinks)
    value, source_side = residual_source_side(h, s, "sink")
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
    check_isolating_cuts(g, groups)


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


# name: (layer widths, index of the sink's layer, vertices of the layer
# below the sink's that have an edge to the sink, weight of the edges
# between those two layers: None as drawn, 1 for light ones, 0 for none)
SHAPES = {
    "wide sink level": ((1, 4, 6, 40, 5), 3, 2, None),
    "one way into the sink": ((1, 3, 25, 8), 3, 1, None),
    "source next to sink": ((1, 30, 10), 1, 1, None),
    "long and narrow": ((1, 2, 2, 2, 2, 20, 3), 5, 1, None),
    "narrow around the sink": ((1, 30, 40, 3, 1), 4, 1, None),
    "sink in a pocket": ((1, 20, 30, 4), 3, 2, 1),
    "separate components": ((1, 15, 25, 1, 12, 6), 3, 0, 0),
}
WEIGHTS = ("unit", "small", "near cap")


def layered_graph(shape, weights, seed):
    """Graph on layers of the given widths, with edges inside a layer and
    between neighbouring ones.  Every vertex but the sink has a neighbour
    one layer up, unless the shape drops the edges below the sink's layer,
    so a vertex's layer is its distance from the source, layer 0's only
    vertex.  Returns the graph, the source, the sink (first of its layer)
    and the layers."""
    widths, sink_layer, links, below_sink = SHAPES[shape]
    rng = random.Random(f"layered|{shape}|{weights}|{seed}")
    layers, n = [], 0
    for width in widths:
        layers.append(list(range(n, n + width)))
        n += width
    s, t = layers[0][0], layers[sink_layer][0]
    pairs = set()
    for i, (up, layer) in enumerate(zip(layers, layers[1:]), start=1):
        for v in layer:
            if v != t and not (i == sink_layer and below_sink == 0):
                pairs.update((u, v) for u in rng.sample(up, rng.randint(1, min(3, len(up)))))
        if len(layer) > 1:
            pairs.update(tuple(sorted(rng.sample(layer, 2))) for _ in range(len(layer)))
    pairs.update((u, t) for u in rng.sample(layers[sink_layer - 1], links))
    if weights == "unit":
        edges = [(u, v, 1) for u, v in sorted(pairs)]
    elif weights == "small":
        edges = [(u, v, rng.randint(1, 20)) for u, v in sorted(pairs)]
    else:
        # the total stays just under the cap
        big = (WEIGHT_CAP - 1) // len(pairs)
        edges = [(u, v, rng.randint(big - 1000, big)) for u, v in sorted(pairs)]
    if below_sink == 1:
        below, pocket = set(layers[sink_layer - 1]), set(layers[sink_layer])
        edges = [(u, v, 1 if u in below and v in pocket else w) for u, v, w in edges]
    return Graph(n, edges), s, t, layers


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_max_flow_on_layered_graphs(shape, weights):
    for seed in range(10):
        g, s, t, _ = layered_graph(shape, weights, seed)
        res = max_flow(g, s, t)
        value, source_side = residual_source_side(to_nx(g), s, t)
        assert res.value == res.mincut.value == value, seed
        assert res.mincut.side == frozenset(range(g.n)) - source_side, seed


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_merged_sinks_on_layered_graphs(shape, weights):
    for seed in range(10):
        g, s, t, layers = layered_graph(shape, weights, seed)
        rng = random.Random(f"merged|{shape}|{weights}|{seed}")
        sink_layer = SHAPES[shape][1]
        if seed % 2:
            # sinks sharing neighbours give the merged sink parallel arcs
            near = layers[sink_layer][1:]
            sinks = [t] + rng.sample(near, min(5, len(near)))
        else:
            # a third of the graph: the sink side starts wider than the source's
            others = range(1, g.n)
            sinks = rng.sample(others, len(others) // 3)
            if t not in sinks:
                sinks.append(t)
        res = max_flow_multi(g, s, sinks)
        h = to_nx(g)
        h.add_edges_from((v, "sink") for v in sinks)
        value, source_side = residual_source_side(h, s, "sink")
        assert res.value == res.mincut.value == value, seed
        assert res.mincut.side == frozenset(range(g.n)) - source_side, seed

        others = [v for v in range(g.n) if v != s and v not in sinks]
        check_isolating_cuts(g, [[s], sinks, rng.sample(others, 2)])


@pytest.mark.parametrize("seed", range(8))
def test_merged_flows_with_arcless_set_members(seed):
    # Merging a vertex set into one node leaves a member without arcs when
    # all its edges stay inside the set.  Next to a random graph on n
    # vertices: x has no edges at all, y has edges only into the source
    # group A, and z only into the other sinks, all of group B.
    n = 6 + 3 * seed
    base, rng = random_graph(n, seed, connected=True)
    x, y, z = n, n + 1, n + 2
    a1, a2, b1, b2, c = rng.sample(range(n), 5)
    edges = list(base.edges) + [(y, a1, rng.randint(1, 20)), (y, a2, rng.randint(1, 20)),
                                (z, b1, rng.randint(1, 20)), (z, b2, rng.randint(1, 20))]
    g = Graph(n + 3, edges)
    A, B = [a1, a2, x, y], [b1, b2, z]

    for s, sinks in ((a1, B + [x]), (x, B), (y, B), (c, B), (a1, [z, b1])):
        res = max_flow_multi(g, s, sinks)
        value, source_side = merged_source_side(g, [s], sinks)
        assert (res.value, res.mincut.value) == (value, value), (s, sinks)
        assert res.mincut.side == frozenset(range(g.n)) - source_side, (s, sinks)

    check_isolating_cuts(g, [A, B])
    check_isolating_cuts(g, [A, B, [c]])
    check_isolating_cuts(g, [[x], [y], B])
