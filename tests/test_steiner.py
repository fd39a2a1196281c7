"""Steiner trees: construction, centroid decomposition, pruning, file I/O."""
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ghcut import (
    Cut,
    Decomposition,
    Graph,
    GraphFormatError,
    SteinerTree,
    centroid,
    decompose,
    format_tree,
    generate,
    load_tree,
    parse_tree,
    prune_sample,
    random_spanning_tree,
    random_steiner_tree,
    respects_count,
    save_tree,
)


def random_tree(n, seed, source=None):
    rng = random.Random(f"tree|{n}|{seed}")
    verts = list(range(n))
    src = verts[0] if source is None else source
    return random_steiner_tree(verts, src, rng)


random_trees = st.builds(
    random_tree, st.integers(2, 40), st.integers(0, 10**6)
)


def test_constructor_normalizes():
    t = SteinerTree((5, 3, 9), ((9, 3), (3, 5)), 3)
    assert t.vertices == (3, 5, 9)
    assert t.edges == ((3, 5), (3, 9))
    assert t.size == 3
    assert t.source == 3
    assert t.degree(3) == 2
    assert t.adjacency()[9] == [3]


@pytest.mark.parametrize("bad", [True, 1.0, "1", None, 7, -1])
def test_degree_rejects_non_members(bad):
    # degree(True) and degree(1.0) used to count vertex 1's edges, and a
    # non-member's degree read 0
    t = SteinerTree((0, 1, 2), ((0, 1), (1, 2)), 0)
    assert [t.degree(v) for v in (0, 1, 2)] == [1, 2, 1]
    with pytest.raises(ValueError, match="not a tree vertex"):
        t.degree(bad)


def test_constructor_rejects_bad_trees():
    with pytest.raises(ValueError):
        SteinerTree((0, 1), ((0, 0),), 0)
    with pytest.raises(ValueError):
        SteinerTree((0, 1, 2), ((0, 1),), 0)
    with pytest.raises(ValueError):
        SteinerTree((0, 1, 2), ((0, 1), (1, 2), (0, 2)), 0)
    with pytest.raises(ValueError):
        SteinerTree((0, 1, 2), ((0, 1), (0, 1)), 0)
    with pytest.raises(ValueError):
        SteinerTree((0, 1), ((0, 1),), 7)
    with pytest.raises(ValueError):
        SteinerTree((0, 1, 2, 3), ((0, 1), (2, 3), (0, 2), (1, 3)), 0)


@pytest.mark.parametrize("edge", [5, (0,), (0, 1, 1)])
def test_constructor_names_malformed_edge(edge):
    with pytest.raises(ValueError, match=re.escape(f"tree edge {edge!r} is not a (u, v) pair")):
        SteinerTree([0, 1], [edge], 0)


@pytest.mark.parametrize("vertices, edges, source, message", [
    ([0, 1.5], [(0, 1.5)], 0, "tree vertex 1.5 is not an integer"),
    ([0, True], [(0, True)], 0, "tree vertex True is not an integer"),
    ([0, 1], [(0, 1.0)], 0, "tree edge (0,1.0) has a non-integer endpoint"),
    ([0, 1], [(0, 1)], 0.0, "source 0.0 not among tree vertices"),
    (["a", 1], [("a", 1)], 1, "tree vertex 'a' is not an integer"),
])
def test_constructor_rejects_non_integer_ids(vertices, edges, source, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SteinerTree(vertices, edges, source)


def test_singleton_tree():
    t = SteinerTree((4,), (), 4)
    assert t.size == 1
    assert t.edges == ()


def test_centroid_path_of_three():
    t = SteinerTree((0, 1, 2), ((0, 1), (1, 2)), 0)
    assert centroid(t) == 1


def test_centroid_star():
    t = SteinerTree(range(6), ((0, i) for i in range(1, 6)), 1)
    assert centroid(t) == 0


def test_centroid_balance_bound_scan():
    # removing the centroid must leave components of at most 2n/3 vertices
    for n in (2, 3, 5, 17, 60, 200):
        for seed in range(4):
            t = random_tree(n, seed)
            c = centroid(t)
            sizes = component_sizes(t, c)
            assert max(sizes) <= 2 * t.size / 3


def component_sizes(t, removed):
    adj = t.adjacency()
    seen = {removed}
    sizes = []
    for start in t.vertices:
        if start in seen:
            continue
        seen.add(start)
        stack, count = [start], 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    count += 1
                    stack.append(v)
        sizes.append(count)
    return sizes or [0]


def test_centroid_tie_breaks_low():
    # a two-vertex tree has two centroids; the low id wins
    t = SteinerTree((3, 8), ((3, 8),), 3)
    assert centroid(t) == 3


@given(random_trees)
@settings(max_examples=100, deadline=None)
def test_decompose_partitions_vertices(t):
    d = decompose(t)
    parts = [d.forest, d.trunk, *d.side_trees]
    union = set()
    total = 0
    for p in parts:
        union |= p
        total += len(p)
    union.add(t.source)
    total += 1
    assert total == t.size
    assert union == set(t.vertices)
    assert d.path[0] == t.source
    assert d.path[-1] == d.centroid
    if d.centroid == t.source:
        assert not d.forest and not d.trunk
    else:
        assert d.centroid in d.trunk
        assert t.source not in d.trunk


@given(random_trees)
@settings(max_examples=100, deadline=None)
def test_decompose_side_trees_avoid_source_component(t):
    d = decompose(t)
    adj = t.adjacency()
    for side in d.side_trees:
        # each side tree is one whole component of the tree minus the
        # centroid, not containing the source
        assert t.source not in side
        for v in side:
            for u in adj[v]:
                if u != d.centroid:
                    assert u in side or u == t.source or u in d.forest or u in d.trunk
        assert connected_within(t, side)


def connected_within(t, part):
    part = set(part)
    if not part:
        return True
    adj = t.adjacency()
    start = next(iter(part))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in part and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == part


def test_decompose_path_anchors():
    t = SteinerTree(range(7), ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)), 0)
    d = decompose(t)
    assert d.centroid == 3
    assert d.path == (0, 1, 2, 3)
    assert d.forest == frozenset()
    assert d.trunk == frozenset({1, 2, 3})
    assert d.side_trees == (frozenset({4, 5, 6}),)


def test_decompose_source_is_centroid():
    t = SteinerTree(range(5), ((0, 1), (0, 2), (0, 3), (0, 4)), 0)
    d = decompose(t)
    assert d.centroid == 0
    assert d.path == (0,)
    assert len(d.side_trees) == 4


def components_without(t, removed):
    """Components of the tree minus `removed`, by flood fill."""
    adj = {v: [] for v in t.vertices}
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {removed}
    comps = []
    for start in t.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = {start}
        stack = [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    return comps


def reference_decomposition(t):
    """The centroid split computed straight from its definition."""
    s = t.source
    worst = {v: max(map(len, components_without(t, v)), default=0) for v in t.vertices}
    c = min(t.vertices, key=lambda v: (worst[v], v))
    side = tuple(sorted((p for p in components_without(t, c) if s not in p), key=min))
    if c == s:
        return Decomposition(c, (s,), frozenset(), frozenset(), side)
    # v lies on the source-centroid path iff removing it separates the two
    on_path = {s, c} | {
        v for v in t.vertices
        if all(not (s in p and c in p) for p in components_without(t, v))
    }
    path = [s]
    while path[-1] != c:
        path.append(next(
            v for e in t.edges if path[-1] in e
            for v in e if v in on_path and v not in path
        ))
    forest = frozenset().union(*(p for p in components_without(t, s) if path[1] not in p))
    trunk = frozenset(t.vertices) - {s} - forest - frozenset().union(*side)
    return Decomposition(c, tuple(path), forest, trunk, side)


@st.composite
def labelled_trees(draw):
    # vertex i attaches to one of the `width` vertices before it, so width 1
    # gives a path and width n a uniform random recursive tree; ids are
    # shuffled so that no shape ties them to DFS order
    n = draw(st.integers(1, 80))
    ids = draw(st.permutations(range(n)))
    width = draw(st.integers(1, n))
    edges = [(ids[draw(st.integers(max(0, i - width), i - 1))], ids[i]) for i in range(1, n)]
    t = SteinerTree(ids, edges, ids[0])
    if draw(st.booleans()):
        source = reference_decomposition(t).centroid
    else:
        source = draw(st.sampled_from(ids))
    return SteinerTree(ids, edges, source)


@given(labelled_trees())
@settings(max_examples=300, deadline=None)
def test_decompose_matches_definition(t):
    expected = reference_decomposition(t)
    assert decompose(t) == expected
    assert centroid(t) == expected.centroid


@given(labelled_trees())
@settings(max_examples=200, deadline=None)
def test_adjacency_lists_are_sorted_neighbours(t):
    expected = {v: [] for v in t.vertices}
    for u, v in t.edges:
        expected[u].append(v)
        expected[v].append(u)
    assert t.adjacency() == {v: sorted(nbrs) for v, nbrs in expected.items()}


def test_respects_count_recount():
    rng = random.Random("respect")
    for _ in range(50):
        t = random_tree(rng.randint(2, 20), rng.randint(0, 999))
        side = frozenset(rng.sample(t.vertices, rng.randint(1, t.size - 1))) if t.size > 1 else frozenset({t.vertices[0]})
        cut = Cut(side, 0)
        want = sum(1 for u, v in t.edges if (u in side) != (v in side))
        assert respects_count(t, cut) == want


def test_prune_sample_zero_parts_is_identity():
    t = random_tree(9, 1)
    assert prune_sample(t, [], random.Random(0)) is t


def test_prune_sample_determinism():
    t = SteinerTree(range(6), ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5)), 0)
    parts = [[2], [4], [5]]
    a = prune_sample(t, parts, random.Random("coins"))
    b = prune_sample(t, parts, random.Random("coins"))
    assert a == b


def test_prune_sample_retention_rate():
    # one fair coin per part: across many draws each part stays about half
    # the time
    t = SteinerTree(range(4), ((0, 1), (0, 2), (0, 3)), 0)
    parts = [[1], [2], [3]]
    rng = random.Random("retention")
    kept = 0
    draws = 10_000
    for _ in range(draws):
        pruned = prune_sample(t, parts, rng)
        kept += sum(1 for p in (1, 2, 3) if p in pruned.vertices)
    rate = kept / (3 * draws)
    assert abs(rate - 0.5) < 0.05


def test_prune_sample_validation():
    t = SteinerTree(range(5), ((0, 1), (1, 2), (2, 3), (3, 4)), 0)
    rng = random.Random(1)
    with pytest.raises(ValueError):
        prune_sample(t, [[]], rng)
    with pytest.raises(ValueError):
        prune_sample(t, [[0]], rng)
    with pytest.raises(ValueError):
        prune_sample(t, [[4], [4]], rng)
    with pytest.raises(ValueError):
        prune_sample(t, [[9]], rng)


def test_prune_sample_interior_part_fails_loudly():
    t = SteinerTree(range(4), ((0, 1), (1, 2), (2, 3)), 0)
    # removing the middle of the path disconnects; the draw that takes the
    # part must raise SteinerTree's own ValueError
    rng = random.Random(0)
    with pytest.raises(ValueError, match="tree edges"):
        for _ in range(64):
            prune_sample(t, [[1]], rng)


def test_random_steiner_tree_shape():
    rng = random.Random("rst")
    t = random_steiner_tree([3, 6, 0, 9], 6, rng)
    assert t.vertices == (0, 3, 6, 9)
    assert t.source == 6
    assert t.size == 4
    with pytest.raises(ValueError):
        random_steiner_tree([0, 1], 5, rng)


def test_random_spanning_tree_uses_graph_edges():
    g = generate("erdos-renyi-weighted", 12, seed=2)
    t = random_spanning_tree(g, 0, random.Random("span"))
    assert t.size == g.n
    pairs = {(u, v) for u, v, _ in g.edges}
    assert all(e in pairs for e in t.edges)
    with pytest.raises(ValueError):
        random_spanning_tree(Graph(4, [(0, 1, 1), (2, 3, 1)]), 0, random.Random(0))


@given(random_trees)
@settings(max_examples=80, deadline=None)
def test_tree_round_trip(t):
    assert parse_tree(format_tree(t)) == t


def test_tree_text_shape():
    t = SteinerTree((0, 2, 5), ((0, 2), (2, 5)), 5)
    text = format_tree(t)
    lines = text.splitlines()
    assert lines[0] == "t 3"
    assert "s 5" in lines
    assert "e 0 2" in lines and "e 2 5" in lines


def test_tree_parse_errors():
    with pytest.raises(GraphFormatError) as exc:
        parse_tree("t 2\ne 0 1\n")
    assert "source" in str(exc.value)
    with pytest.raises(GraphFormatError) as exc:
        parse_tree("t 2\ne 0 1 9\ns 0\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_tree("t 3\ne 0 1\ns 0\n")
    with pytest.raises(GraphFormatError) as exc:
        parse_tree("c fine\nx 1\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError, match="duplicate source") as exc:
        parse_tree("t 2\ne 0 1\ns 0\ns 1\n")
    assert exc.value.line == 4
    for text, line in [("t +2\ne 0 1\ns 0\n", 1), ("t 2\ne 0 1_0\ns 0\n", 2),
                       ("t 2\ne 0 1\ns \u0660\n", 3)]:
        with pytest.raises(GraphFormatError, match="not a decimal integer") as exc:
            parse_tree(text)
        assert exc.value.line == line


def test_tree_save_and_load(tmp_path):
    t = random_tree(9, 5, source=3)
    path = str(tmp_path / "t.tree")
    save_tree(t, path)
    assert load_tree(path) == t
